package drivolution

import (
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/driverimg"
	"repro/internal/sqlmini"
)

// Re-exported core types: the Drivolution server, bootloader, and their
// vocabulary. Aliases keep one implementation while giving users a
// single import.
type (
	// Server is the Drivolution Server (in-database, external, or
	// standalone depending on its Store).
	Server = core.Server
	// ServerOption configures a Server.
	ServerOption = core.ServerOption
	// Bootloader is the client-side driver interceptor.
	Bootloader = core.Bootloader
	// BootloaderOption configures a Bootloader.
	BootloaderOption = core.BootloaderOption
	// Console manages per-database drivers behind one installation
	// (Figure 3).
	Console = core.Console
	// Store is where the Drivolution schema lives: Exec, Prepare, an
	// atomic ExecBatch, and the catalog's table Versions.
	Store = core.Store
	// LocalStore keeps the schema in an embedded database.
	LocalStore = core.LocalStore
	// ConnStore keeps the schema in a remote legacy DBMS (Figure 2).
	ConnStore = core.ConnStore
	// ConnStoreOption configures a ConnStore (pool size etc.).
	ConnStoreOption = core.ConnStoreOption
	// ConnStoreStats is a point-in-time view of a ConnStore's pool and
	// remote-session health (borrows, redials, live remote handles).
	ConnStoreStats = core.ConnStoreStats
	// Tx is one open transaction (LocalStore.Begin, ConnStore.Begin).
	Tx = core.Tx
	// Stmt is a reusable prepared-statement handle (Store.Prepare).
	Stmt = core.Stmt
	// Statement is one SQL statement plus arguments, the batch unit.
	Statement = core.Statement
	// CountingStore counts statements/round trips crossing the storage
	// boundary (test and CI tooling).
	CountingStore = core.CountingStore
	// Permission is a driver_permission row (Table 2).
	Permission = core.Permission
	// Lease is a lease-table row.
	Lease = core.Lease
	// DriverRecord is a drivers-table row (Table 1).
	DriverRecord = core.DriverRecord
	// RenewPolicy is RENEW / UPGRADE / REVOKE.
	RenewPolicy = core.RenewPolicy
	// ExpirationPolicy is AFTER_CLOSE / AFTER_COMMIT / IMMEDIATE.
	ExpirationPolicy = core.ExpirationPolicy
	// Metrics counts bootloader lifecycle events.
	Metrics = core.Metrics
	// ProtocolError is a DRIVOLUTION_ERROR.
	ProtocolError = core.ProtocolError

	// Image is a distributable driver image.
	Image = driverimg.Image
	// Manifest describes a driver build.
	Manifest = driverimg.Manifest
	// Runtime loads driver images into live drivers.
	Runtime = driverimg.Runtime
	// PackageStore assembles drivers on demand (§5.4.1).
	PackageStore = driverimg.PackageStore

	// Driver creates database connections (the JDBC analog).
	Driver = client.Driver
	// Conn is one database connection.
	Conn = client.Conn
	// StmtConn is a connection holding server-side prepared statements
	// (negotiated capability; see ErrNotSupported).
	StmtConn = client.StmtConn
	// ConnStmt is one server-side prepared-statement handle.
	ConnStmt = client.ConnStmt
	// TableVersionConn probes remote per-table mutation counters in one
	// round trip (negotiated capability; see ErrNotSupported).
	TableVersionConn = client.TableVersionConn
	// VersionWatchConn carries watched tables' mutation counters on
	// every statement reply (negotiated capability; see ErrNotSupported).
	VersionWatchConn = client.VersionWatchConn
	// Props carries connection options.
	Props = client.Props
)

// Policy constants, re-exported with the paper's Table 2 encodings.
const (
	RenewKeep    = core.RenewKeep
	RenewUpgrade = core.RenewUpgrade
	RenewRevoke  = core.RenewRevoke

	AfterClose  = core.AfterClose
	AfterCommit = core.AfterCommit
	Immediate   = core.Immediate
)

// Constructors and helpers.
var (
	// NewServer creates a Drivolution server over a Store.
	NewServer = core.NewServer
	// NewBootloader creates a client bootloader.
	NewBootloader = core.NewBootloader
	// NewConsole creates a multi-database console (Figure 3).
	NewConsole = core.NewConsole
	// NewLocalStore wraps an embedded database as a Store.
	NewLocalStore = core.NewLocalStore
	// NewConnStore wraps a legacy driver connection as a Store.
	NewConnStore = core.NewConnStore
	// WithPoolSize bounds ConnStore's connection pool.
	WithPoolSize = core.WithPoolSize
	// NewCountingStore wraps any store with boundary counters.
	NewCountingStore = core.NewCountingStore
	// NewRuntime creates an empty driver runtime.
	NewRuntime = driverimg.NewRuntime
	// NewPackageStore creates an empty feature-package store.
	NewPackageStore = driverimg.NewPackageStore
	// EnsureSchema creates the Drivolution tables (Table 1/2 + leases).
	EnsureSchema = core.EnsureSchema
	// GenerateTLSCert builds a self-signed cert + trust pool for the
	// secure transfer channel.
	GenerateTLSCert = core.GenerateTLSCert
	// NewDB creates an embedded database for LocalStore.
	NewDB = sqlmini.NewDB
)

// Bootloader options, re-exported.
var (
	WithCredentials      = core.WithCredentials
	WithTrustKey         = core.WithTrustKey
	WithTLS              = core.WithTLS
	WithPushUpdates      = core.WithPushUpdates
	WithRequiredPackages = core.WithRequiredPackages
	WithPreferredVersion = core.WithPreferredVersion
	WithPreferredFormat  = core.WithPreferredFormat
	WithRenewAhead       = core.WithRenewAhead
	WithRetryInterval    = core.WithRetryInterval
	WithDialTimeout      = core.WithDialTimeout
	WithClientID         = core.WithClientID
)

// Server options, re-exported.
var (
	WithAuth            = core.WithAuth
	WithSigningKey      = core.WithSigningKey
	WithPackages        = core.WithPackages
	WithDefaultLease    = core.WithDefaultLease
	WithDefaultPolicies = core.WithDefaultPolicies
	WithLicenseMode     = core.WithLicenseMode
	// WithLeaseJitter smears granted lease periods by a uniform ±frac,
	// de-synchronizing fleet renewal storms (§3.4.2).
	WithLeaseJitter = core.WithLeaseJitter
)

// Errors, re-exported.
var (
	// ErrNoDriverAvailable: the driver was revoked with no replacement.
	ErrNoDriverAvailable = core.ErrNoDriverAvailable
	// ErrConnRevoked: the connection was closed by a replacement policy.
	ErrConnRevoked = client.ErrConnRevoked
	// ErrProtocolMismatch: driver/server wire-protocol incompatibility.
	ErrProtocolMismatch = client.ErrProtocolMismatch
	// ErrExecOutcomeUnknown: a statement's connection died after it may
	// have reached the server; it was not retried.
	ErrExecOutcomeUnknown = core.ErrExecOutcomeUnknown
	// ErrNotSupported: a capability the connection's session did not
	// negotiate (e.g. remote prepare against a v1 server) — the one
	// capability signal, returned by the capability's own call before
	// any I/O.
	ErrNotSupported = client.ErrNotSupported
	// ErrTxDone: the transaction already committed or rolled back.
	ErrTxDone = core.ErrTxDone
)
