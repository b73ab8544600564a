// Package drivolution is the public API of this reproduction of
// "Drivolution: Rethinking the Database Driver Lifecycle" (Cecchet &
// Candea, Middleware 2009, Industrial Track).
//
// Drivolution stores database drivers inside the database itself and
// distributes them to client applications on demand over a DHCP-like
// lease protocol. Applications link a tiny Bootloader instead of a
// driver; the bootloader downloads, verifies, and dynamically loads the
// right driver for the database it talks to, and later upgrades,
// reconfigures, or revokes it — live, under policy, from one central
// INSERT on the Drivolution server.
//
// # Quick start
//
//	rt := drivolution.NewRuntime()
//	rt.Register(dbms.DriverKind, dbms.ImageFactory())
//
//	store := drivolution.NewLocalStore(sqlmini.NewDB())
//	srv, _ := drivolution.NewServer("drivolution-1", store)
//	srv.Start("127.0.0.1:7070")
//	srv.AddDriver(img, dbver.FormatImage) // the one-step driver rollout
//
//	bl := drivolution.NewBootloader(dbver.APIOf("JDBC", 3, 0),
//	    dbver.PlatformLinuxAMD64, []string{"127.0.0.1:7070"}, rt)
//	conn, _ := bl.Connect("dbms://db-host:9001/prod", nil)
//	conn.Query("SELECT ...")
//
// See examples/ for runnable scenarios: quickstart, master/slave
// failover via driver swap (Figure 4), a heterogeneous DBA console
// (Figure 3), Sequoia clusters with standalone and embedded Drivolution
// servers (Figures 5 and 6), and the per-user license server (§5.4.2).
//
// # Grant fast path
//
// The server keeps a versioned in-memory catalog of driver metadata and
// permission rows. Stores that can report a generation counter over the
// two schema tables (LocalStore does; the counter lives on the embedded
// database, so servers sharing one database invalidate each other)
// serve steady-state grants entirely from the catalog: no SQL, no image
// decoding, no blob read. Any admin mutation bumps the generation and
// is visible to the very next grant. Each catalog entry keeps the
// driver binary its load saw, so a grant that transfers hands out that
// slice — a bootstrap is one statement, the lease INSERT — and the
// image crosses the transfer path uncopied: scatter-sent from the
// entry, read off the socket into the bootloader's one pre-sized blob,
// decoded, then checksummed and signature-checked in place by a single
// SHA-256 pass — image format v2 signs that digest, not the bytes
// (ARCHITECTURE.md, "The image format" and "The image's byte path"). §5.4.1 on-demand assembly is memoized per
// (driver content, package set, options) shape. The client side of the lease protocol lives in one
// place, core.LeaseClient (framing, reply deadlines, poisoning on any
// transport failure); a Bootloader keeps one such client cached to its
// server, so the §3.2 steady-state lease traffic costs one framed round
// trip per renewal, and adds only policy: discovery, failover,
// redirect hops, install. ConnStore deployments (the external server, §4.1.3)
// reach the same fast path over the wire: when the legacy DBMS session
// negotiates the v2 table-versions capability, the catalog validates
// against one generation-probe frame per request — zero SQL — and
// observes writes made by any other client of that database; against
// v1 peers the store transparently keeps the per-request SQL path.
//
// # Indexed lease paths
//
// The embedded SQL engine (internal/sqlmini) executes statements whose
// WHERE clause carries a top-level equality conjunct on an indexed
// column — the primary key, or a secondary index declared with CREATE
// INDEX — as an O(1) point lookup with the full WHERE re-applied as a
// residual filter; `released = FALSE`-style bool predicates ride along
// as residuals. Columns with an ORDERED index (CREATE INDEX ... USING
// ORDERED) additionally serve range conjuncts — col > k, >=, <, <=,
// BETWEEN, including statement-stable now() bounds — as an O(log n)
// boundary seek plus an in-order walk of just the matching window;
// ordered indexes may span several columns (CREATE INDEX ... (a, b)
// USING ORDERED), serving a range on the second column alone by a skip
// scan — one window seek per distinct leading key — when the leading
// column is NOT NULL, and a plan that consumes every WHERE conjunct
// runs residual-free. The engine's DDL is CREATE TABLE and CREATE INDEX
// only: nothing drops a table or an index, and an ORDERED declaration
// over columns a hash index already serves is refused rather than
// silently left without range plans. The
// schema declares a hash index on driver_permission(driver_id) and one
// composite ordered index on leases(driver_id, expires_at), and the
// lease_id and driver_id primary keys drive execution, so renewals,
// releases, lease lookups, the §5.4.2 license-mode driver-free probe
// (one residual-free seek into a driver's unexpired window), the
// license usage count (Server.LicensesInUse, `expires_at > $now`, a
// skip scan), and the lease-expiry sweep (Server.ReapExpiredLeases,
// skip-scanning the `expires_at <= $now` windows: an UPDATE releasing
// what expired and a DELETE dropping every released row whose term is
// over, so the table holds live leases rather than a log; drivolutiond
// runs it once a second) are all flat or near-flat in the lease population
// (BenchmarkLeaseRenewalAt*Leases, BenchmarkLicenseCheckAt10000Leases,
// and BenchmarkExpirySweepAt*Leases track this at the 10k scale). The
// planner is conservative: any WHERE shape it cannot prove equivalent —
// OR at the top level, expressions that can fail row-dependently, lossy
// hash keys like id = 1.5, order-incompatible range bounds — falls back
// to the unchanged scan path with identical results, and DB.Explain
// reports which path a statement takes (docs/ARCHITECTURE.md specifies
// the full eligibility contract and Explain format). Catalog reloads
// are deltas: permission churn carries driver entries over untouched,
// and driver churn re-hashes only blobs whose bytes actually changed.
//
// # The Store interface
//
// The storage boundary is one Store interface: Exec, Prepare (reusable
// handles carrying their cached AST and plan skeleton), ExecBatch (one
// atomic unit — one wire round trip on the external store; on the
// embedded one the batch holds every referenced table's write latch
// for its whole run, so it is atomic and isolated), and Versions (the
// drivers and permission table counters the catalog validates
// against, plus whether the store can observe them). Three stores
// implement it: LocalStore, ConnStore (a small connection pool; Begin
// pins one connection per transaction), and the cluster's replicated
// store, whose batches replicate only once they applied. The server's
// multi-statement operations — driver registration, permission
// updates, driver deletion, lease creation, and the expiry sweep —
// execute as single atomic units; the sweep is two statements in one
// batch regardless of lease count (staged-blob reclamation is
// in-memory: each pending transfer records its lease expiry at staging
// time). ConnStore's failure contract is explicit: a statement
// is replayed after a redial only when it provably never executed
// (never left the client) or is a read-only SELECT; anything else
// surfaces ErrExecOutcomeUnknown instead of risking double-apply.
// CountingStore pins the statement budgets in tests (renewal = 1
// statement, bootstrap = 1, reap = 2 in one round trip).
//
// # Wire API v2: negotiated remote sessions
//
// The dbms wire protocol negotiates each session's contract at connect
// time: the client hello offers a protocol version range plus a
// capability bitmask, and the server answers with the highest shared
// version and the capability intersection. Version-pinned peers (every
// legacy driver build, servers using WithProtocolVersion) keep the
// paper's step-5 connect-time failure on mismatch; ranged peers
// negotiate down cleanly. v2 sessions carry server-side prepared
// statements (msgPrepare/msgExecStmt — the remote parses once per
// handle, semantics pinned identical to ad-hoc execution including
// transactions, replication, and the read-only gate) and table-version
// probes (msgTableVersions — the engine's generation counters in one
// round trip, zero SQL). ConnStore rides both: Prepare runs over remote
// handles cached per pooled connection (re-prepared transparently
// across redials, replayed only under the provably-unsent/read-only
// contract) and Versions over the probe, so steady-state external
// matchmaking runs zero SQL statements against the legacy DBMS. A
// capability the session did not negotiate answers its own call with
// ErrNotSupported before any I/O — the one capability signal. A v1
// session — the paper's legacy database — reports ok == false from
// Versions, and the server keeps the Sample code 1/2 SQL path. ConnStore.Stats reports pool and
// session health (borrows, redials, live remote handles); golden-frame
// tests pin every message's byte-exact encoding.
//
// Benchmarks track these paths: see Makefile bench targets and
// BENCH_baseline.json (scripts/bench.sh compares runs against it;
// scripts/README.md documents the workflow). `make check` (build + vet
// + doc-lint + tests) is the tier-1 gate; README.md maps paper sections
// to packages.
//
// The substrates (the simulated DBMS, the embedded SQL engine, the
// Sequoia middleware, the driver-image runtime) live under internal/ and
// are documented in docs/ARCHITECTURE.md.
package drivolution
