// Package client defines the generic database client API used by every
// application in this repository — the analog of JDBC in the paper. A
// Driver turns a connection URL into live Conns; applications program
// against these interfaces and never against a concrete driver, which is
// precisely what lets the Drivolution bootloader substitute itself for
// the driver (paper §3.1.1: "The Drivolution bootloader is an interceptor
// that substitutes the driver in the client application").
package client

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/dbver"
	"repro/internal/sqlmini"
)

// Props carries driver configuration options, the analog of JDBC
// connection properties. The paper's driver_options column is rendered
// into Props by the bootloader.
type Props map[string]string

// Clone returns a copy of p (nil-safe).
func (p Props) Clone() Props {
	if p == nil {
		return nil
	}
	out := make(Props, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// Merge returns a copy of p with overrides applied on top.
func (p Props) Merge(overrides Props) Props {
	out := make(Props, len(p)+len(overrides))
	for k, v := range p {
		out[k] = v
	}
	for k, v := range overrides {
		out[k] = v
	}
	return out
}

// String renders props deterministically for logs.
func (p Props) String() string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s=%s", k, p[k])
	}
	return sb.String()
}

// Result is a statement outcome delivered to applications: the
// engine's own result type, so a driver decodes a reply once and a
// store hands the same value on. Versions is set on connections with a
// version watch (VersionWatchConn): the watched tables' mutation
// counters, parallel to the watched names, read after this statement
// executed.
type Result = sqlmini.Result

// Driver creates connections to a database. Implementations: the legacy
// static drivers in internal/dbms and internal/sequoia, the driver-image
// runtime in internal/driverimg, and the Drivolution bootloader itself.
type Driver interface {
	// Name identifies the driver implementation, e.g. "dbms-native".
	Name() string
	// Version is the driver implementation version.
	Version() dbver.Version
	// Connect opens a connection to the database addressed by url.
	Connect(url string, props Props) (Conn, error)
}

// Conn is one live database connection.
type Conn interface {
	// Exec runs a statement and returns its result.
	Exec(query string, args ...any) (*Result, error)
	// Query is Exec for row-returning statements.
	Query(query string, args ...any) (*Result, error)
	// Begin opens a transaction on this connection.
	Begin() error
	// Commit commits the open transaction.
	Commit() error
	// Rollback aborts the open transaction.
	Rollback() error
	// InTx reports whether a transaction is open.
	InTx() bool
	// Ping verifies the connection is alive.
	Ping() error
	// Close releases the connection.
	Close() error
}

// API-level errors shared across driver implementations.
var (
	// ErrClosed reports use of a closed connection.
	ErrClosed = errors.New("client: connection is closed")
	// ErrAuth reports failed authentication.
	ErrAuth = errors.New("client: authentication failed")
	// ErrProtocolMismatch reports a driver/server wire-protocol version
	// incompatibility — the paper's step-5 failure mode.
	ErrProtocolMismatch = errors.New("client: protocol version mismatch")
	// ErrNoDatabase reports an unknown database name.
	ErrNoDatabase = errors.New("client: no such database")
	// ErrConnRevoked reports a connection force-closed by a driver
	// replacement policy (IMMEDIATE / AFTER_COMMIT).
	ErrConnRevoked = errors.New("client: connection revoked by driver replacement")
	// ErrStatementNotSent reports a connection failure that happened
	// before the statement left the client: the statement provably never
	// executed, so callers may safely retry it on a fresh connection.
	// Connection failures WITHOUT this mark are ambiguous — the server
	// may or may not have applied the statement.
	ErrStatementNotSent = errors.New("client: statement never reached the server")
	// ErrNotSupported reports an optional capability the connection's
	// negotiated session does not carry (e.g. remote prepared statements
	// against a server that only speaks protocol v1). It is the one
	// capability signal: the capability's own call returns it, before
	// any I/O, and callers detect it with errors.Is and fall back to the
	// capability-free path.
	ErrNotSupported = errors.New("client: capability not supported by this connection")
)

// Statement is one SQL statement plus its arguments, the unit of batch
// execution.
type Statement struct {
	SQL  string
	Args []any
}

// ConnStmt is a server-side prepared-statement handle bound to one
// connection: the server parsed (and planned) the statement once;
// each Exec ships only the handle id and the arguments. Handles die
// with their connection.
type ConnStmt interface {
	// Exec runs the prepared statement with the given arguments.
	Exec(args ...any) (*Result, error)
	// Query is Exec for row-returning statements.
	Query(args ...any) (*Result, error)
	// Close releases the server-side handle.
	Close() error
}

// StmtConn is optionally implemented by connections that can hold
// server-side prepared statements (the BatchConn pattern). Prepare
// returns ErrNotSupported when the negotiated session lacks the
// capability.
type StmtConn interface {
	// Prepare registers sql on the server and returns its handle.
	Prepare(sql string) (ConnStmt, error)
}

// TableVersionConn is optionally implemented by connections that can
// probe the server's per-table mutation counters in one round trip —
// the wire form of the generation counters backing metadata caches.
// TableVersions returns ErrNotSupported when the negotiated session
// lacks the capability.
type TableVersionConn interface {
	// TableVersions reports the mutation counter of each named table,
	// parallel to names. Unknown tables report 0.
	TableVersions(names ...string) ([]uint64, error)
}

// VersionWatchConn is optionally implemented by connections whose
// session can carry table versions on its statement replies, which
// saves a cache the TableVersions round trip it would make after each
// statement. WatchVersions returns ErrNotSupported when the negotiated
// session lacks the capability.
type VersionWatchConn interface {
	// WatchVersions probes names like TableVersions and registers them
	// as the connection's watch, replacing any earlier one: from then
	// on every Result of the connection carries their counters in
	// Versions, read after its statement executed.
	WatchVersions(names ...string) ([]uint64, error)
}

// BatchConn is optionally implemented by connections that can ship a
// whole statement batch to the server in a single wire round trip.
type BatchConn interface {
	// ExecBatch executes stmts in order on this connection. When atomic
	// is true the server wraps the batch in a transaction and rolls it
	// back if any statement fails; atomic batches must not themselves
	// contain transaction control, and are rejected while a
	// transaction is already open on the connection (the server could
	// not honor the rollback promise without clobbering it). On
	// failure the returned results are nil and the error identifies
	// the failing statement.
	ExecBatch(atomic bool, stmts []Statement) ([]*Result, error)
}

// URL is a parsed connection URL:
//
//	scheme://host1:port1[,host2:port2...]/database[?key=value&...]
//
// Multiple hosts support the Sequoia multi-controller URL form
// 'sequoia://controller1,controller2/db' (paper §5.3.2).
type URL struct {
	Scheme   string
	Hosts    []string
	Database string
	Options  Props
}

// ParseURL parses a connection URL.
func ParseURL(raw string) (*URL, error) {
	rest := raw
	i := strings.Index(rest, "://")
	if i < 0 {
		return nil, fmt.Errorf("client: URL %q missing scheme", raw)
	}
	u := &URL{Scheme: rest[:i], Options: Props{}}
	if u.Scheme == "" {
		return nil, fmt.Errorf("client: URL %q missing scheme", raw)
	}
	rest = rest[i+3:]

	var query string
	if qi := strings.IndexByte(rest, '?'); qi >= 0 {
		query = rest[qi+1:]
		rest = rest[:qi]
	}
	hostPart := rest
	if si := strings.IndexByte(rest, '/'); si >= 0 {
		hostPart = rest[:si]
		u.Database = rest[si+1:]
	}
	if hostPart == "" {
		return nil, fmt.Errorf("client: URL %q missing host", raw)
	}
	for _, h := range strings.Split(hostPart, ",") {
		h = strings.TrimSpace(h)
		if h != "" {
			u.Hosts = append(u.Hosts, h)
		}
	}
	if len(u.Hosts) == 0 {
		return nil, fmt.Errorf("client: URL %q missing host", raw)
	}
	if query != "" {
		for _, kv := range strings.Split(query, "&") {
			if kv == "" {
				continue
			}
			k, v, _ := strings.Cut(kv, "=")
			u.Options[k] = v
		}
	}
	return u, nil
}

// String reassembles the URL.
func (u *URL) String() string {
	var sb strings.Builder
	sb.WriteString(u.Scheme)
	sb.WriteString("://")
	sb.WriteString(strings.Join(u.Hosts, ","))
	if u.Database != "" {
		sb.WriteByte('/')
		sb.WriteString(u.Database)
	}
	if len(u.Options) > 0 {
		keys := make([]string, 0, len(u.Options))
		for k := range u.Options {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sep := byte('?')
		for _, k := range keys {
			sb.WriteByte(sep)
			sep = '&'
			sb.WriteString(k)
			sb.WriteByte('=')
			sb.WriteString(u.Options[k])
		}
	}
	return sb.String()
}
