package sequoia

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/dbver"
	"repro/internal/driverimg"
	"repro/internal/faultnet"
	"repro/internal/sqlmini"
	"repro/internal/wire"
)

// DriverKind is the driver-image kind for Sequoia drivers.
const DriverKind = "sequoia"

// Driver is the Sequoia client driver: it accepts multi-host URLs
// ('sequoia://controller1,controller2/db', §5.3.2), load-balances
// connection establishment across controllers, and fails over — both at
// connect time and transparently mid-connection — so that "drivers ...
// always end up connecting to a compatible controller, as long as one is
// available" (§5.3.1).
type Driver struct {
	version      dbver.Version
	protoVersion uint16
}

// dialTimeout bounds a controller dial and the handshake reply that
// follows it.
const dialTimeout = 5 * time.Second

// failoverRetry is the transparent-failover schedule: a failed exchange
// is tried three times in all against surviving controllers, with
// jittered delays starting at 25ms.
var failoverRetry = faultnet.Policy{Initial: 25 * time.Millisecond, Max: 500 * time.Millisecond,
	Factor: 2, Jitter: 0.5, MaxAttempts: 3}

// NewDriver builds a Sequoia driver speaking the given controller
// protocol version.
func NewDriver(version dbver.Version, protoVersion uint16) *Driver {
	return &Driver{version: version, protoVersion: protoVersion}
}

// Name implements client.Driver.
func (d *Driver) Name() string { return DriverKind }

// Version implements client.Driver.
func (d *Driver) Version() dbver.Version { return d.version }

// Connect implements client.Driver.
func (d *Driver) Connect(rawURL string, props client.Props) (client.Conn, error) {
	u, err := client.ParseURL(rawURL)
	if err != nil {
		return nil, err
	}
	if u.Scheme != "sequoia" {
		return nil, fmt.Errorf("sequoia: driver cannot handle scheme %q", u.Scheme)
	}
	opts := u.Options.Merge(props)
	sc := &seqConn{
		driver:   d,
		hosts:    u.Hosts,
		database: u.Database,
		user:     opts["user"],
		password: opts["password"],
	}
	if err := sc.reconnect(nil); err != nil {
		return nil, err
	}
	return sc, nil
}

// seqConn is one virtual connection that silently re-homes onto another
// controller when its current one dies.
type seqConn struct {
	driver   *Driver
	hosts    []string
	database string
	user     string
	password string

	mu     sync.Mutex
	conn   *wire.Conn
	host   string
	inTx   bool
	closed bool
}

// reconnect dials controllers in order, skipping skipHost (the one that
// just failed). Caller must NOT hold mu.
func (sc *seqConn) reconnect(skip map[string]bool) error {
	var firstErr error
	for _, h := range sc.hosts {
		if skip[h] {
			continue
		}
		conn, err := wire.Dial(h, dialTimeout)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		hello := helloMsg{
			ProtocolVersion: sc.driver.protoVersion,
			Database:        sc.database,
			User:            sc.user,
			Password:        sc.password,
			ClientInfo:      fmt.Sprintf("sequoia-driver %s", sc.driver.version),
		}
		if err := conn.Send(msgHello, wire.Marshal(&hello)); err != nil {
			conn.Close()
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		f, err := conn.RecvTimeout(dialTimeout)
		if err != nil {
			conn.Close()
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if f.Type == msgError {
			var em errorMsg
			err := wire.Unmarshal(f.Payload, &em)
			conn.Close()
			if err != nil {
				return fmt.Errorf("sequoia: refusal from %s: %w", h, err)
			}
			// Protocol/auth errors are not transient: stop here.
			return mapError(em.Code, em.Message)
		}
		if f.Type != msgHelloOK {
			conn.Close()
			continue
		}
		sc.mu.Lock()
		sc.conn = conn
		sc.host = h
		sc.mu.Unlock()
		return nil
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("sequoia: no controller reachable among %v", sc.hosts)
	}
	return firstErr
}

func mapError(code uint16, msg string) error {
	switch code {
	case codeProtocolMismatch:
		return fmt.Errorf("%w: %s", client.ErrProtocolMismatch, msg)
	case codeAuthFailed:
		return fmt.Errorf("%w: %s", client.ErrAuth, msg)
	case codeNoDatabase:
		return fmt.Errorf("%w: %s", client.ErrNoDatabase, msg)
	default:
		return fmt.Errorf("%s", fmtCode(code, msg))
	}
}

// fatalConnectErr reports connect errors that retrying cannot fix —
// the controller answered and said no (auth, protocol, wrong
// database), as opposed to not answering at all.
func fatalConnectErr(err error) bool {
	return errors.Is(err, client.ErrProtocolMismatch) ||
		errors.Is(err, client.ErrAuth) ||
		errors.Is(err, client.ErrNoDatabase)
}

// roundTrip sends a frame and reads the reply (bounded by the op
// timeout), transparently failing over to surviving controllers on
// transport failure. Retries follow failoverRetry: jittered delays
// between attempts, at most MaxAttempts in all.
func (sc *seqConn) roundTrip(typ uint16, payload []byte) (wire.Frame, error) {
	bo := faultnet.NewBackoff(failoverRetry)
	var lastErr error
	for attempt := 0; attempt < failoverRetry.MaxAttempts; attempt++ {
		if attempt > 0 && !bo.Sleep(nil) {
			break
		}
		sc.mu.Lock()
		if sc.closed {
			sc.mu.Unlock()
			return wire.Frame{}, client.ErrClosed
		}
		conn := sc.conn
		host := sc.host
		sc.mu.Unlock()
		if conn == nil {
			if err := sc.reconnect(nil); err != nil {
				if fatalConnectErr(err) {
					return wire.Frame{}, err
				}
				lastErr = err
			}
			continue
		}
		if err := conn.Send(typ, payload); err == nil {
			f, rerr := conn.RecvTimeout(faultnet.DefaultOpTimeout)
			if rerr == nil {
				return f, nil
			}
			lastErr = rerr
		} else {
			lastErr = err
		}
		// Connection failed: drop it and fail over away from this host.
		conn.Close()
		sc.mu.Lock()
		sc.conn = nil
		sc.mu.Unlock()
		if err := sc.reconnect(map[string]bool{host: true}); err != nil {
			// Last resort: maybe the failed host came back.
			if err2 := sc.reconnect(nil); err2 != nil && fatalConnectErr(err2) {
				return wire.Frame{}, err2
			}
		}
	}
	return wire.Frame{}, fmt.Errorf("%w: failover retry budget exhausted: %v", client.ErrClosed, lastErr)
}

func (sc *seqConn) exec(sql string, args []any) (*client.Result, error) {
	m := execMsg{SQL: sql}
	if len(args) == 1 {
		if named, ok := args[0].(sqlmini.Args); ok {
			m.Named = make(map[string]sqlmini.Value, len(named))
			for k, v := range named {
				val, err := sqlmini.FromGo(v)
				if err != nil {
					return nil, err
				}
				m.Named[k] = val
			}
		}
	}
	if m.Named == nil {
		for _, a := range args {
			v, err := sqlmini.FromGo(a)
			if err != nil {
				return nil, err
			}
			m.Positional = append(m.Positional, v)
		}
	}
	f, err := sc.roundTrip(msgExec, m.encode())
	if err != nil {
		return nil, err
	}
	switch f.Type {
	case msgResult:
		cols, rows, affected, err := decodeResult(f.Payload)
		if err != nil {
			return nil, err
		}
		return &client.Result{Cols: cols, Rows: rows, Affected: affected}, nil
	case msgError:
		var em errorMsg
		if err := wire.Unmarshal(f.Payload, &em); err != nil {
			return nil, err
		}
		return nil, mapError(em.Code, em.Message)
	default:
		return nil, fmt.Errorf("sequoia: unexpected frame 0x%04x", f.Type)
	}
}

// Exec implements client.Conn.
func (sc *seqConn) Exec(sql string, args ...any) (*client.Result, error) {
	return sc.exec(sql, args)
}

// Query implements client.Conn.
func (sc *seqConn) Query(sql string, args ...any) (*client.Result, error) {
	return sc.exec(sql, args)
}

// Begin implements client.Conn; the controller substrate is
// replicated-autocommit, so transactions are rejected.
func (sc *seqConn) Begin() error {
	_, err := sc.exec("BEGIN", nil)
	return err
}

// Commit implements client.Conn.
func (sc *seqConn) Commit() error {
	_, err := sc.exec("COMMIT", nil)
	return err
}

// Rollback implements client.Conn.
func (sc *seqConn) Rollback() error {
	_, err := sc.exec("ROLLBACK", nil)
	return err
}

// InTx implements client.Conn.
func (sc *seqConn) InTx() bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.inTx
}

// Ping implements client.Conn.
func (sc *seqConn) Ping() error {
	f, err := sc.roundTrip(msgPing, nil)
	if err != nil {
		return err
	}
	if f.Type != msgPong {
		return fmt.Errorf("sequoia: unexpected ping reply 0x%04x", f.Type)
	}
	return nil
}

// Close implements client.Conn.
func (sc *seqConn) Close() error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.closed {
		return nil
	}
	sc.closed = true
	if sc.conn != nil {
		return sc.conn.Close()
	}
	return nil
}

// Host reports which controller the connection currently uses
// (experiments observe failover with it).
func (sc *seqConn) Host() string {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.host
}

// ImageFactory returns the driverimg factory for Sequoia drivers, so
// Sequoia driver upgrades flow through Drivolution like any other driver
// (§5.3.1 "Sequoia driver upgrade").
func ImageFactory() driverimg.Factory {
	return func(img *driverimg.Image) (client.Driver, error) {
		inner := NewDriver(img.Manifest.Version, img.Manifest.ProtocolVersion)
		return driverimg.WrapDriver(inner, img), nil
	}
}
