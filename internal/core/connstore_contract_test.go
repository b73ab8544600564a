package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/dbms"
	"repro/internal/dbver"
)

// plainConn is a client.Conn with none of the session calls ConnStore
// needs; it records its Close.
type plainConn struct {
	client.Conn
	closed bool
}

func (c *plainConn) Close() error {
	c.closed = true
	return c.Conn.Close()
}

// TestConnStoreDialContract: a dialed connection without the session
// calls is refused by name, closed, and its pool slot freed, so the
// next good dial on the same store serves.
func TestConnStoreDialContract(t *testing.T) {
	f := newRemoteFixture(t, 2)
	drv := dbms.NewNativeDriver(dbver.V(2, 0, 0), 2)
	var plain *plainConn
	store := NewConnStore(func() (client.Conn, error) {
		c, err := drv.Connect("dbms://"+f.legacy.Addr()+"/meta", client.Props{"user": "svc", "password": "pw"})
		if err != nil || plain != nil {
			return c, err
		}
		plain = &plainConn{Conn: c}
		return plain, nil
	}, WithPoolSize(1))
	t.Cleanup(store.Close)

	_, err := store.Exec(`SELECT 1`)
	if err == nil || !strings.Contains(err.Error(), "*core.plainConn") {
		t.Fatalf("dial of a plain connection: err = %v, want a refusal naming *core.plainConn", err)
	}
	if !plain.closed {
		t.Fatal("the refused connection was not closed")
	}
	done := make(chan error, 1)
	go func() {
		_, err := store.Exec(`SELECT 1`)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("a good dial after the refusal: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the refused dial kept its pool slot: the next statement never ran")
	}
}

// prepareCounter counts the Prepare calls a store makes on its
// connection.
type prepareCounter struct {
	sessionConn
	calls *int
}

func (c prepareCounter) Prepare(sql string) (client.ConnStmt, error) {
	*c.calls++
	return c.sessionConn.Prepare(sql)
}

// TestConnStoreV1SessionCostsNoCapabilityFrames: over a v1 session,
// prepared handles and version reads send no msgPrepare and no
// msgTableVersions, and the session's ErrNotSupported from Prepare is
// taken once per connection, not once per statement.
func TestConnStoreV1SessionCostsNoCapabilityFrames(t *testing.T) {
	f := newRemoteFixture(t, 2, dbms.WithProtocolVersion(1))
	drv := dbms.NewNativeDriver(dbver.V(2, 0, 0), 2, dbms.WithProtocolFloor(1))
	calls := 0
	store := NewConnStore(func() (client.Conn, error) {
		c, err := drv.Connect("dbms://"+f.legacy.Addr()+"/meta", client.Props{"user": "svc", "password": "pw"})
		if err != nil {
			return nil, err
		}
		return prepareCounter{sessionConn: c.(sessionConn), calls: &calls}, nil
	}, WithPoolSize(1))
	t.Cleanup(store.Close)
	if err := EnsureSchema(store); err != nil {
		t.Fatal(err)
	}
	st, err := store.Prepare(`SELECT count(*) FROM ` + DriversTable)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if _, err := st.Exec(); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := store.Versions(); ok {
			t.Fatal("a v1 session reported table versions")
		}
	}
	if p, v := f.legacy.PreparesServed(), f.legacy.VersionProbesServed(); p != 0 || v != 0 {
		t.Fatalf("%d prepared executions over v1: %d msgPrepare and %d msgTableVersions, want 0 and 0", n, p, v)
	}
	if calls != 1 {
		t.Fatalf("Prepare called %d times on one v1 connection, want 1", calls)
	}
}
