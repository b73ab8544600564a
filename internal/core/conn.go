package core

import (
	"fmt"

	"repro/internal/client"
)

// managedConn wraps a driver connection so the bootloader can transition
// it during upgrades and revocations. All calls pass through to the real
// driver (paper §3.1.1: "All other calls are passed through to the
// driver"); the wrapper only adds the lifecycle state.
type managedConn struct {
	bl *Bootloader
	ld *loadedDriver

	conn client.Conn
	// state transitions are guarded by ld.mu to keep the policy sweep
	// atomic with respect to per-connection calls.
	revoked      bool
	closeAfterTx bool
}

// revokedErr is what a policy-closed connection returns afterwards.
func revokedErr() error {
	return fmt.Errorf("%w (driver replaced or revoked by Drivolution policy)", client.ErrConnRevoked)
}

func (c *managedConn) checkLive() error {
	c.ld.mu.Lock()
	defer c.ld.mu.Unlock()
	if c.revoked {
		return revokedErr()
	}
	return nil
}

// finishIfDeferred closes the connection if an AFTER_COMMIT transition
// marked it; called after a transaction boundary.
func (c *managedConn) finishIfDeferred() {
	c.ld.mu.Lock()
	shouldClose := c.closeAfterTx && !c.revoked
	if shouldClose {
		c.revoked = true
		delete(c.ld.conns, c)
	}
	c.ld.mu.Unlock()
	if shouldClose {
		_ = c.conn.Close()
		c.bl.addMetric(func(m *Metrics) { m.DeferredTx++; m.ForcedCloses++ })
	}
}

// Exec implements client.Conn.
func (c *managedConn) Exec(query string, args ...any) (*client.Result, error) {
	if err := c.checkLive(); err != nil {
		return nil, err
	}
	return c.conn.Exec(query, args...)
}

// Query implements client.Conn.
func (c *managedConn) Query(query string, args ...any) (*client.Result, error) {
	if err := c.checkLive(); err != nil {
		return nil, err
	}
	return c.conn.Query(query, args...)
}

// Begin implements client.Conn.
func (c *managedConn) Begin() error {
	if err := c.checkLive(); err != nil {
		return err
	}
	return c.conn.Begin()
}

// Commit implements client.Conn. Under AFTER_COMMIT the connection is
// closed right after the commit succeeds (paper Table 4:
// "close_active_connections_after_commit").
func (c *managedConn) Commit() error {
	if err := c.checkLive(); err != nil {
		return err
	}
	err := c.conn.Commit()
	if err == nil {
		c.finishIfDeferred()
	}
	return err
}

// Rollback implements client.Conn; a rollback also ends the in-flight
// transaction, so a deferred close applies here too.
func (c *managedConn) Rollback() error {
	if err := c.checkLive(); err != nil {
		return err
	}
	err := c.conn.Rollback()
	if err == nil {
		c.finishIfDeferred()
	}
	return err
}

// InTx implements client.Conn.
func (c *managedConn) InTx() bool { return c.conn.InTx() }

// Ping implements client.Conn. Revoked connections fail the ping, which
// makes pools discard and replace them naturally.
func (c *managedConn) Ping() error {
	if err := c.checkLive(); err != nil {
		return err
	}
	return c.conn.Ping()
}

// Close implements client.Conn: the application-initiated close that the
// AFTER_CLOSE policy waits for.
func (c *managedConn) Close() error {
	c.ld.mu.Lock()
	already := c.revoked
	c.revoked = true
	delete(c.ld.conns, c)
	c.ld.mu.Unlock()
	if already {
		return nil
	}
	return c.conn.Close()
}

// transition applies an expiration policy to every connection of a
// superseded or revoked driver (the paper's Table 4 client-side switch).
func (ld *loadedDriver) transition(b *Bootloader, policy ExpirationPolicy) {
	switch policy {
	case AfterClose:
		// wait_for_active_connections_closing: nothing forced; the
		// wrapper removes each connection as the application closes it.
	case AfterCommit:
		// close_active_connections_idle_or_after_commit.
		ld.mu.Lock()
		var closeNow []*managedConn
		for c := range ld.conns {
			if c.conn.InTx() {
				c.closeAfterTx = true // drains at its commit/rollback
				continue
			}
			c.revoked = true
			delete(ld.conns, c)
			closeNow = append(closeNow, c)
		}
		ld.mu.Unlock()
		for _, c := range closeNow {
			_ = c.conn.Close()
			b.addMetric(func(m *Metrics) { m.ForcedCloses++ })
		}
	case Immediate:
		// terminate_all_active_connections.
		ld.mu.Lock()
		var closeNow []*managedConn
		aborted := 0
		for c := range ld.conns {
			if c.conn.InTx() {
				aborted++
			}
			c.revoked = true
			delete(ld.conns, c)
			closeNow = append(closeNow, c)
		}
		ld.mu.Unlock()
		for _, c := range closeNow {
			_ = c.conn.Close()
			b.addMetric(func(m *Metrics) { m.ForcedCloses++ })
		}
		if aborted > 0 {
			b.addMetric(func(m *Metrics) { m.AbortedTx += int64(aborted) })
		}
	}
}

// closeAll force-closes every connection (bootloader shutdown).
func (ld *loadedDriver) closeAll(b *Bootloader, countForced bool) {
	ld.mu.Lock()
	var conns []*managedConn
	for c := range ld.conns {
		c.revoked = true
		conns = append(conns, c)
	}
	ld.conns = make(map[*managedConn]struct{})
	ld.mu.Unlock()
	for _, c := range conns {
		_ = c.conn.Close()
		if countForced {
			b.addMetric(func(m *Metrics) { m.ForcedCloses++ })
		}
	}
}
