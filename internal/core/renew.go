package core

import (
	"errors"
	"time"

	"repro/internal/faultnet"
)

// newLoopBackoff builds the Backoff driving the persistent renewal
// and push loops. The default policy starts at retryInterval (so test
// cadences stay fast) and grows to 16× with jitter; attempt and time
// budgets are stripped either way, because a bootloader cut off from
// every server keeps serving its driver and keeps retrying (§4.1.3) —
// it never gives up.
func (b *Bootloader) newLoopBackoff() *faultnet.Backoff {
	p := b.backoffPol
	if p == (faultnet.Policy{}) {
		p = faultnet.Policy{Initial: b.retryInterval, Max: 16 * b.retryInterval,
			Factor: 2, Jitter: 0.5}
	}
	p.MaxAttempts, p.Budget = 0, 0
	return faultnet.NewBackoff(p)
}

// renewLoop is the bootloader's dedicated timer thread (paper §3.4.2:
// "bootloaders can use a dedicated thread as a timer to contact the
// Drivolution Server as soon as the timer expires"). It wakes at the
// renew-ahead point of the lease, on push notifications, and on explicit
// ForceRenew calls. Consecutive failures retry on the shared jittered
// backoff schedule instead of hammering the (already passed) renew-ahead
// point; a success resets the schedule.
func (b *Bootloader) renewLoop(database string) {
	defer b.wg.Done()
	bo := b.newLoopBackoff()
	var backoffWait time.Duration // >0 while in a failure streak
	for {
		b.mu.Lock()
		var wait time.Duration
		if b.cur != nil {
			renewAt := b.cur.expiresAt.Add(-time.Duration((1 - b.renewAhead) * float64(b.cur.leaseTime)))
			wait = time.Until(renewAt)
		} else {
			wait = b.retryInterval
		}
		revoked := b.revoked
		b.mu.Unlock()
		if revoked {
			return
		}
		if backoffWait > 0 {
			wait = backoffWait
		}
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		timer := time.NewTimer(wait)
		select {
		case <-b.stopCh:
			timer.Stop()
			return
		case <-b.wakeCh:
			timer.Stop()
		case <-timer.C:
		}
		if err := b.renewOnce(database); err != nil {
			if d, ok := bo.Next(); ok {
				backoffWait = d
			}
		} else {
			bo.Reset()
			backoffWait = 0
		}
	}
}

// ForceRenew triggers an immediate renewal attempt and returns its
// outcome; scenarios and tests use it instead of waiting for the timer.
func (b *Bootloader) ForceRenew(database string) error {
	return b.renewOnce(database)
}

// renewOnce performs one Table 4 renewal exchange and applies the
// client-side policy actions.
func (b *Bootloader) renewOnce(database string) error {
	// Snapshot the lease fields under b.mu: a concurrent renewal (timer
	// loop vs ForceRenew) rewrites them — including serverAddr when a
	// cluster redirect re-homes the lease — while we are off the lock.
	b.mu.Lock()
	cur := b.cur
	var serverAddr, checksum string
	var leaseID uint64
	if cur != nil {
		serverAddr, leaseID, checksum = cur.serverAddr, cur.leaseID, cur.checksum
	}
	b.mu.Unlock()
	if cur == nil {
		return ErrNoDriverAvailable
	}

	offer, blob, addr, err := b.fetch(serverAddr, database, leaseID, checksum)
	if err != nil {
		var pe *ProtocolError
		if !errors.As(err, &pe) {
			// Network failure — or a cluster redirect that could not name
			// a serving owner (*Redirect with no address): fail over to
			// another configured server (paper §5.3.2: bootloaders
			// "perform failover, if the first host in the list becomes
			// unavailable").
			for _, alt := range b.servers {
				if alt == serverAddr {
					continue
				}
				if o, bl2, served, e2 := b.fetch(alt, database, leaseID, checksum); e2 == nil || errors.As(e2, &pe) {
					offer, blob, err, addr = o, bl2, e2, served
					break
				}
			}
		}
	}
	if err != nil {
		var pe *ProtocolError
		if errors.As(err, &pe) {
			switch pe.Code {
			case ErrCodeNoLease:
				// The answering server does not know this lease — e.g. a
				// replicated embedded server that took over after its
				// peer died. DHCP-style recovery: acquire a fresh lease.
				return b.rebootstrap(addr, database, cur, checksum)
			case ErrCodeTransfer, ErrCodeInternal:
				// Transient or configuration trouble on the server side:
				// keep the working driver and retry later.
				b.addMetric(func(m *Metrics) { m.RenewFailures++ })
				b.logf("drivolution: renewal rejected (%v), keeping driver", pe)
				return pe
			}
			// DRIVOLUTION_ERROR: the driver is revoked with no
			// replacement. Apply the current expiration policy (Table 4's
			// REVOKE branch).
			b.logf("drivolution: lease %d revoked: %v", leaseID, pe)
			b.revokeCurrent(pe)
			return pe
		}
		// Server unreachable: keep the current driver and retry later
		// (paper §4.1.3: "the bootloader keeps its current implementation
		// until the Drivolution server is restarted").
		b.addMetric(func(m *Metrics) { m.RenewFailures++ })
		b.logf("drivolution: renewal failed (server unreachable), keeping driver: %v", err)
		return err
	}

	if !offer.HasDriver {
		// RENEW: same driver, new lease term.
		b.mu.Lock()
		if b.cur == cur {
			cur.expiresAt = time.Now().Add(offer.LeaseTime)
			cur.leaseTime = offer.LeaseTime
			cur.renewPol = offer.RenewPolicy
			cur.expirePol = offer.ExpirationPolicy
			cur.serverAddr = addr
		}
		b.mu.Unlock()
		b.addMetric(func(m *Metrics) { m.Renewals++ })
		return nil
	}

	// UPGRADE: load the new driver, route new connections to it, and
	// transition existing connections per the expiration policy.
	newLD, err := b.install(offer, blob, addr)
	if err != nil {
		b.logf("drivolution: upgrade install failed, keeping old driver: %v", err)
		return err
	}
	b.mu.Lock()
	if b.cur != cur { // concurrent swap; drop our work
		b.mu.Unlock()
		return nil
	}
	b.cur = newLD
	b.mu.Unlock()
	b.addMetric(func(m *Metrics) { m.Upgrades++ })
	b.logf("drivolution: upgraded driver %s -> %s (policy %s)",
		cur.drv.Version(), newLD.drv.Version(), offer.ExpirationPolicy)

	// "unload_old_driver" once its connections are transitioned.
	cur.transition(b, offer.ExpirationPolicy)
	return nil
}

// rebootstrap acquires a brand-new lease from addr when the old lease is
// unknown there. If the offered driver is content-identical to the
// running one, only the lease bookkeeping changes; otherwise the swap
// follows the offered expiration policy like any upgrade.
func (b *Bootloader) rebootstrap(addr, database string, cur *loadedDriver, checksum string) error {
	offer, blob, addr, err := b.fetch(addr, database, 0, checksum)
	if err != nil {
		var pe *ProtocolError
		if errors.As(err, &pe) {
			b.revokeCurrent(pe)
		}
		return err
	}
	if offer.HasDriver && offer.DriverChecksum != checksum {
		newLD, err := b.install(offer, blob, addr)
		if err != nil {
			return err
		}
		b.mu.Lock()
		if b.cur != cur {
			b.mu.Unlock()
			return nil
		}
		b.cur = newLD
		b.mu.Unlock()
		b.addMetric(func(m *Metrics) { m.Upgrades++ })
		cur.transition(b, offer.ExpirationPolicy)
		return nil
	}
	// Same content: adopt the fresh lease in place.
	b.mu.Lock()
	if b.cur == cur {
		cur.leaseID = offer.LeaseID
		cur.leaseTime = offer.LeaseTime
		cur.expiresAt = time.Now().Add(offer.LeaseTime)
		cur.renewPol = offer.RenewPolicy
		cur.expirePol = offer.ExpirationPolicy
		cur.serverAddr = addr
	}
	b.mu.Unlock()
	b.addMetric(func(m *Metrics) { m.Renewals++ })
	return nil
}

// revokeCurrent applies the REVOKE branch: block new connections and
// transition existing ones per the current expiration policy.
func (b *Bootloader) revokeCurrent(cause error) {
	b.mu.Lock()
	cur := b.cur
	var pol ExpirationPolicy
	if cur != nil {
		pol = cur.expirePol
	}
	b.cur = nil
	b.revoked = true
	b.revokeErr = errors.Join(ErrNoDriverAvailable, cause)
	b.mu.Unlock()
	if cur == nil {
		return
	}
	b.addMetric(func(m *Metrics) { m.Revocations++ })
	cur.transition(b, pol)
}

// pushLoop maintains the dedicated update channel (§3.2). A NOTIFY wakes
// the renew loop immediately. Re-subscription after failures follows the
// shared jittered backoff so a restarting server is not met by a
// lockstep subscriber storm.
func (b *Bootloader) pushLoop(database string) {
	defer b.wg.Done()
	bo := b.newLoopBackoff()
	for {
		select {
		case <-b.stopCh:
			return
		default:
		}
		b.mu.Lock()
		var addr string
		if b.cur != nil {
			addr = b.cur.serverAddr
		} else if len(b.servers) > 0 {
			addr = b.servers[0]
		}
		b.mu.Unlock()
		if addr == "" {
			if !bo.Sleep(b.stopCh) {
				return
			}
			continue
		}
		conn, err := b.dialServer(addr)
		if err != nil {
			if !bo.Sleep(b.stopCh) {
				return
			}
			continue
		}
		sub := subscribeMsg{Database: database, API: b.api.Name}
		if err := conn.Send(msgSubscribe, sub.encode()); err != nil {
			conn.Close()
			if !bo.Sleep(b.stopCh) {
				return
			}
			continue
		}
		// Channel is up: the next failure starts the schedule over.
		bo.Reset()
		// Reader: each notify triggers an immediate renewal.
		closed := make(chan struct{})
		go func() {
			<-b.stopCh
			select {
			case <-closed:
			default:
				conn.Close()
			}
		}()
		for {
			f, err := conn.Recv()
			if err != nil {
				close(closed)
				conn.Close()
				break
			}
			if f.Type == msgNotify {
				select {
				case b.wakeCh <- struct{}{}:
				default:
				}
			}
		}
		if !bo.Sleep(b.stopCh) {
			return
		}
	}
}

// ReleaseLease gives the lease back to the server (license mode,
// §5.4.2: "The bootloader can notify the Drivolution server when the
// driver is unloaded to give back its lease").
func (b *Bootloader) ReleaseLease() error {
	b.mu.Lock()
	cur := b.cur
	var serverAddr string
	var leaseID uint64
	if cur != nil {
		serverAddr, leaseID = cur.serverAddr, cur.leaseID
	}
	b.mu.Unlock()
	if cur == nil {
		return ErrNoDriverAvailable
	}
	c, err := b.dialClient(serverAddr)
	if err != nil {
		return err
	}
	defer c.Close()
	return c.Release(leaseID)
}
