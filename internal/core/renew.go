package core

import (
	"errors"
	"time"

	"repro/internal/faultnet"
)

// newLoopBackoff builds the Backoff driving the persistent renewal
// and push loops. It starts at retryInterval (so test cadences stay
// fast) and grows to 16× with jitter, so a fleet cut off from its
// server spreads its reconnection attempts instead of storming back in
// lockstep. It has no attempt or time budget: a bootloader cut off
// from every server keeps serving its driver and keeps retrying
// (§4.1.3) — it never gives up.
func (b *Bootloader) newLoopBackoff() *faultnet.Backoff {
	return faultnet.NewBackoff(faultnet.Policy{Initial: b.retryInterval, Max: 16 * b.retryInterval,
		Factor: 2, Jitter: 0.5})
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
// client-side policy actions. It is the one place the bootloader
// applies an OFFER after its first bootstrap, a recovered lease's
// included.
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

	offer, img, addr, err := b.fetch(serverAddr, database, leaseID, checksum)
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
				if o, img2, served, e2 := b.fetch(alt, database, leaseID, checksum); e2 == nil || errors.As(e2, &pe) {
					offer, img, err, addr = o, img2, e2, served
					break
				}
			}
		}
		if errors.As(err, &pe) && pe.Code == ErrCodeNoLease {
			// The answering server does not know this lease — e.g. a
			// replicated embedded server that took over after its peer
			// died. DHCP-style recovery: request a fresh lease there. The
			// REQUEST carries the running checksum, so an OFFER of the
			// same content is kept below, with no transfer.
			offer, img, addr, err = b.fetch(addr, database, 0, checksum)
		}
		switch {
		case err == nil:
		case !errors.As(err, &pe), pe.Code == ErrCodeTransfer, pe.Code == ErrCodeInternal:
			// Server unreachable, or transient or configuration trouble
			// on its side: keep the current driver and retry later
			// (paper §4.1.3: "the bootloader keeps its current
			// implementation until the Drivolution server is restarted").
			b.addMetric(func(m *Metrics) { m.RenewFailures++ })
			return err
		default:
			// DRIVOLUTION_ERROR: the driver is revoked with no
			// replacement. Apply the current expiration policy (Table 4's
			// REVOKE branch).
			b.revokeCurrent(pe)
			return pe
		}
	}

	if !offer.HasDriver || offer.DriverChecksum == checksum {
		// RENEW: same driver, new lease term (under a fresh lease id
		// after recovery).
		b.mu.Lock()
		if b.cur == cur {
			cur.leaseID = offer.LeaseID
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
	newLD, err := b.install(offer, img, addr)
	if err != nil {
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

	// "unload_old_driver" once its connections are transitioned.
	cur.transition(b, offer.ExpirationPolicy)
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
// the renew loop immediately, and so does every re-subscription: a
// NOTIFY sent while the channel was down reached no one. Re-subscription
// after failures follows the shared jittered backoff so a restarting
// server is not met by a lockstep subscriber storm.
func (b *Bootloader) pushLoop(database string) {
	defer b.wg.Done()
	bo := b.newLoopBackoff()
	for resubscribe := false; ; {
		b.mu.Lock()
		var addr string
		if b.cur != nil {
			addr = b.cur.serverAddr
		} else if len(b.servers) > 0 {
			addr = b.servers[0]
		}
		b.mu.Unlock()
		if addr != "" {
			if c, err := b.dialClient(addr); err == nil {
				if c.Subscribe(database, b.api.Name) == nil {
					// Channel is up: the next failure starts the schedule over.
					bo.Reset()
					if resubscribe {
						b.wake()
					}
					resubscribe = true
					b.listen(c)
				}
				c.Close()
			}
		}
		if !bo.Sleep(b.stopCh) {
			return
		}
	}
}

// listen wakes the renew loop on each NOTIFY c receives until the
// channel fails or the bootloader stops.
func (b *Bootloader) listen(c *LeaseClient) {
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-b.stopCh:
			c.Close()
		case <-done:
		}
	}()
	for c.WaitNotify() == nil {
		b.wake()
	}
}

// wake asks the renew loop for an immediate renewal; a request already
// pending covers this one.
func (b *Bootloader) wake() {
	select {
	case b.wakeCh <- struct{}{}:
	default:
	}
}
