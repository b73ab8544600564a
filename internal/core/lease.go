package core

import (
	"errors"
	"fmt"
	"maps"
	"strings"
	"time"

	"repro/internal/sqlmini"
)

// grant resolves a request into an Offer, creating or renewing the lease
// row and staging the driver blob for the transfer — fetched with
// FILE_REQUEST after a bootstrap, pushed behind the OFFER after an
// upgrade renewal to a client that reads pushes (handleRequest). This
// is the server side of the paper's Table 3 (new lease) and Table 4
// (renewal) flows.
// isTLS reports the requesting connection's channel, enforcing the
// Table 2 transfer_method restriction before the first lease statement
// on the catalog in hand. A redo (below) can still refuse afterwards:
// a bootstrap's new row is then released, while a no-change keep's
// speculative UPDATE stays written.
//
// One rule covers every request that touches its lease row: it acts on
// the cached catalog, then checks that catalog against the table
// versions read right after its first statement executed
// (catalogHeld) — a bootstrap's INSERT, a no-change renewal's guarded
// UPDATE, any other renewal's lease SELECT. Versions only grow, so
// equal versions prove no catalog write completed between the
// catalog's load and that statement: a stronger check than a probe
// before it, which proves the catalog current only at the probe. When
// they moved, the request is answered again from the reloaded catalog
// (redo). An answer that touches no lease row (refusal) has no
// statement to check its catalog, so it validates the catalog first,
// and so does every request while no catalog is cached or after the
// server's own admin write (catStale).
func (s *Server) grant(req Request, isTLS bool) (Offer, *ProtocolError) {
	var perr *ProtocolError
	cat := s.cat.Load()
	validated := cat == nil || s.catStale.Load()
	if validated {
		cat, perr = s.catalogSnapshot()
	}
	var g grantInfo
	if perr == nil {
		g, perr = s.matchOn(cat, req, req.LeaseID)
	}
	refusal := s.refusal(req, isTLS, &g, perr)
	if refusal != nil && !validated {
		fresh, ferr := s.catalogSnapshot()
		switch {
		case ferr != nil:
			g, perr = grantInfo{}, ferr
		case fresh != cat:
			cat = fresh
			g, perr = s.matchOn(fresh, req, req.LeaseID)
		}
		refusal = s.refusal(req, isTLS, &g, perr)
	}
	if refusal != nil {
		return Offer{}, refusal
	}
	if perr == nil {
		g.leaseTime = s.jitterLease(g.leaseTime)
	}
	if req.LeaseID == 0 {
		return s.bootstrap(cat, req, isTLS, &g)
	}
	return s.renew(cat, req, isTLS, &g, perr)
}

// refusal is the answer a matched request gets without touching a
// lease row, or nil when it goes on to its row: a bootstrap's
// matchmaking error, the Table 2 transfer restriction, or a cluster
// redirect. A renewal's matchmaking error is answered once its lease
// row is read (renewRead).
func (s *Server) refusal(req Request, isTLS bool, g *grantInfo, perr *ProtocolError) *ProtocolError {
	if perr != nil {
		if req.LeaseID == 0 {
			return perr
		}
		return nil
	}
	if g.transfer == TransferTLS && !isTLS {
		return &ProtocolError{Code: ErrCodeTransfer,
			Message: "driver requires the TLS transfer channel; reconnect over TLS"}
	}
	if s.route != nil {
		// Cluster shard routing: the match succeeded, so the shard key
		// (driver, client) is known — a member that does not own the
		// shard redirects instead of granting, keeping exactly one
		// grantor per shard across the fleet.
		if rt := s.route(g.driverID, req.ClientID); !rt.Local {
			return &ProtocolError{Code: ErrCodeInternal,
				Message:  "shard owned by " + rt.Server,
				redirect: &Redirect{Addr: rt.Addr, Server: rt.Server}}
		}
	}
	return nil
}

// redo matches req again after the catalog its first statement acted
// on proved stale: it reloads the catalog (one version read, no probe
// first) and matches on the fresh one. refusal is the fresh answer when
// it touches no lease row; otherwise g carries jittered terms. own is
// as for matchOn.
func (s *Server) redo(req Request, isTLS bool, own uint64) (g grantInfo, perr, refusal *ProtocolError) {
	s.redos.Add(1)
	fresh, perr := s.reloadCatalog()
	if perr == nil {
		g, perr = s.matchOn(fresh, req, own)
	}
	if refusal = s.refusal(req, isTLS, &g, perr); refusal == nil && perr == nil {
		g.leaseTime = s.jitterLease(g.leaseTime)
	}
	return g, perr, refusal
}

// bootstrap grants a new lease (Table 3) on catalog cat: the lease
// INSERT first, then the check. When cat proved stale, the fresh match
// rewrites the new row to its terms (renewRedoSQL, so the row counts no
// renewal); when the fresh answer is an error or a redirect, the row is
// released and that answer given. A stale catalog therefore never
// leaves a live lease or a held license seat behind.
func (s *Server) bootstrap(cat *catalog, req Request, isTLS bool, g *grantInfo) (Offer, *ProtocolError) {
	id, res, err := s.newLease(req, g)
	if err != nil {
		return Offer{}, &ProtocolError{Code: ErrCodeInternal, Message: err.Error()}
	}
	if s.catalogHeld(cat, res) {
		return s.grantedOffer(id, g), nil
	}
	// The new row is the client's own lease: the fresh match's license
	// check must not count it against the client. Every answer to a
	// bootstrap other than a grant is a refusal.
	fresh, _, perr := s.redo(req, isTLS, id)
	g = &fresh
	if perr == nil {
		res, err = s.extendLease(id, g, s.clock().Add(g.leaseTime), true)
		if err == nil && res.Affected == 0 {
			err = fmt.Errorf("lease %d released before its grant completed", id)
		}
		if err == nil {
			return s.grantedOffer(id, g), nil
		}
		perr = &ProtocolError{Code: ErrCodeInternal, Message: err.Error()}
	}
	if _, err := s.releaseLease(id); err != nil {
		return Offer{}, &ProtocolError{Code: ErrCodeInternal, Message: err.Error()}
	}
	return Offer{}, perr
}

// renew renews a lease (Table 4) on catalog cat. A no-change keep runs
// its guarded UPDATE first; every other renewal — upgrade, revoke, a
// matchmaking error — reads its lease row first. That statement's
// versions check cat. When cat proved stale, the renewal is answered
// again from the fresh catalog, exactly as a renewal on that catalog
// would have been: a stale keep reads the row too, and renewed tells
// renewRead that the row already counts this renewal.
func (s *Server) renew(cat *catalog, req Request, isTLS bool, g *grantInfo, perr *ProtocolError) (Offer, *ProtocolError) {
	stale, renewed := false, false
	if perr == nil && keepsDriver(req, g) {
		res, err := s.extendLease(req.LeaseID, g, s.clock().Add(g.leaseTime), false)
		if err != nil {
			return Offer{}, &ProtocolError{Code: ErrCodeInternal, Message: err.Error()}
		}
		if s.catalogHeld(cat, res) {
			return s.keptOffer(req, g, res)
		}
		stale, renewed = true, res.Affected > 0
	}
	lease, res, err := s.leaseByID(req.LeaseID)
	if err != nil {
		return Offer{}, &ProtocolError{Code: ErrCodeInternal, Message: err.Error()}
	}
	if stale || !s.catalogHeld(cat, res) {
		fresh, ferr, refusal := s.redo(req, isTLS, req.LeaseID)
		if refusal != nil {
			return Offer{}, refusal
		}
		g, perr = &fresh, ferr
	}
	return s.renewRead(req, lease, g, perr, renewed)
}

// catalogHeld reports whether cat was still current when the statement
// that produced res executed: against the versions res carries, or,
// when it carries none, against the store's versions read now. A nil
// cat — the SQL path of a store that reports no versions — matched
// against the store itself, and has nothing to check.
func (s *Server) catalogHeld(cat *catalog, res *sqlmini.Result) bool {
	if cat == nil {
		return true
	}
	if v := res.Versions; len(v) == 2 {
		return cat.current(v[0], v[1])
	}
	drv, perm, ok := s.store.Versions()
	return ok && cat.current(drv, perm)
}

// keepsDriver reports Table 4's "driver still valid" fast case: the
// client proved (by checksum) that it runs exactly the matched
// content, under a policy that does not revoke it.
func keepsDriver(req Request, g *grantInfo) bool {
	return g.renew != RenewRevoke && req.CurrentChecksum != "" && req.CurrentChecksum == g.checksum
}

// grantedOffer answers a bootstrap whose lease row leaseID holds g's
// terms, staging the driver blob for the transfer.
func (s *Server) grantedOffer(leaseID uint64, g *grantInfo) Offer {
	s.leasesGranted.Add(1)
	// The clock is re-read after the lease write, so the recorded
	// expiry is an upper bound on the lease row's — the sweep never
	// reclaims a staged blob before its lease really expired.
	s.stageTransfer(leaseID, g.blob, s.clock().Add(g.leaseTime))
	return Offer{
		LeaseID:          leaseID,
		LeaseTime:        g.leaseTime,
		RenewPolicy:      g.renew,
		ExpirationPolicy: g.expiration,
		TransferMethod:   g.transfer,
		HasDriver:        true,
		DriverChecksum:   g.checksum,
		Format:           g.format,
		Size:             uint32(len(g.blob)),
		ServerName:       s.name,
	}
}

// renewNoChangeSQL extends a live lease in one guarded statement; the
// released = FALSE predicate doubles as the existence check, so the
// no-change renewal path runs a single store statement.
const renewNoChangeSQL = `UPDATE ` + LeasesTable + `
	SET expires_at = $exp, renewals = renewals + 1, driver_id = $drv
	WHERE lease_id = $id AND released = FALSE`

// renewRedoSQL is renewNoChangeSQL for a row that must not count a
// renewal: a renewal answered again after its speculative keep proved
// stale, whose keep already counted it (renew), and a bootstrap whose
// new row is rewritten to the fresh terms (bootstrap).
const renewRedoSQL = `UPDATE ` + LeasesTable + `
	SET expires_at = $exp, driver_id = $drv
	WHERE lease_id = $id AND released = FALSE`

// revokeLeaseSQL ends a lease the server revokes (Table 4's
// DRIVOLUTION_ERROR branch): released, its term over now. $undo is 1
// when a stale speculative keep already counted the renewal, which the
// revocation takes back, so the row reads as if the renewal had
// revoked from the start.
const revokeLeaseSQL = `UPDATE ` + LeasesTable + `
	SET released = TRUE, expires_at = $now, renewals = renewals - $undo
	WHERE lease_id = $id`

// releaseLeaseSQL gives a lease back (§5.4.2: "the bootloader can
// notify the Drivolution server when the driver is unloaded to give
// back its lease"), whether the bootloader sends RELEASE or an
// administrator or license manager calls ReleaseLeaseByID: released,
// and, as a revocation does, its term over now, so the next sweep's
// purge deletes the row. TestHotStatementsPlanIndexed pins it as a
// primary-key point update.
const releaseLeaseSQL = `UPDATE ` + LeasesTable + `
	SET released = TRUE, expires_at = $now
	WHERE lease_id = $id`

// extendLease runs the guarded renewal UPDATE for lease id at g's
// terms, expiring at exp: renewNoChangeSQL, or renewRedoSQL when the
// row must not count a renewal.
func (s *Server) extendLease(id uint64, g *grantInfo, exp time.Time, renewed bool) (*sqlmini.Result, error) {
	sql := renewNoChangeSQL
	if renewed {
		sql = renewRedoSQL
	}
	return s.exec(sql, sqlmini.Args{"exp": exp, "drv": g.driverID, "id": int64(id)})
}

// keptOffer answers a renewal whose guarded UPDATE (res) kept the
// client's driver: Table 4's OFFER without a data file, or NO_LEASE
// when the lease is unknown or released.
func (s *Server) keptOffer(req Request, g *grantInfo, res *sqlmini.Result) (Offer, *ProtocolError) {
	if res.Affected == 0 {
		return Offer{}, &ProtocolError{Code: ErrCodeNoLease,
			Message: fmt.Sprintf("lease %d unknown or released", req.LeaseID)}
	}
	// The client's checksum acknowledges any staged transfer.
	s.dropPending(req.LeaseID)
	s.renewKeeps.Add(1)
	return Offer{
		LeaseID:          req.LeaseID,
		LeaseTime:        g.leaseTime,
		RenewPolicy:      g.renew,
		ExpirationPolicy: g.expiration,
		TransferMethod:   g.transfer,
		HasDriver:        false,
		DriverChecksum:   g.checksum,
		Format:           g.format,
		ServerName:       s.name,
	}, nil
}

// renewRead handles the Table 4 server side once the lease row is read
// (a zero Lease when there is none): "if (driver still valid) send
// OFFER; else if (new driver available) send OFFER + FILE_DATA; else
// send DRIVOLUTION_ERROR". It decides and stages; handleRequest sends,
// with the FILE_DATA right behind the OFFER when the connection
// declared capFilePush. renewed says the lease row already counts this
// renewal (a stale speculative keep, see renew), so the row is written
// as if it had not.
func (s *Server) renewRead(req Request, lease Lease, g *grantInfo, matchErr *ProtocolError, renewed bool) (Offer, *ProtocolError) {
	if lease.LeaseID == 0 || lease.Released {
		return Offer{}, &ProtocolError{Code: ErrCodeNoLease,
			Message: fmt.Sprintf("lease %d unknown or released", req.LeaseID)}
	}
	if matchErr != nil {
		if matchErr.Code == ErrCodeNoDriver {
			// The driver the client runs was retired and nothing replaces
			// it: revoke (paper §3.1.2 "when the lease has expired, but no
			// new driver is available ... a DRIVOLUTION_ERROR is sent").
			if err := s.revokeLease(lease.LeaseID, renewed); err != nil {
				return Offer{}, &ProtocolError{Code: ErrCodeInternal, Message: err.Error()}
			}
			return Offer{}, &ProtocolError{Code: ErrCodeRevoked,
				Message: "no driver available for renewal: " + matchErr.Message}
		}
		return Offer{}, matchErr
	}
	if g.renew == RenewRevoke {
		if err := s.revokeLease(lease.LeaseID, renewed); err != nil {
			return Offer{}, &ProtocolError{Code: ErrCodeInternal, Message: err.Error()}
		}
		return Offer{}, &ProtocolError{Code: ErrCodeRevoked,
			Message: fmt.Sprintf("driver %d revoked by policy", lease.DriverID)}
	}

	// "Driver still valid" means the matched content equals what the
	// client already runs; RenewKeep pins the client to its current
	// driver even if a newer one exists.
	sameContent := req.CurrentChecksum != "" && req.CurrentChecksum == g.checksum
	keep := sameContent || (g.renew == RenewKeep && lease.DriverID == g.driverID)

	// Same guarded statement as the fast path (one shared prepared
	// handle): the released = FALSE predicate makes a sweep or release
	// sliding in after the leaseByID read above win — extending a
	// released lease would hand back a live Offer whose license the
	// sweep already freed, and re-stage a blob no sweep would ever
	// drop.
	now := s.clock()
	res, err := s.extendLease(lease.LeaseID, g, now.Add(g.leaseTime), renewed)
	if err != nil {
		return Offer{}, &ProtocolError{Code: ErrCodeInternal, Message: err.Error()}
	}
	if res.Affected == 0 {
		return Offer{}, &ProtocolError{Code: ErrCodeNoLease,
			Message: fmt.Sprintf("lease %d unknown or released", req.LeaseID)}
	}

	offer := Offer{
		LeaseID:          lease.LeaseID,
		LeaseTime:        g.leaseTime,
		RenewPolicy:      g.renew,
		ExpirationPolicy: g.expiration,
		TransferMethod:   g.transfer,
		HasDriver:        !keep,
		DriverChecksum:   g.checksum,
		Format:           g.format,
		ServerName:       s.name,
	}
	if !keep {
		offer.Size = uint32(len(g.blob))
		s.stageTransfer(lease.LeaseID, g.blob, now.Add(g.leaseTime))
		s.renewUpgrades.Add(1)
	} else {
		s.renewKeeps.Add(1)
		// The renewal acknowledges the client runs the matched content:
		// any staged blob from the original transfer (or an earlier
		// upgrade) is no longer needed, so stop pinning it in memory.
		// A renewal that still needs the file (its upgrade transfer was
		// cut) renews with its old checksum and is re-staged above.
		s.dropPending(lease.LeaseID)
	}
	return offer, nil
}

// pendingTransfer is a staged driver blob plus the expiry of the lease
// it was staged for, recorded at staging time. The recorded expiry is
// always current (and an upper bound on the lease's real one): every
// later renewal of the lease either drops the entry or re-stages it
// with the new expiry, so an entry whose recorded expiry has passed
// provably belongs to an expired lease — which is what lets the expiry
// sweep reclaim staged blobs entirely in memory, with no SQL read-back.
// The expiry is kept as Unix nanoseconds, not a time.Time: a 32-byte
// value where the Time would make it 48, in a map that holds one entry
// per client a fleet-wide upgrade has not yet seen renew.
type pendingTransfer struct {
	blob      []byte
	expiresAt int64 // Unix nanoseconds
}

func (s *Server) stageTransfer(leaseID uint64, blob []byte, expiresAt time.Time) {
	s.pendingMu.Lock()
	s.pending[leaseID] = pendingTransfer{blob: blob, expiresAt: expiresAt.UnixNano()}
	s.pendingPeak = max(s.pendingPeak, len(s.pending))
	s.pendingMu.Unlock()
}

func (s *Server) dropPending(leaseID uint64) {
	s.pendingMu.Lock()
	delete(s.pending, leaseID)
	s.shrinkPendingLocked()
	s.pendingMu.Unlock()
}

// shrinkPendingLocked rebuilds the pending map once it holds under a
// quarter of its peak: a Go map keeps the buckets of its largest size,
// so after a fleet-wide upgrade every client has acknowledged, the
// emptied map would go on holding the whole fleet's worth. The rebuild
// copies what is left, so its cost is paid for by the deletes that came
// before it. A map that never held 64 entries is left alone: its
// buckets are not worth an allocation per handful of transfers. Caller
// holds pendingMu.
func (s *Server) shrinkPendingLocked() {
	if s.pendingPeak < 64 || len(s.pending) >= s.pendingPeak/4 {
		return
	}
	m := make(map[uint64]pendingTransfer, len(s.pending))
	maps.Copy(m, s.pending)
	s.pending, s.pendingPeak = m, len(m)
}

// newLeaseSQL is the lease-creation write: a single statement, so the
// operation is one atomic unit on every store (the id-allocation reads
// behind loadIDsLocked run once per server lifetime, as one batch).
const newLeaseSQL = `INSERT INTO ` + LeasesTable + `
	(lease_id, driver_id, database, user, client_id, granted_at,
	 expires_at, released, renewals)
	VALUES ($id, $drv, $db, $user, $client, $granted, $exp, FALSE, 0)`

// newLease inserts a lease row and returns its id and the INSERT's
// result. When several servers share one store (replicated embedded
// servers, Figure 6), concurrent allocations can collide on the primary
// key; colliding inserts retry with a fresh id.
func (s *Server) newLease(req Request, g *grantInfo) (uint64, *sqlmini.Result, error) {
	now := s.clock()
	for attempt := 0; attempt < 16; attempt++ {
		s.idMu.Lock()
		if err := s.loadIDsLocked(); err != nil {
			s.idMu.Unlock()
			return 0, nil, err
		}
		s.nextLease = nextStridedID(s.nextLease, s.idOffset, s.idStride)
		id := s.nextLease
		s.idMu.Unlock()

		res, err := s.exec(newLeaseSQL, sqlmini.Args{
			"id":      int64(id),
			"drv":     g.driverID,
			"db":      nullableStr(req.Database),
			"user":    nullableStr(req.User),
			"client":  nullableStr(req.ClientID),
			"granted": now,
			"exp":     now.Add(g.leaseTime),
		})
		if err == nil {
			return id, res, nil
		}
		if !isDuplicateKey(err) {
			return 0, nil, err
		}
		s.idMu.Lock()
		s.idsLoaded = false // another server advanced the sequence
		s.idMu.Unlock()
	}
	return 0, nil, fmt.Errorf("core: lease id allocation kept colliding")
}

// nextStridedID returns the smallest id > cur with id ≡ offset (mod
// stride). With stride ≤ 1 (no cluster striding configured) it is a
// plain increment. Cluster members share one replicated id space; the
// residue classes keep concurrent allocations collision-free without
// coordination.
func nextStridedID(cur, offset, stride uint64) uint64 {
	if stride <= 1 {
		return cur + 1
	}
	next := cur - cur%stride + offset%stride
	if next <= cur {
		next += stride
	}
	return next
}

// isDuplicateKey detects a primary-key collision, both for local stores
// (typed error) and external stores (error text over the wire).
func isDuplicateKey(err error) bool {
	if errors.Is(err, sqlmini.ErrDuplicateKey) {
		return true
	}
	return err != nil && strings.Contains(err.Error(), "duplicate primary key")
}

// revokeLease ends a revoked lease (revokeLeaseSQL); renewed takes back
// a stale speculative keep's count. When the write fails the lease
// stays live, so the caller must not answer REVOKED: the client keeps
// its driver and renews again.
func (s *Server) revokeLease(id uint64, renewed bool) error {
	undo := int64(0)
	if renewed {
		undo = 1
	}
	if _, err := s.exec(revokeLeaseSQL, sqlmini.Args{"now": s.clock(), "undo": undo, "id": int64(id)}); err != nil {
		return err
	}
	s.dropPending(id)
	return nil
}

// releaseLease ends lease id (releaseLeaseSQL) and drops any transfer
// staged for it, reporting whether a row matched.
func (s *Server) releaseLease(id uint64) (bool, error) {
	res, err := s.exec(releaseLeaseSQL, sqlmini.Args{"now": s.clock(), "id": int64(id)})
	if err != nil {
		return false, err
	}
	s.dropPending(id)
	return res.Affected > 0, nil
}

// ReleaseLeaseByID releases a lease server-side — the admin /
// license-manager path (§5.4.2), as opposed to the bootloader-initiated
// msgRelease.
func (s *Server) ReleaseLeaseByID(id uint64) error {
	found, err := s.releaseLease(id)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("core: no lease %d", id)
	}
	return nil
}

// reapExpiredSQL is the lease-expiry sweep (§3.2: expired leases free
// their licenses; §5.4.2 builds per-user enforcement on that). The
// `expires_at <= $now` window is its only indexable conjunct, so the
// planner skip-scans the (driver_id, expires_at) index — each driver's
// expired prefix in turn — instead of scanning the lease log: at steady
// state the sweep touches only the handful of rows that actually
// expired, plus one seek per distinct driver.
// TestHotStatementsPlanIndexed pins the skip-scan plan;
// BenchmarkExpirySweepAt{100,10000}Leases tracks flatness and
// BenchmarkExpirySweepAt10000LeasesOver100Drivers the cost per driver.
const reapExpiredSQL = `UPDATE ` + LeasesTable + `
	SET released = TRUE WHERE released = FALSE AND expires_at <= $now`

// purgeReapedSQL is the lease log's retention rule: a released lease
// whose term is over is deleted. It runs right after reapExpiredSQL in
// the same batch, so a row never outlives the sweep that expires it,
// and it skip-scans the same expired prefixes.
// Nothing reads such a row: licenseUsageSQL and driverLeaseFreeSQL both
// filter expires_at > $now, a renewal answers "unknown or released"
// whether the row is released or gone, and the catalog's table
// versions count only drivers and driver_permission. A release or a
// revocation ends the term (releaseLeaseSQL, revokeLeaseSQL), so the
// next sweep deletes that row too. $now is bound,
// never now(), so replicas that replay the statement delete the same
// rows. TestHotStatementsPlanIndexed pins the skip-scan plan.
const purgeReapedSQL = `DELETE FROM ` + LeasesTable + `
	WHERE released = TRUE AND expires_at <= $now`

// ReapExpiredLeases marks every expired, still-unreleased lease as
// released, deletes every released lease whose term is over (those it
// just swept included), and drops any driver blob staged for a swept
// lease, returning how many leases were swept. Expiry is otherwise
// enforced lazily (a renewal of an expired lease re-matches); the
// reaper exists so license-mode capacity frees up without waiting for
// the defaulting client, and so the lease table holds live leases, not
// a log of every lease ever granted.
//
// The whole sweep is TWO statements in ONE batch — one wire round trip
// on external stores — regardless of how many leases exist or expire.
// Deciding which STAGED BLOBS to drop needs no read-back: the pending
// map is server-local state and each entry records its lease's expiry
// at staging time (see pendingTransfer), so reclamation is a pure
// in-memory pass. An entry whose recorded expiry has passed belongs to
// a lease this sweep (or an earlier one, possibly by another server
// sharing the store) releases — terminally dead, since released never
// transitions back to FALSE. An entry re-staged by a concurrent
// upgrade renewal carries that renewal's future expiry and survives;
// pendingMu makes the stage/reap pair atomic per entry.
func (s *Server) ReapExpiredLeases() (int, error) {
	now := s.clock()
	args := []any{sqlmini.Args{"now": now}}
	rs, err := s.store.ExecBatch([]Statement{
		{SQL: reapExpiredSQL, Args: args},
		{SQL: purgeReapedSQL, Args: args},
	})
	if err != nil {
		return 0, err
	}
	cutoff := now.UnixNano()
	s.pendingMu.Lock()
	for id, p := range s.pending {
		if p.expiresAt <= cutoff {
			delete(s.pending, id)
		}
	}
	s.shrinkPendingLocked()
	s.pendingMu.Unlock()
	return rs[0].Affected, nil
}

// leaseSelect reads the columns leaseOf decodes, in its order.
const leaseSelect = `SELECT lease_id, driver_id, database, user,
		client_id, granted_at, expires_at, released, renewals
		FROM ` + LeasesTable

// leaseOf decodes a row of leaseSelect by position.
func leaseOf(row []sqlmini.Value) Lease {
	return Lease{
		LeaseID:   uint64(row[0].Int()),
		DriverID:  row[1].Int(),
		Database:  row[2].Str(),
		User:      row[3].Str(),
		ClientID:  row[4].Str(),
		GrantedAt: row[5].Time(),
		ExpiresAt: row[6].Time(),
		Released:  row[7].Bool(),
		Renewals:  int(row[8].Int()),
	}
}

// leaseByID loads one lease row, a zero Lease when there is none, and
// returns the SELECT's result too, whose versions a renewal checks its
// catalog against.
func (s *Server) leaseByID(id uint64) (Lease, *sqlmini.Result, error) {
	res, err := s.exec(leaseSelect+` WHERE lease_id = $id`, sqlmini.Args{"id": int64(id)})
	if err != nil {
		return Lease{}, nil, err
	}
	if len(res.Rows) == 0 {
		return Lease{}, res, nil
	}
	return leaseOf(res.Rows[0]), res, nil
}

// Leases returns all lease rows (admin/experiments).
func (s *Server) Leases() ([]Lease, error) {
	//lint:scan-ok admin/experiment listing: whole-table read is the point
	res, err := s.exec(leaseSelect + ` ORDER BY lease_id`)
	if err != nil {
		return nil, err
	}
	out := make([]Lease, 0, len(res.Rows))
	for _, row := range res.Rows {
		out = append(out, leaseOf(row))
	}
	return out, nil
}

// loadIDsLocked initializes id allocators from the store — one batch
// (one wire round trip on batch-capable external stores) for all three
// max() reads; caller holds s.idMu.
func (s *Server) loadIDsLocked() error {
	if s.idsLoaded {
		return nil
	}
	rs, err := s.store.ExecBatch([]Statement{
		//lint:scan-ok one-time ID bootstrap: max() over the table at first grant, then cached
		{SQL: "SELECT max(lease_id) FROM " + LeasesTable},
		//lint:scan-ok one-time ID bootstrap: max() over the table at first grant, then cached
		{SQL: "SELECT max(permission_id) FROM " + PermissionTable},
		//lint:scan-ok one-time ID bootstrap: max() over the table at first grant, then cached
		{SQL: "SELECT max(driver_id) FROM " + DriversTable},
	})
	if err != nil {
		return err
	}
	maxOf := func(res *sqlmini.Result) int64 {
		if len(res.Rows) == 0 || res.Rows[0][0].IsNull() {
			return 0
		}
		return res.Rows[0][0].Int()
	}
	s.nextLease = uint64(maxOf(rs[0]))
	s.nextPermID = maxOf(rs[1])
	s.nextDrvID = maxOf(rs[2])
	s.idsLoaded = true
	return nil
}
