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
// Table 2 transfer_method restriction before any lease is touched.
//
// A renewal answers from the cached catalog without reading the
// store's versions first (renewCached); everything else matches
// against a catalog validated before it acts.
func (s *Server) grant(req Request, isTLS bool) (Offer, *ProtocolError) {
	if req.LeaseID != 0 && !s.catStale.Load() {
		if cat := s.cat.Load(); cat != nil {
			return s.renewCached(cat, req, isTLS)
		}
	}
	g, perr := s.match(req)
	return s.grantMatched(req, isTLS, g, perr, false)
}

// renewCached answers a renewal from the cached catalog cat. Only the
// Table 4 no-change keep is speculative: it runs its guarded UPDATE
// first and checks cat afterwards, against the table versions read
// right after that UPDATE executed (carried on its result, or read
// from the store when the result has none). Versions only grow, so
// equal versions prove no catalog write completed between cat's load
// and the UPDATE — a stronger check than a probe before the write,
// which proves cat current only at the probe. When they differ, the
// renewal is answered again from the fresh catalog, exactly as a
// renewal that validated first would have been (renewed tells the
// redo that the row already counts this renewal). Every other answer —
// upgrade, revoke, error, redirect — validates cat before it acts,
// and reuses the match when cat proves current.
func (s *Server) renewCached(cat *catalog, req Request, isTLS bool) (Offer, *ProtocolError) {
	g, perr := s.matchCatalog(cat, req)
	var fresh *catalog
	var ferr *ProtocolError
	speculated, renewed := false, false
	if perr == nil && keepsDriver(req, g) && (g.transfer != TransferTLS || isTLS) &&
		(s.route == nil || s.route(g.driverID, req.ClientID).Local) {
		g.leaseTime = s.jitterLease(g.leaseTime)
		res, err := s.extendLease(req.LeaseID, g, s.clock().Add(g.leaseTime), false)
		if err != nil {
			return Offer{}, &ProtocolError{Code: ErrCodeInternal, Message: err.Error()}
		}
		if s.catalogHeld(cat, res) {
			return s.keptOffer(req, g, res)
		}
		// The versions already moved: reload without probing first.
		speculated, renewed = true, res.Affected > 0
		s.renewRedos.Add(1)
		fresh, ferr = s.reloadCatalog()
	} else {
		fresh, ferr = s.catalogSnapshot()
	}
	switch {
	case ferr != nil:
		g, perr = nil, ferr
	case fresh != cat || speculated:
		g, perr = s.matchOn(fresh, req)
	}
	return s.grantMatched(req, isTLS, g, perr, renewed)
}

// catalogHeld reports whether cat was still current when the statement
// that produced res executed: against the versions res carries, or,
// when it carries none, against the store's versions read now.
func (s *Server) catalogHeld(cat *catalog, res *sqlmini.Result) bool {
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

// grantMatched is grant once matchmaking has answered (g, or perr):
// the Table 2 transfer restriction, cluster shard routing and lease
// jitter, then the lease row. renewed is renewLease's.
func (s *Server) grantMatched(req Request, isTLS bool, g *grantInfo, perr *ProtocolError, renewed bool) (Offer, *ProtocolError) {
	if perr == nil && g.transfer == TransferTLS && !isTLS {
		return Offer{}, &ProtocolError{Code: ErrCodeTransfer,
			Message: "driver requires the TLS transfer channel; reconnect over TLS"}
	}
	if perr == nil && s.route != nil {
		// Cluster shard routing: the match succeeded, so the shard key
		// (driver, client) is known — a member that does not own the
		// shard redirects instead of granting, keeping exactly one
		// grantor per shard across the fleet.
		if rt := s.route(g.driverID, req.ClientID); !rt.Local {
			return Offer{}, &ProtocolError{Code: ErrCodeInternal,
				Message:  "shard owned by " + rt.Server,
				redirect: &Redirect{Addr: rt.Addr, Server: rt.Server}}
		}
	}
	if perr == nil {
		g.leaseTime = s.jitterLease(g.leaseTime)
	}

	if req.LeaseID != 0 {
		return s.renewLease(req, g, perr, renewed)
	}
	if perr != nil {
		return Offer{}, perr
	}

	leaseID, err := s.newLease(req, g)
	if err != nil {
		return Offer{}, &ProtocolError{Code: ErrCodeInternal, Message: err.Error()}
	}
	s.leasesGranted.Add(1)
	// The clock is re-read after the INSERT, so the recorded expiry is
	// an upper bound on the lease row's — the sweep never reclaims a
	// staged blob before its lease really expired.
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
	}, nil
}

// renewNoChangeSQL extends a live lease in one guarded statement; the
// released = FALSE predicate doubles as the existence check, so the
// no-change renewal path runs a single store statement.
const renewNoChangeSQL = `UPDATE ` + LeasesTable + `
	SET expires_at = $exp, renewals = renewals + 1, driver_id = $drv
	WHERE lease_id = $id AND released = FALSE`

// renewRedoSQL is renewNoChangeSQL for a renewal answered again after
// its speculative keep proved stale (renewCached): the keep's UPDATE
// already counted it, so the redo writes the fresh terms only.
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

// extendLease runs the guarded renewal UPDATE for lease id at g's
// terms, expiring at exp: renewNoChangeSQL, or renewRedoSQL when the
// row already counts this renewal.
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

// renewLease handles the Table 4 server side: "if (driver still valid)
// send OFFER; else if (new driver available) send OFFER + FILE_DATA;
// else send DRIVOLUTION_ERROR". It decides and stages; handleRequest
// sends, with the FILE_DATA right behind the OFFER when the connection
// declared capFilePush. renewed says the lease row already counts this
// renewal (a stale speculative keep, see renewCached), so the row is
// written as if it had not.
func (s *Server) renewLease(req Request, g *grantInfo, matchErr *ProtocolError, renewed bool) (Offer, *ProtocolError) {
	// Fast path: the renewal-no-change branch. The client proved (by
	// checksum) that it runs exactly the matched content, so no lease
	// fields need to be read back — one guarded UPDATE extends the
	// lease or reports it unknown/released.
	if matchErr == nil && keepsDriver(req, g) {
		res, err := s.extendLease(req.LeaseID, g, s.clock().Add(g.leaseTime), renewed)
		if err != nil {
			return Offer{}, &ProtocolError{Code: ErrCodeInternal, Message: err.Error()}
		}
		return s.keptOffer(req, g, res)
	}

	lease, ok, err := s.leaseByID(req.LeaseID)
	if err != nil {
		return Offer{}, &ProtocolError{Code: ErrCodeInternal, Message: err.Error()}
	}
	if !ok || lease.Released {
		return Offer{}, &ProtocolError{Code: ErrCodeNoLease,
			Message: fmt.Sprintf("lease %d unknown or released", req.LeaseID)}
	}
	if matchErr != nil {
		if matchErr.Code == ErrCodeNoDriver {
			// The driver the client runs was retired and nothing replaces
			// it: revoke (paper §3.1.2 "when the lease has expired, but no
			// new driver is available ... a DRIVOLUTION_ERROR is sent").
			s.revokeLease(lease.LeaseID, renewed)
			return Offer{}, &ProtocolError{Code: ErrCodeRevoked,
				Message: "no driver available for renewal: " + matchErr.Message}
		}
		return Offer{}, matchErr
	}
	if g.renew == RenewRevoke {
		s.revokeLease(lease.LeaseID, renewed)
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
type pendingTransfer struct {
	blob      []byte
	expiresAt time.Time
}

func (s *Server) stageTransfer(leaseID uint64, blob []byte, expiresAt time.Time) {
	s.pendingMu.Lock()
	s.pending[leaseID] = pendingTransfer{blob: blob, expiresAt: expiresAt}
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

// newLease inserts a lease row and returns its id. When several servers
// share one store (replicated embedded servers, Figure 6), concurrent
// allocations can collide on the primary key; colliding inserts retry
// with a fresh id.
func (s *Server) newLease(req Request, g *grantInfo) (uint64, error) {
	now := s.clock()
	for attempt := 0; attempt < 16; attempt++ {
		s.idMu.Lock()
		if err := s.loadIDsLocked(); err != nil {
			s.idMu.Unlock()
			return 0, err
		}
		s.nextLease = nextStridedID(s.nextLease, s.idOffset, s.idStride)
		id := s.nextLease
		s.idMu.Unlock()

		_, err := s.exec(newLeaseSQL, sqlmini.Args{
			"id":      int64(id),
			"drv":     g.driverID,
			"db":      nullableStr(req.Database),
			"user":    nullableStr(req.User),
			"client":  nullableStr(req.ClientID),
			"granted": now,
			"exp":     now.Add(g.leaseTime),
		})
		if err == nil {
			return id, nil
		}
		if !isDuplicateKey(err) {
			return 0, err
		}
		s.idMu.Lock()
		s.idsLoaded = false // another server advanced the sequence
		s.idMu.Unlock()
	}
	return 0, fmt.Errorf("core: lease id allocation kept colliding")
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
// a stale speculative keep's count.
func (s *Server) revokeLease(id uint64, renewed bool) {
	undo := int64(0)
	if renewed {
		undo = 1
	}
	_, _ = s.exec(revokeLeaseSQL, sqlmini.Args{"now": s.clock(), "undo": undo, "id": int64(id)})
	s.dropPending(id)
}

// ReleaseLeaseByID marks a lease released server-side — the admin /
// license-manager path (§5.4.2), as opposed to the bootloader-initiated
// msgRelease.
func (s *Server) ReleaseLeaseByID(id uint64) error {
	res, err := s.exec(`UPDATE `+LeasesTable+`
		SET released = TRUE WHERE lease_id = $id`,
		sqlmini.Args{"id": int64(id)})
	if err != nil {
		return err
	}
	if res.Affected == 0 {
		return fmt.Errorf("core: no lease %d", id)
	}
	s.dropPending(id)
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
// versions count only drivers and driver_permission. A lease released before
// its term ends keeps its row until the term is over. $now is bound,
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
	s.pendingMu.Lock()
	for id, p := range s.pending {
		if !p.expiresAt.After(now) {
			delete(s.pending, id)
		}
	}
	s.shrinkPendingLocked()
	s.pendingMu.Unlock()
	return rs[0].Affected, nil
}

// leaseByID loads one lease row.
func (s *Server) leaseByID(id uint64) (Lease, bool, error) {
	res, err := s.exec(`SELECT lease_id, driver_id, database, user,
		client_id, granted_at, expires_at, released, renewals
		FROM `+LeasesTable+` WHERE lease_id = $id`,
		sqlmini.Args{"id": int64(id)})
	if err != nil {
		return Lease{}, false, err
	}
	if len(res.Rows) == 0 {
		return Lease{}, false, nil
	}
	idx := colIndex(res.Cols)
	row := res.Rows[0]
	l := Lease{
		LeaseID:   uint64(row[idx["lease_id"]].Int()),
		DriverID:  row[idx["driver_id"]].Int(),
		Database:  row[idx["database"]].Str(),
		User:      row[idx["user"]].Str(),
		ClientID:  row[idx["client_id"]].Str(),
		GrantedAt: row[idx["granted_at"]].Time(),
		ExpiresAt: row[idx["expires_at"]].Time(),
		Released:  row[idx["released"]].Bool(),
		Renewals:  int(row[idx["renewals"]].Int()),
	}
	return l, true, nil
}

// Leases returns all lease rows (admin/experiments).
func (s *Server) Leases() ([]Lease, error) {
	//lint:scan-ok admin/experiment listing: whole-table read is the point
	res, err := s.exec(`SELECT lease_id, driver_id, database, user,
		client_id, granted_at, expires_at, released, renewals
		FROM ` + LeasesTable + ` ORDER BY lease_id`)
	if err != nil {
		return nil, err
	}
	idx := colIndex(res.Cols)
	out := make([]Lease, 0, len(res.Rows))
	for _, row := range res.Rows {
		out = append(out, Lease{
			LeaseID:   uint64(row[idx["lease_id"]].Int()),
			DriverID:  row[idx["driver_id"]].Int(),
			Database:  row[idx["database"]].Str(),
			User:      row[idx["user"]].Str(),
			ClientID:  row[idx["client_id"]].Str(),
			GrantedAt: row[idx["granted_at"]].Time(),
			ExpiresAt: row[idx["expires_at"]].Time(),
			Released:  row[idx["released"]].Bool(),
			Renewals:  int(row[idx["renewals"]].Int()),
		})
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
