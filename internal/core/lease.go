package core

import (
	"errors"
	"fmt"
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
func (s *Server) grant(req Request, isTLS bool) (Offer, *ProtocolError) {
	g, perr := s.match(req)
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
		return s.renewLease(req, g, perr)
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

// renewLease handles the Table 4 server side: "if (driver still valid)
// send OFFER; else if (new driver available) send OFFER + FILE_DATA;
// else send DRIVOLUTION_ERROR". It decides and stages; handleRequest
// sends, with the FILE_DATA right behind the OFFER when the connection
// declared capFilePush.
func (s *Server) renewLease(req Request, g *grantInfo, matchErr *ProtocolError) (Offer, *ProtocolError) {
	// Fast path: the renewal-no-change branch. The client proved (by
	// checksum) that it runs exactly the matched content, so no lease
	// fields need to be read back — one guarded UPDATE extends the
	// lease or reports it unknown/released.
	if matchErr == nil && g.renew != RenewRevoke &&
		req.CurrentChecksum != "" && req.CurrentChecksum == g.checksum {
		res, err := s.exec(renewNoChangeSQL, sqlmini.Args{
			"exp": s.clock().Add(g.leaseTime),
			"drv": g.driverID,
			"id":  int64(req.LeaseID),
		})
		if err != nil {
			return Offer{}, &ProtocolError{Code: ErrCodeInternal, Message: err.Error()}
		}
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
			s.expireLease(lease.LeaseID)
			return Offer{}, &ProtocolError{Code: ErrCodeRevoked,
				Message: "no driver available for renewal: " + matchErr.Message}
		}
		return Offer{}, matchErr
	}
	if g.renew == RenewRevoke {
		s.expireLease(lease.LeaseID)
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
	res, err := s.exec(renewNoChangeSQL,
		sqlmini.Args{
			"exp": now.Add(g.leaseTime),
			"drv": g.driverID,
			"id":  int64(lease.LeaseID),
		})
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
	s.pendingMu.Unlock()
}

func (s *Server) dropPending(leaseID uint64) {
	s.pendingMu.Lock()
	delete(s.pending, leaseID)
	s.pendingMu.Unlock()
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

func (s *Server) expireLease(id uint64) {
	_, _ = s.exec(`UPDATE `+LeasesTable+` SET released = TRUE WHERE lease_id = $id`,
		sqlmini.Args{"id": int64(id)})
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
// planner seeks the expired prefix of the ordered expires_at index
// instead of scanning the lease log — at steady state the sweep touches
// only the handful of rows that actually expired.
// TestHotStatementsPlanIndexed pins the range plan;
// BenchmarkExpirySweepAt{100,10000}Leases tracks flatness.
const reapExpiredSQL = `UPDATE ` + LeasesTable + `
	SET released = TRUE WHERE released = FALSE AND expires_at <= $now`

// purgeReapedSQL is the lease log's retention rule: a released lease
// whose term is over is deleted. It runs right after reapExpiredSQL in
// the same batch, so a row never outlives the sweep that expires it,
// and it seeks the same expired prefix of the expires_at index.
// Nothing reads such a row: licenseUsageSQL and driverLeaseFreeSQL both
// filter expires_at > now(), a renewal answers "unknown or released"
// whether the row is released or gone, and the catalog's table
// versions count only drivers and driver_permission. A lease released before
// its term ends keeps its row until the term is over. $now is bound,
// never now(), so replicas that replay the statement delete the same
// rows. TestHotStatementsPlanIndexed pins the range plan.
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
