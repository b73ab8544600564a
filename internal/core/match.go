package core

import (
	"fmt"
	"time"

	"repro/internal/driverimg"
	"repro/internal/sqlmini"
)

// grantInfo is the resolved outcome of matchmaking: which driver, under
// which lease terms. blob is the encoded image a transfer would send —
// the catalog entry's (or assembly cache's) own slice, shared and
// read-only; DISCOVER probes and the Table-4 renewal-no-change branch
// carry it without reading it.
type grantInfo struct {
	driverID   int64
	blob       []byte
	checksum   string
	format     string
	leaseTime  time.Duration
	renew      RenewPolicy
	expiration ExpirationPolicy
	transfer   TransferMethod
}

// millis converts a lease_time_in_ms column value.
func millis(ms int64) time.Duration { return time.Duration(ms) * time.Millisecond }

// preferenceSQL is the paper's Sample code 1, adapted to the split
// api/driver version columns of Table 1. The italicized preference
// predicates are the ones dropped by the fallback query.
const preferenceSQL = `SELECT driver_id, api_name, api_version_major,
	api_version_minor, platform, driver_version_major,
	driver_version_minor, driver_version_micro, binary_code, binary_format
FROM ` + DriversTable + `
WHERE api_name LIKE $client_api_name
AND (platform IS NULL OR platform LIKE $client_platform)
AND ($client_api_major IS NULL OR api_version_major IS NULL
     OR api_version_major = $client_api_major)
AND ($client_api_minor IS NULL OR api_version_minor IS NULL
     OR api_version_minor = $client_api_minor)
AND ($client_drv_major IS NULL OR driver_version_major IS NULL
     OR driver_version_major = $client_drv_major)
AND ($client_drv_minor IS NULL OR driver_version_minor IS NULL
     OR driver_version_minor = $client_drv_minor)
AND ($client_drv_micro IS NULL OR driver_version_micro IS NULL
     OR driver_version_micro = $client_drv_micro)
AND ($client_format IS NULL OR binary_format LIKE $client_format)
ORDER BY driver_version_major DESC, driver_version_minor DESC,
	driver_version_micro DESC, driver_id DESC`

// fallbackSQL is the "simple SELECT without preferences" issued when the
// preference query returns nothing (paper §4.1.1).
const fallbackSQL = `SELECT driver_id, api_name, api_version_major,
	api_version_minor, platform, driver_version_major,
	driver_version_minor, driver_version_micro, binary_code, binary_format
FROM ` + DriversTable + `
WHERE api_name LIKE $client_api_name
AND (platform IS NULL OR platform LIKE $client_platform)
ORDER BY driver_version_major DESC, driver_version_minor DESC,
	driver_version_micro DESC, driver_id DESC`

// permissionSQL is the paper's Sample code 2 (the distribution table
// lookup), extended to also return the lease terms the offer needs. The
// paper's date predicate reads
//
//	now() BETWEEN start_date AND end_date
//
// here $now is bound from the server's clock, which the catalog path and
// every lease write judge by too: the store's now() is another machine's
// clock over a ConnStore.
const permissionSQL = `SELECT permission_id, driver_id, driver_options,
	lease_time_in_ms, renew_policy, expiration_policy, transfer_method
FROM ` + PermissionTable + `
WHERE (database IS NULL OR database LIKE $user_database)
AND (user IS NULL OR user LIKE $client_user)
AND (client_ip IS NULL OR client_ip LIKE $client_client_ip)
AND (start_date IS NULL OR end_date IS NULL
     OR $now BETWEEN start_date AND end_date)
ORDER BY permission_id DESC`

const driverByIDSQL = `SELECT driver_id, api_name, api_version_major,
	api_version_minor, platform, driver_version_major,
	driver_version_minor, driver_version_micro, binary_code, binary_format
FROM ` + DriversTable + ` WHERE driver_id = $id`

// match resolves a request to a driver + lease terms, implementing the
// paper's server logic (§4.1.1): consult the permission/distribution
// table first; otherwise match by client preference with a no-preference
// fallback. License mode additionally skips drivers whose lease is held.
//
// When the store can report its table versions, matching runs against
// the in-memory catalog and performs no SQL at all; the SQL path below
// remains for a legacy database that cannot (Figure 2 over a v1
// session).
func (s *Server) match(req Request) (*grantInfo, *ProtocolError) {
	cat, perr := s.catalogSnapshot()
	if perr != nil {
		return nil, perr
	}
	return s.matchOn(cat, req, req.LeaseID)
}

// matchOn matches against a validated catalog, or through SQL when cat
// is nil (the store cannot report versions). own is the lease whose row
// the license-mode check does not count against the client: the
// renewing lease, or a bootstrap's own new row when it is matched
// again (Server.bootstrap).
func (s *Server) matchOn(cat *catalog, req Request, own uint64) (*grantInfo, *ProtocolError) {
	if cat != nil {
		return s.matchCatalog(cat, req, own)
	}
	return s.matchSQL(req, own)
}

// matchSQL is the per-request Sample-code-1/2 path for stores that
// cannot report table versions.
func (s *Server) matchSQL(req Request, own uint64) (*grantInfo, *ProtocolError) {
	// 1. Permission table (Sample code 2).
	//lint:scan-ok paper Sample code 2 verbatim: LIKE/OR/NULL predicates are not indexable; hot path uses the in-memory catalog
	res, err := s.exec(permissionSQL, sqlmini.Args{
		"user_database":    req.Database,
		"client_user":      nullableStr(req.User),
		"client_client_ip": nullableStr(req.ClientID),
		"now":              s.clock(),
	})
	if err != nil {
		return nil, &ProtocolError{Code: ErrCodeInternal, Message: err.Error()}
	}
	idx := colIndex(res.Cols) // one map per result set, not per row
	for _, row := range res.Rows {
		g, ok, perr := s.grantFromPermissionRow(req, own, idx, row)
		if perr != nil {
			return nil, perr
		}
		if ok {
			return g, nil
		}
	}

	// 2. Preference query (Sample code 1) then fallback.
	g, perr := s.matchByPreference(req, own)
	if perr != nil {
		return nil, perr
	}
	return g, nil
}

func colIndex(cols []string) map[string]int {
	idx := make(map[string]int, len(cols))
	for i, c := range cols {
		idx[c] = i
	}
	return idx
}

func (s *Server) grantFromPermissionRow(req Request, own uint64, idx map[string]int, row []sqlmini.Value) (*grantInfo, bool, *ProtocolError) {
	driverID := row[idx["driver_id"]].Int()
	rec, ok, err := s.driverByID(driverID)
	if err != nil {
		return nil, false, &ProtocolError{Code: ErrCodeInternal, Message: err.Error()}
	}
	if !ok || !driverMatchesRequest(rec, req) {
		return nil, false, nil // try the next permission row
	}
	renew := RenewPolicy(row[idx["renew_policy"]].Int())
	if renew == RenewRevoke && req.LeaseID == 0 {
		// A REVOKE permission exists to retire the driver: new clients
		// don't get it; renewing clients are told to stop (handled by
		// grant()).
		return nil, false, nil
	}
	g := &grantInfo{
		driverID:   driverID,
		blob:       rec.BinaryCode,
		format:     rec.Format,
		renew:      renew,
		expiration: ExpirationPolicy(row[idx["expiration_policy"]].Int()),
		transfer:   TransferMethod(row[idx["transfer_method"]].Int()),
		leaseTime:  s.defaultLease,
	}
	if v := row[idx["lease_time_in_ms"]]; !v.IsNull() && v.Int() > 0 {
		g.leaseTime = millis(v.Int())
	}
	if perr := s.finishGrant(g, req, row[idx["driver_options"]].Str()); perr != nil {
		return nil, false, perr
	}
	if s.licenseMode {
		free, err := s.driverLeaseFree(driverID, own)
		if err != nil {
			return nil, false, &ProtocolError{Code: ErrCodeInternal, Message: err.Error()}
		}
		if !free {
			return nil, false, nil // license held; try next row
		}
	}
	return g, true, nil
}

func (s *Server) matchByPreference(req Request, own uint64) (*grantInfo, *ProtocolError) {
	args := sqlmini.Args{
		"client_api_name":  req.API.Name,
		"client_platform":  string(req.ClientPlatform),
		"client_api_major": nullableInt(req.API.Major),
		"client_api_minor": nullableInt(req.API.Minor),
		"client_drv_major": nullableInt(req.PreferredVersion.Major),
		"client_drv_minor": nullableInt(req.PreferredVersion.Minor),
		"client_drv_micro": nullableInt(req.PreferredVersion.Micro),
		"client_format":    nullableStr(req.PreferredFormat),
	}
	//lint:scan-ok paper Sample code 1 verbatim: LIKE/OR/NULL predicates are not indexable; hot path uses the in-memory catalog
	res, err := s.exec(preferenceSQL, args)
	if err != nil {
		return nil, &ProtocolError{Code: ErrCodeInternal, Message: err.Error()}
	}
	if len(res.Rows) == 0 {
		//lint:scan-ok paper fallback query verbatim: LIKE predicates are not indexable; hot path uses the in-memory catalog
		res, err = s.exec(fallbackSQL, sqlmini.Args{
			"client_api_name": req.API.Name,
			"client_platform": string(req.ClientPlatform),
		})
		if err != nil {
			return nil, &ProtocolError{Code: ErrCodeInternal, Message: err.Error()}
		}
	}
	idx := colIndex(res.Cols)
	for _, row := range res.Rows {
		rec, err := scanDriverRecordIdx(idx, row)
		if err != nil {
			return nil, &ProtocolError{Code: ErrCodeInternal, Message: err.Error()}
		}
		if s.licenseMode {
			free, lerr := s.driverLeaseFree(rec.DriverID, own)
			if lerr != nil {
				return nil, &ProtocolError{Code: ErrCodeInternal, Message: lerr.Error()}
			}
			if !free {
				continue
			}
		}
		g := &grantInfo{
			driverID:   rec.DriverID,
			blob:       rec.BinaryCode,
			format:     rec.Format,
			leaseTime:  s.defaultLease,
			renew:      s.defaultRenew,
			expiration: s.defaultExpiration,
			transfer:   s.defaultTransfer,
		}
		if perr := s.finishGrant(g, req, ""); perr != nil {
			return nil, perr
		}
		return g, nil
	}
	return nil, noDriverError(req)
}

func noDriverError(req Request) *ProtocolError {
	return &ProtocolError{Code: ErrCodeNoDriver, Message: fmt.Sprintf(
		"no driver for database %q, API %s, platform %q", req.Database, req.API, req.ClientPlatform)}
}

// finishGrant applies on-demand assembly (§5.4.1) and server-side
// pre-configuration (§3.1.1: "Connection options can also be configured
// and enforced on the Drivolution server, which then sends a
// pre-configured driver to the client"), then computes the checksum.
// The common no-rewrite case checksums the encoded blob directly
// without decoding it.
func (s *Server) finishGrant(g *grantInfo, req Request, options string) *ProtocolError {
	if len(req.RequiredPackages) == 0 && options == "" {
		sum, err := driverimg.EncodedChecksum(g.blob)
		if err != nil {
			return corruptDriverError(g.driverID, err)
		}
		g.checksum = sum
		return nil
	}
	return s.rewriteGrant(g, req, options)
}

// rewriteGrant replaces g's base image with the assembled and
// pre-configured one (rewriteImage) and checksums the result. g.blob
// itself is only read: the rewritten image is a fresh encoding.
func (s *Server) rewriteGrant(g *grantInfo, req Request, options string) *ProtocolError {
	img, err := driverimg.Decode(g.blob)
	if err != nil {
		return corruptDriverError(g.driverID, err)
	}
	img, perr := s.rewriteImage(img, req, options)
	if perr != nil {
		return perr
	}
	g.blob = img.Encode()
	if g.checksum, err = driverimg.EncodedChecksum(g.blob); err != nil {
		return corruptDriverError(g.driverID, err)
	}
	return nil
}

// rewriteImage applies on-demand assembly and option pre-configuration
// to a decoded base image, re-signing the result when the server has a
// key. The base image's payload aliases the stored blob and is never
// written: assembly copies it, and pre-configuration touches only the
// freshly decoded option map.
func (s *Server) rewriteImage(img *driverimg.Image, req Request, options string) (*driverimg.Image, *ProtocolError) {
	if len(req.RequiredPackages) > 0 {
		if s.packages == nil {
			return nil, &ProtocolError{Code: ErrCodeNoDriver, Message: "server has no package store for on-demand assembly"}
		}
		var err error
		img, err = s.packages.Assemble(img, req.RequiredPackages...)
		if err != nil {
			return nil, &ProtocolError{Code: ErrCodeNoDriver, Message: err.Error()}
		}
	}
	if options != "" {
		if img.Manifest.Options == nil {
			img.Manifest.Options = map[string]string{}
		}
		for k, v := range ParseDriverOptions(options) {
			img.Manifest.Options[k] = v
		}
		img.Signature = nil // content changed
	}
	if s.signKey != nil {
		img.Sign(s.signKey)
	}
	return img, nil
}

func corruptDriverError(driverID int64, err error) *ProtocolError {
	return &ProtocolError{Code: ErrCodeInternal,
		Message: fmt.Sprintf("stored driver %d is corrupt: %v", driverID, err)}
}

// driverByID loads one driver row.
func (s *Server) driverByID(id int64) (DriverRecord, bool, error) {
	res, err := s.exec(driverByIDSQL, sqlmini.Args{"id": id})
	if err != nil {
		return DriverRecord{}, false, err
	}
	if len(res.Rows) == 0 {
		return DriverRecord{}, false, nil
	}
	rec, err := scanDriverRecord(res.Cols, res.Rows[0])
	return rec, err == nil, err
}

// driverMatchesRequest checks the API/platform compatibility of a
// permission-designated driver against the requesting client.
func driverMatchesRequest(rec DriverRecord, req Request) bool {
	if !sqlmini.Like(rec.APIName, req.API.Name) {
		return false
	}
	if rec.Platform != "" && !sqlmini.Like(string(rec.Platform), string(req.ClientPlatform)) {
		return false
	}
	if req.API.Major >= 0 && rec.APIMajor >= 0 && req.API.Major != rec.APIMajor {
		return false
	}
	if req.API.Minor >= 0 && rec.APIMinor >= 0 && req.API.Minor != rec.APIMinor {
		return false
	}
	return true
}

// driverLeaseFreeSQL carries exactly the two conjuncts the composite
// (driver_id, expires_at) index consumes, so the planner runs it
// residual-free: one seek into the requested driver's unexpired window,
// no WHERE re-evaluation. TestHotStatementsPlanIndexed pins the plan.
// $now is the server's clock, the one every lease write binds its
// expiry from: the store's now() is another machine's clock on an
// external store, and skew between the two would misjudge a lease.
const driverLeaseFreeSQL = `SELECT lease_id, released FROM ` + LeasesTable + `
	WHERE driver_id = $id AND expires_at > $now`

// driverLeaseFree reports whether no *other* live lease holds driverID
// (license mode). ownLease is the requesting client's lease id (0 for a
// new client). The released flag and the own-lease exclusion are
// filtered here rather than in SQL: keeping the statement to the two
// index-consumed conjuncts makes the plan residual-free, and a driver's
// unexpired window is at most a handful of rows in license mode.
func (s *Server) driverLeaseFree(driverID int64, ownLease uint64) (bool, error) {
	res, err := s.exec(driverLeaseFreeSQL, sqlmini.Args{"id": driverID, "now": s.clock()})
	if err != nil {
		return false, err
	}
	idx := colIndex(res.Cols)
	lid, rel := idx["lease_id"], idx["released"]
	for _, row := range res.Rows {
		if row[rel].Bool() {
			continue
		}
		if uint64(row[lid].Int()) == ownLease {
			continue
		}
		return false, nil
	}
	return true, nil
}

// licenseUsageSQL is the §5.4.2 license-accounting count: how many
// leases are live right now, across all drivers. Its only indexable
// conjunct is the expires_at window, which the planner serves by a skip
// scan of the (driver_id, expires_at) index — one window seek per
// distinct driver — so the count visits only unexpired leases instead
// of scanning the whole lease log. $now is the server's clock, as in
// driverLeaseFreeSQL. TestHotStatementsPlanIndexed pins the plan.
const licenseUsageSQL = `SELECT count(*) FROM ` + LeasesTable + `
	WHERE expires_at > $now AND released = FALSE`

// LicensesInUse reports how many leases are currently live — granted,
// unreleased, and unexpired — which in license mode is exactly the
// number of driver licenses checked out (§5.4.2).
func (s *Server) LicensesInUse() (int, error) {
	res, err := s.exec(licenseUsageSQL, sqlmini.Args{"now": s.clock()})
	if err != nil {
		return 0, err
	}
	return int(res.Rows[0][0].Int()), nil
}
