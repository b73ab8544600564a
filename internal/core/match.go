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

// driverCols is every driver column a candidate row carries: the
// metadata the decision filters on, and the binary a grant sends.
const driverCols = `driver_id, api_name, api_version_major, api_version_minor,
	platform, driver_version_major, driver_version_minor,
	driver_version_micro, binary_code, binary_format`

// preferenceSQL is the paper's Sample code 1, adapted to the split
// api/driver version columns of Table 1. The italicized preference
// predicates are the ones dropped by the fallback query.
const preferenceSQL = `SELECT ` + driverCols + ` FROM ` + DriversTable + `
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
const fallbackSQL = `SELECT ` + driverCols + ` FROM ` + DriversTable + `
WHERE api_name LIKE $client_api_name
AND (platform IS NULL OR platform LIKE $client_platform)
ORDER BY driver_version_major DESC, driver_version_minor DESC,
	driver_version_micro DESC, driver_id DESC`

// permissionCols is every driver_permission column, so one scanner
// decodes the catalog's load and Sample code 2's rows alike.
const permissionCols = `permission_id, user, client_ip, database,
	driver_id, driver_options, start_date, end_date, lease_time_in_ms,
	renew_policy, expiration_policy, transfer_method`

// permissionSQL is the paper's Sample code 2 (the distribution table
// lookup), returning the whole row: its lease terms are the offer's.
// The paper's date predicate reads
//
//	now() BETWEEN start_date AND end_date
//
// here $now is bound from the server's clock, which the catalog path and
// every lease write judge by too: the store's now() is another machine's
// clock over a ConnStore.
const permissionSQL = `SELECT ` + permissionCols + ` FROM ` + PermissionTable + `
WHERE (database IS NULL OR database LIKE $user_database)
AND (user IS NULL OR user LIKE $client_user)
AND (client_ip IS NULL OR client_ip LIKE $client_client_ip)
AND (start_date IS NULL OR end_date IS NULL
     OR $now BETWEEN start_date AND end_date)
ORDER BY permission_id DESC`

const driverByIDSQL = `SELECT ` + driverCols + ` FROM ` + DriversTable + ` WHERE driver_id = $id`

// A fetcher yields the candidates of the server's decision for one
// request: the cached catalog, which filters in Go and runs no SQL, or
// sqlFetch, which runs the paper's own statements against a store that
// cannot report its table versions. A walk starts at cursor 0 and goes
// on from the returned next; a nil candidate ends it.
type fetcher interface {
	// permission returns the first driver_permission row at or after
	// cursor i that Sample code 2 selects for req at the server clock
	// now, newest first.
	permission(req Request, now time.Time, i int) (p *Permission, next int, err error)
	// driver returns the driver a permission row designates; nil when
	// no driver has that id.
	driver(id int64) (*catalogEntry, error)
	// preferred returns the first driver at or after cursor i that
	// Sample code 1 selects for req, or with fallback its no-preference
	// fallback, in their ORDER BY.
	preferred(req Request, fallback bool, i int) (ent *catalogEntry, next int, err error)
}

// match resolves a request to a driver + lease terms on the current
// catalog: the DISCOVER path.
func (s *Server) match(req Request) (grantInfo, *ProtocolError) {
	cat, perr := s.catalogSnapshot()
	if perr != nil {
		return grantInfo{}, perr
	}
	return s.matchOn(cat, req, req.LeaseID)
}

// matchOn decides req over a validated catalog, or through SQL when cat
// is nil (the store cannot report versions: Figure 2's legacy database
// over a v1 session).
func (s *Server) matchOn(cat *catalog, req Request, own uint64) (grantInfo, *ProtocolError) {
	if cat != nil {
		return s.decide(cat, req, own)
	}
	return s.decide(&sqlFetch{s: s}, req, own)
}

// decide is the paper's server logic (§4.1.1), whichever fetcher
// supplies the candidates: the permission/distribution table first
// (Sample code 2), newest row first; then the client's preferences
// (Sample code 1), and the no-preference fallback only when no driver
// satisfies them. License mode additionally skips drivers whose lease
// is held (take). own is the lease whose row the license-mode check does
// not count against the client: the renewing lease, or a bootstrap's own
// new row when it is matched again (Server.bootstrap).
func (s *Server) decide(f fetcher, req Request, own uint64) (grantInfo, *ProtocolError) {
	now := s.clock()
	for i := 0; ; {
		p, next, err := f.permission(req, now, i)
		if err != nil {
			return grantInfo{}, internalError(err)
		}
		if p == nil {
			break
		}
		i = next
		ent, err := f.driver(p.DriverID)
		if err != nil {
			return grantInfo{}, internalError(err)
		}
		if ent == nil || !driverMatchesRequest(&ent.meta, req, false) {
			continue // try the next permission row
		}
		if p.RenewPolicy == RenewRevoke && req.LeaseID == 0 {
			// A REVOKE permission exists to retire the driver: new
			// clients don't get it; renewing clients are told to stop
			// (handled by grant()).
			continue
		}
		terms := grantInfo{leaseTime: p.LeaseTime, renew: p.RenewPolicy,
			expiration: p.ExpirationPolicy, transfer: p.TransferMethod}
		if g, ok, perr := s.take(ent, terms, req, own, p.DriverOptions); ok || perr != nil {
			return g, perr
		}
	}
	defaults := grantInfo{renew: s.defaultRenew, expiration: s.defaultExpiration, transfer: s.defaultTransfer}
	// Sample code 1, then its fallback only when it selected no driver.
	for _, fallback := range [2]bool{false, true} {
		matched := false
		for i := 0; ; {
			ent, next, err := f.preferred(req, fallback, i)
			if err != nil {
				return grantInfo{}, internalError(err)
			}
			if ent == nil {
				break
			}
			i, matched = next, true
			if g, ok, perr := s.take(ent, defaults, req, own, ""); ok || perr != nil {
				return g, perr
			}
		}
		if matched {
			// Everything compatible is license-held: NO_DRIVER, without
			// trying the fallback predicates.
			break
		}
	}
	return grantInfo{}, noDriverError(req)
}

// take grants ent under terms, a zero lease time meaning the server's
// default, or returns ok=false and no error when license mode finds
// ent held by another lease. The grant travels by value: it stays on
// the stack of the request it answers.
func (s *Server) take(ent *catalogEntry, terms grantInfo, req Request, own uint64, options string) (g grantInfo, ok bool, perr *ProtocolError) {
	if s.licenseMode {
		free, err := s.driverLeaseFree(ent.meta.DriverID, own)
		if err != nil {
			return grantInfo{}, false, internalError(err)
		}
		if !free {
			return grantInfo{}, false, nil
		}
	}
	g = terms
	g.driverID, g.format = ent.meta.DriverID, ent.meta.Format
	if g.leaseTime <= 0 {
		g.leaseTime = s.defaultLease
	}
	if perr := s.finishGrant(&g, ent, req, options); perr != nil {
		return grantInfo{}, false, perr
	}
	return g, true, nil
}

func noDriverError(req Request) *ProtocolError {
	return &ProtocolError{Code: ErrCodeNoDriver, Message: fmt.Sprintf(
		"no driver for database %q, API %s, platform %q", req.Database, req.API, req.ClientPlatform)}
}

func internalError(err error) *ProtocolError {
	return &ProtocolError{Code: ErrCodeInternal, Message: err.Error()}
}

// finishGrant sets g's blob and checksum: the entry's own, or, for
// on-demand assembly (§5.4.1) and server-side pre-configuration
// (§3.1.1: "Connection options can also be configured and enforced on
// the Drivolution server, which then sends a pre-configured driver to
// the client"), the rewritten image, built once per shape and then
// served from the assembly cache. An entry sqlFetch read for this
// request is hashed here, once it is granted.
func (s *Server) finishGrant(g *grantInfo, ent *catalogEntry, req Request, options string) *ProtocolError {
	if ent.checksum == "" && ent.corrupt == nil {
		ent.checksum, ent.corrupt = driverimg.EncodedChecksum(ent.blob)
	}
	if ent.corrupt != nil {
		return corruptDriverError(g.driverID, ent.corrupt)
	}
	if len(req.RequiredPackages) == 0 && options == "" {
		g.blob, g.checksum = ent.blob, ent.checksum
		return nil
	}
	key := s.assemblyKeyFor(ent, req, options)
	if v, ok := s.assemblies.get(key); ok {
		g.blob, g.checksum = v.blob, v.checksum
		return nil
	}
	img, err := driverimg.Decode(ent.blob)
	if err != nil {
		return corruptDriverError(g.driverID, err)
	}
	img, perr := s.rewriteImage(img, req, options)
	if perr != nil {
		return perr
	}
	g.blob = img.Encode() // a fresh encoding: ent.blob is only read
	if g.checksum, err = driverimg.EncodedChecksum(g.blob); err != nil {
		return corruptDriverError(g.driverID, err)
	}
	s.assemblies.put(key, assembledImage{blob: g.blob, checksum: g.checksum})
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

// sqlFetch is the fetcher over a store that cannot report its table
// versions: a catalog of one request, filled by the paper's statements
// as the walk reaches them. Cursor 0 runs a walk's statement, a
// permission-designated driver is read by id when its row is tried, and
// no entry is hashed before finishGrant.
type sqlFetch struct {
	s     *Server
	perms []Permission
	prefs []catalogEntry
}

func (f *sqlFetch) permission(req Request, now time.Time, i int) (*Permission, int, error) {
	if i == 0 {
		//lint:scan-ok paper Sample code 2 verbatim: LIKE/OR/NULL predicates are not indexable; hot path uses the in-memory catalog
		res, err := f.s.exec(permissionSQL, sqlmini.Args{
			"user_database":    req.Database,
			"client_user":      nullableStr(req.User),
			"client_client_ip": nullableStr(req.ClientID),
			"now":              now,
		})
		if err != nil {
			return nil, 0, err
		}
		f.perms = scanPermissionRows(res)
	}
	if i == len(f.perms) {
		return nil, i, nil
	}
	return &f.perms[i], i + 1, nil
}

func (f *sqlFetch) driver(id int64) (*catalogEntry, error) {
	res, err := f.s.exec(driverByIDSQL, sqlmini.Args{"id": id})
	if err != nil || len(res.Rows) == 0 {
		return nil, err
	}
	ents, err := scanEntries(res)
	if err != nil {
		return nil, err
	}
	return &ents[0], nil
}

func (f *sqlFetch) preferred(req Request, fallback bool, i int) (*catalogEntry, int, error) {
	if i == 0 {
		var res *sqlmini.Result
		var err error
		if fallback {
			//lint:scan-ok paper fallback query verbatim: LIKE predicates are not indexable; hot path uses the in-memory catalog
			res, err = f.s.exec(fallbackSQL, sqlmini.Args{
				"client_api_name": req.API.Name,
				"client_platform": string(req.ClientPlatform),
			})
		} else {
			//lint:scan-ok paper Sample code 1 verbatim: LIKE/OR/NULL predicates are not indexable; hot path uses the in-memory catalog
			res, err = f.s.exec(preferenceSQL, sqlmini.Args{
				"client_api_name":  req.API.Name,
				"client_platform":  string(req.ClientPlatform),
				"client_api_major": nullableInt(req.API.Major),
				"client_api_minor": nullableInt(req.API.Minor),
				"client_drv_major": nullableInt(req.PreferredVersion.Major),
				"client_drv_minor": nullableInt(req.PreferredVersion.Minor),
				"client_drv_micro": nullableInt(req.PreferredVersion.Micro),
				"client_format":    nullableStr(req.PreferredFormat),
			})
		}
		if err != nil {
			return nil, 0, err
		}
		if f.prefs, err = scanEntries(res); err != nil {
			return nil, 0, err
		}
	}
	if i == len(f.prefs) {
		return nil, i, nil
	}
	return &f.prefs[i], i + 1, nil
}

// scanEntries decodes a result set of driverCols rows into entries
// whose blob is the row's binary_code, not yet hashed.
func scanEntries(res *sqlmini.Result) ([]catalogEntry, error) {
	idx := colIndex(res.Cols)
	ents := make([]catalogEntry, len(res.Rows))
	for i, row := range res.Rows {
		rec, err := scanDriverRecordIdx(idx, row)
		if err != nil {
			return nil, err
		}
		ents[i] = catalogEntry{meta: rec, blob: rec.BinaryCode}
	}
	return ents, nil
}

func colIndex(cols []string) map[string]int {
	idx := make(map[string]int, len(cols))
	for i, c := range cols {
		idx[c] = i
	}
	return idx
}

// driverMatchesRequest is the API and platform half of Sample code 1's
// WHERE clause, which a permission-designated driver must pass too;
// nameOnly keeps only the API name and platform, as the fallback does.
// NULL columns are negative version parts or empty strings, NULL client
// values negative or empty request fields.
func driverMatchesRequest(rec *DriverRecord, req Request, nameOnly bool) bool {
	if !sqlmini.Like(rec.APIName, req.API.Name) ||
		rec.Platform != "" && !sqlmini.Like(string(rec.Platform), string(req.ClientPlatform)) {
		return false
	}
	return nameOnly || nullOrEqual(req.API.Major, rec.APIMajor) && nullOrEqual(req.API.Minor, rec.APIMinor)
}

// nullOrEqual is Sample code 1's "$pref IS NULL OR col IS NULL OR
// col = $pref".
func nullOrEqual(pref, col int) bool { return pref < 0 || col < 0 || pref == col }

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
