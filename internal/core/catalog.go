package core

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/driverimg"
	"repro/internal/sqlmini"
)

// This file implements the server's versioned in-memory driver catalog.
//
// The Drivolution server sits on the connection-bootstrap critical path
// of every client in the cluster, yet the data it matches against —
// driver metadata (Table 1 minus binary_code) and permission rows
// (Table 2) — only changes when a DBA runs an admin operation. The
// catalog is a snapshot of that data labeled with the store's table
// versions (Store.Versions) current when the load began. Every match
// checks the live versions with one read; on mismatch the catalog is
// reloaded, so an admin INSERT/UPDATE/DELETE is visible to the very
// next grant. Steady-state matchmaking therefore runs zero SQL, decodes
// zero images, and materializes zero blobs: checksums and encoded sizes
// are precomputed at load, the date predicate of Sample code 2 is
// re-evaluated in Go against the server clock, and the binary is the
// slice the load already saw — each entry keeps it, so a grant that
// transfers hands out the entry's bytes and reads nothing back.
//
// Lease state is deliberately NOT in the catalog: the license-mode
// lease-free check (§5.4.2) stays a live query against the leases
// table, whose churn does not move the versions.

// catalogEntry is one driver row.
type catalogEntry struct {
	meta     DriverRecord // BinaryCode nil; the binary is blob
	checksum string
	corrupt  error // non-nil when binary_code fails structural validation
	// blob is the stored binary_code as the load's result set returned
	// it — on LocalStore the very slice the row holds, never a copy, and
	// read-only like it. Transfers are served from it, and a delta reload
	// proves "same bytes as last time" by the identity of its first byte
	// and skips re-checksumming; a replaced blob — even one reusing a
	// freed driver_id — necessarily has a different backing array.
	// Holding it costs nothing while the row lives (the row holds the
	// array anyway) and, for a deleted or replaced driver, retains the
	// old blob only until the next reload — which the deletion itself
	// scheduled by bumping the drivers version.
	blob []byte
}

// sameBlob reports whether a and b are the same stored bytes: equal
// length over the same backing array.
func sameBlob(a, b []byte) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// catalog is an immutable snapshot; a new one replaces it wholesale
// when the table versions move.
type catalog struct {
	drvVer  uint64          // drivers table version at load
	permVer uint64          // driver_permission table version at load
	order   []*catalogEntry // Sample-code-1 ORDER BY: version DESC (NULLs last), driver_id DESC
	byID    map[int64]*catalogEntry
	perms   []Permission // permission_id DESC
}

// current reports whether c was loaded at exactly these versions.
func (c *catalog) current(drv, perm uint64) bool {
	return c != nil && c.drvVer == drv && c.permVer == perm
}

// lookup returns the entry for a driver id; nil-safe for the first load.
func (c *catalog) lookup(id int64) *catalogEntry {
	if c == nil {
		return nil
	}
	return c.byID[id]
}

// catalogSnapshot returns the current catalog, reloading it if the
// store's table versions moved. Returns (nil, nil) when the store
// cannot report versions; callers then use the SQL path.
func (s *Server) catalogSnapshot() (*catalog, *ProtocolError) {
	drv, perm, ok := s.store.Versions()
	if !ok {
		return nil, nil
	}
	if cat := s.cat.Load(); cat.current(drv, perm) {
		return cat, nil
	}
	s.catMu.Lock()
	defer s.catMu.Unlock()
	// Re-read under the lock: another goroutine may have reloaded, and
	// the versions must be captured BEFORE the table scans so that a
	// concurrent mutation mid-load labels the snapshot stale rather
	// than fresh.
	if drv, perm, ok = s.store.Versions(); !ok {
		return nil, nil
	}
	old := s.cat.Load()
	if old.current(drv, perm) {
		return old, nil
	}
	cat, err := s.loadCatalog(drv, perm, old)
	if err != nil {
		return nil, &ProtocolError{Code: ErrCodeInternal, Message: err.Error()}
	}
	s.cat.Store(cat)
	return cat, nil
}

const catalogDriversSQL = `SELECT driver_id, api_name, api_version_major,
	api_version_minor, platform, driver_version_major,
	driver_version_minor, driver_version_micro, binary_code, binary_format
FROM ` + DriversTable

const catalogPermsSQL = `SELECT permission_id, user, client_ip,
	database, driver_id, driver_options, start_date, end_date,
	lease_time_in_ms, renew_policy, expiration_policy, transfer_method
	FROM ` + PermissionTable

// loadCatalog builds a fresh catalog snapshot, reusing as much of old
// as it can prove unchanged. When only driver_permission moved, the
// driver entries are carried over wholesale — permission
// churn on a large driver table touches zero blobs. When the drivers
// table did move, each rescanned row whose blob is pointer-identical to
// the previous load keeps its (checksum, corrupt) verdict, so only new
// or replaced drivers are hashed — the delta load ROADMAP lever (c).
func (s *Server) loadCatalog(drv, perm uint64, old *catalog) (*catalog, error) {
	cat := &catalog{drvVer: drv, permVer: perm}
	if old != nil && old.drvVer == drv {
		cat.order, cat.byID = old.order, old.byID
	} else {
		//lint:scan-ok cold catalog (re)load: reading every driver row is the point
		drvRes, err := s.exec(catalogDriversSQL)
		if err != nil {
			return nil, err
		}
		cat.order = make([]*catalogEntry, 0, len(drvRes.Rows))
		cat.byID = make(map[int64]*catalogEntry, len(drvRes.Rows))
		idx := colIndex(drvRes.Cols)
		for _, row := range drvRes.Rows {
			rec, err := scanDriverRecordIdx(idx, row)
			if err != nil {
				return nil, err
			}
			ent := &catalogEntry{meta: rec, blob: rec.BinaryCode}
			if prev := old.lookup(rec.DriverID); prev != nil && sameBlob(prev.blob, ent.blob) {
				ent.checksum, ent.corrupt = prev.checksum, prev.corrupt
			} else {
				ent.checksum, ent.corrupt = driverimg.EncodedChecksum(ent.blob)
			}
			ent.meta.BinaryCode = nil
			cat.order = append(cat.order, ent)
			cat.byID[ent.meta.DriverID] = ent
		}
		sort.SliceStable(cat.order, func(i, j int) bool {
			return catalogBefore(cat.order[i], cat.order[j])
		})
	}
	//lint:scan-ok cold catalog (re)load: reading every permission row is the point
	permRes, err := s.exec(catalogPermsSQL)
	if err != nil {
		return nil, err
	}
	cat.perms = scanPermissionRows(permRes)
	sort.SliceStable(cat.perms, func(i, j int) bool {
		return cat.perms[i].PermissionID > cat.perms[j].PermissionID
	})
	return cat, nil
}

// catalogBefore replicates the Sample-code-1 ORDER BY: driver version
// descending with NULL (negative) parts sorting last, ties broken by
// driver_id descending.
func catalogBefore(a, b *catalogEntry) bool {
	av := [3]int{a.meta.Version.Major, a.meta.Version.Minor, a.meta.Version.Micro}
	bv := [3]int{b.meta.Version.Major, b.meta.Version.Minor, b.meta.Version.Micro}
	for k := 0; k < 3; k++ {
		if av[k] == bv[k] || (av[k] < 0 && bv[k] < 0) {
			continue
		}
		if av[k] < 0 {
			return false
		}
		if bv[k] < 0 {
			return true
		}
		return av[k] > bv[k]
	}
	return a.meta.DriverID > b.meta.DriverID
}

// matchCatalog is the zero-SQL matchmaking path: Sample code 2 over the
// cached permission rows, then Sample code 1 (with its no-preference
// fallback) over the cached driver metadata.
func (s *Server) matchCatalog(cat *catalog, req Request) (*grantInfo, *ProtocolError) {
	now := s.clock()
	// 1. Permission/distribution table, newest row first.
	for i := range cat.perms {
		p := &cat.perms[i]
		if !permissionRowMatches(p, req, now) {
			continue
		}
		ent := cat.byID[p.DriverID]
		if ent == nil || !driverMatchesRequest(ent.meta, req) {
			continue // try the next permission row
		}
		if p.RenewPolicy == RenewRevoke && req.LeaseID == 0 {
			// A REVOKE permission exists to retire the driver: new
			// clients don't get it; renewing clients are told to stop
			// (handled by grant()).
			continue
		}
		g := &grantInfo{
			driverID:   ent.meta.DriverID,
			format:     ent.meta.Format,
			renew:      p.RenewPolicy,
			expiration: p.ExpirationPolicy,
			transfer:   p.TransferMethod,
			leaseTime:  s.defaultLease,
		}
		if p.LeaseTime > 0 {
			g.leaseTime = p.LeaseTime
		}
		if perr := s.finishGrantCatalog(g, ent, req, p.DriverOptions); perr != nil {
			return nil, perr
		}
		if s.licenseMode {
			free, err := s.driverLeaseFree(g.driverID, req.LeaseID)
			if err != nil {
				return nil, &ProtocolError{Code: ErrCodeInternal, Message: err.Error()}
			}
			if !free {
				continue // license held; try next row
			}
		}
		return g, nil
	}

	// 2. Preference pass; like the SQL path, the fallback (preference
	// predicates dropped) runs only when NO driver satisfies the full
	// preference query — a license-held driver still counts as matched.
	if g, perr := s.pickByPreference(cat, req, true); g != nil || perr != nil {
		return g, perr
	}
	if g, perr := s.pickByPreference(cat, req, false); g != nil || perr != nil {
		return g, perr
	}
	return nil, noDriverError(req)
}

// pickByPreference scans the version-ordered drivers; withPrefs selects
// between the full Sample-code-1 predicates and the fallback pair. A
// (nil, nil) return means nothing matched at all; license-mode
// skipping of matched-but-held drivers yields NO_DRIVER instead, like
// the SQL path's empty loop.
func (s *Server) pickByPreference(cat *catalog, req Request, withPrefs bool) (*grantInfo, *ProtocolError) {
	matchedAny := false
	for _, ent := range cat.order {
		if !entryMatchesPreference(&ent.meta, req, withPrefs) {
			continue
		}
		matchedAny = true
		if s.licenseMode {
			free, err := s.driverLeaseFree(ent.meta.DriverID, req.LeaseID)
			if err != nil {
				return nil, &ProtocolError{Code: ErrCodeInternal, Message: err.Error()}
			}
			if !free {
				continue
			}
		}
		g := &grantInfo{
			driverID:   ent.meta.DriverID,
			format:     ent.meta.Format,
			leaseTime:  s.defaultLease,
			renew:      s.defaultRenew,
			expiration: s.defaultExpiration,
			transfer:   s.defaultTransfer,
		}
		if perr := s.finishGrantCatalog(g, ent, req, ""); perr != nil {
			return nil, perr
		}
		return g, nil
	}
	if matchedAny {
		// Everything compatible is license-held: report NO_DRIVER
		// without trying the fallback predicates.
		return nil, noDriverError(req)
	}
	return nil, nil
}

// permissionRowMatches replicates the Sample-code-2 WHERE clause: the
// stored column is the LIKE string and the client value the pattern
// (empty client values are SQL NULL patterns, which never match), plus
// the verbatim date-window predicate evaluated at the server clock.
func permissionRowMatches(p *Permission, req Request, now time.Time) bool {
	if p.Database != "" && !sqlmini.Like(p.Database, req.Database) {
		return false
	}
	if p.User != "" && !(req.User != "" && sqlmini.Like(p.User, req.User)) {
		return false
	}
	if p.ClientIP != "" && !(req.ClientID != "" && sqlmini.Like(p.ClientIP, req.ClientID)) {
		return false
	}
	if !p.StartDate.IsZero() && !p.EndDate.IsZero() &&
		(now.Before(p.StartDate) || now.After(p.EndDate)) {
		return false
	}
	return true
}

// entryMatchesPreference replicates the Sample-code-1 WHERE clause
// (withPrefs) or its no-preference fallback. NULL columns are stored as
// negative version parts / empty strings; NULL client preferences are
// negative / empty request fields.
func entryMatchesPreference(rec *DriverRecord, req Request, withPrefs bool) bool {
	if !sqlmini.Like(rec.APIName, req.API.Name) {
		return false
	}
	if rec.Platform != "" && !sqlmini.Like(string(rec.Platform), string(req.ClientPlatform)) {
		return false
	}
	if !withPrefs {
		return true
	}
	if req.API.Major >= 0 && rec.APIMajor >= 0 && rec.APIMajor != req.API.Major {
		return false
	}
	if req.API.Minor >= 0 && rec.APIMinor >= 0 && rec.APIMinor != req.API.Minor {
		return false
	}
	if req.PreferredVersion.Major >= 0 && rec.Version.Major >= 0 && rec.Version.Major != req.PreferredVersion.Major {
		return false
	}
	if req.PreferredVersion.Minor >= 0 && rec.Version.Minor >= 0 && rec.Version.Minor != req.PreferredVersion.Minor {
		return false
	}
	if req.PreferredVersion.Micro >= 0 && rec.Version.Micro >= 0 && rec.Version.Micro != req.PreferredVersion.Micro {
		return false
	}
	if req.PreferredFormat != "" && !sqlmini.Like(rec.Format, req.PreferredFormat) {
		return false
	}
	return true
}

// finishGrantCatalog finalizes a catalog-resolved grant. The common
// no-rewrite case takes the entry's precomputed checksum and its blob
// as they are; assembly/pre-configuration requests go through the
// assembly cache.
func (s *Server) finishGrantCatalog(g *grantInfo, ent *catalogEntry, req Request, options string) *ProtocolError {
	if ent.corrupt != nil {
		return corruptDriverError(g.driverID, ent.corrupt)
	}
	if len(req.RequiredPackages) == 0 && options == "" {
		g.blob, g.checksum = ent.blob, ent.checksum
		return nil
	}
	return s.assembleGrant(g, ent, req, options)
}

// assemblyCache memoizes §5.4.1 on-demand assembly and §3.1.1
// pre-configuration: one decode+assemble+sign+encode per distinct
// shape, instead of per request.
type assemblyCache struct {
	mu      sync.Mutex
	entries map[assemblyKey]assembledImage
	bytes   int // sum of cached blob sizes
}

// assemblyKey identifies one assembled shape. Keying the base by
// checksum (not driver id) makes the cache immune to driver-id reuse
// after DeleteDriver; pkgGen covers package re-registration and signGen
// future signing-key rotation.
type assemblyKey struct {
	baseChecksum string
	packages     string // sorted, NUL-joined
	options      string
	pkgGen       uint64
	signGen      uint64
}

type assembledImage struct {
	blob     []byte
	checksum string
}

// Cache bounds: shape count AND accumulated blob bytes, since driver
// payloads run to megabytes. On overflow the whole map is dropped —
// shapes are few and cheap to rebuild, and count/byte caps keep the
// worst case at a bounded, predictable footprint.
const (
	assemblyCacheMaxEntries = 256
	assemblyCacheMaxBytes   = 64 << 20
)

func (c *assemblyCache) get(k assemblyKey) (assembledImage, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.entries[k]
	return v, ok
}

func (c *assemblyCache) put(k assemblyKey, v assembledImage) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries == nil || len(c.entries) >= assemblyCacheMaxEntries ||
		c.bytes+len(v.blob) > assemblyCacheMaxBytes {
		c.entries = make(map[assemblyKey]assembledImage)
		c.bytes = 0
	}
	c.entries[k] = v
	c.bytes += len(v.blob)
}

// assemblyKeyFor builds the cache key for a request shape.
func (s *Server) assemblyKeyFor(ent *catalogEntry, req Request, options string) assemblyKey {
	k := assemblyKey{
		baseChecksum: ent.checksum,
		options:      options,
		signGen:      atomic.LoadUint64(&s.signGen),
	}
	if s.packages != nil {
		k.pkgGen = s.packages.Generation()
	}
	if len(req.RequiredPackages) > 0 {
		pkgs := append([]string(nil), req.RequiredPackages...)
		sort.Strings(pkgs)
		k.packages = strings.Join(pkgs, "\x00")
	}
	return k
}

// assembleGrant resolves an assembly/pre-configuration request through
// the cache, rewriting the entry's base image only on miss.
func (s *Server) assembleGrant(g *grantInfo, ent *catalogEntry, req Request, options string) *ProtocolError {
	key := s.assemblyKeyFor(ent, req, options)
	if v, ok := s.assemblies.get(key); ok {
		g.blob, g.checksum = v.blob, v.checksum
		return nil
	}
	g.blob = ent.blob
	if perr := s.rewriteGrant(g, req, options); perr != nil {
		return perr
	}
	s.assemblies.put(key, assembledImage{blob: g.blob, checksum: g.checksum})
	return nil
}
