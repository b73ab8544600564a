package core

import (
	"fmt"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/dbver"
	"repro/internal/driverimg"
	"repro/internal/sqlmini"
)

// TestDriversTable verifies the Table 1 schema is created verbatim:
// every column from the paper, with its constraints enforced.
func TestDriversTable(t *testing.T) {
	db := sqlmini.NewDB()
	st := NewLocalStore(db)
	if err := EnsureSchema(st); err != nil {
		t.Fatal(err)
	}
	// Idempotent.
	if err := EnsureSchema(st); err != nil {
		t.Fatal(err)
	}

	// All Table 1 columns accept a full row.
	_, err := st.Exec(`INSERT INTO ` + DriversTable + `
		(driver_id, api_name, api_version_major, api_version_minor,
		 platform, driver_version_major, driver_version_minor,
		 driver_version_micro, binary_code, binary_format)
		VALUES (1, 'JDBC', 3, 0, 'linux-x86_64', 1, 2, 3, ?, 'IMAGE')`)
	if err == nil {
		t.Fatal("positional param unbound should error") // sanity: params work
	}
	_, err = db.Exec(`INSERT INTO `+DriversTable+`
		(driver_id, api_name, api_version_major, api_version_minor,
		 platform, driver_version_major, driver_version_minor,
		 driver_version_micro, binary_code, binary_format)
		VALUES (1, 'JDBC', 3, 0, 'linux-x86_64', 1, 2, 3, ?, 'IMAGE')`,
		[]byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}

	// PRIMARY KEY on driver_id (Table 1).
	_, err = db.Exec(`INSERT INTO `+DriversTable+`
		(driver_id, api_name, binary_code, binary_format)
		VALUES (1, 'ODBC', ?, 'IMAGE')`, []byte{9})
	if err == nil {
		t.Fatal("duplicate driver_id must violate the primary key")
	}

	// NOT NULL on binary_code (Table 1).
	_, err = db.Exec(`INSERT INTO ` + DriversTable + `
		(driver_id, api_name, binary_format) VALUES (2, 'ODBC', 'IMAGE')`)
	if err == nil {
		t.Fatal("NULL binary_code must be rejected")
	}

	// NULL platform/api_version mean "all" and are storable.
	if _, err := db.Exec(`INSERT INTO `+DriversTable+`
		(driver_id, api_name, binary_code, binary_format)
		VALUES (2, 'ODBC', ?, 'IMAGE')`, []byte{9}); err != nil {
		t.Fatal(err)
	}
}

// TestPermissionTableForeignKey verifies Table 2's REFERENCES
// driver(driver_id) is enforced.
func TestPermissionTableForeignKey(t *testing.T) {
	db := sqlmini.NewDB()
	st := NewLocalStore(db)
	if err := EnsureSchema(st); err != nil {
		t.Fatal(err)
	}
	err := insertPermission(st, Permission{
		PermissionID: 1,
		DriverID:     42, // no such driver
		LeaseTime:    time.Hour,
	})
	if err == nil {
		t.Fatal("permission with dangling driver_id must be rejected")
	}
}

func TestDriverOptionsRoundTrip(t *testing.T) {
	opts := map[string]string{"user": "app", "fetchSize": "100", "tz": "UTC"}
	s := FormatDriverOptions(opts)
	if s != "fetchSize=100,tz=UTC,user=app" {
		t.Errorf("FormatDriverOptions = %q", s)
	}
	back := ParseDriverOptions(s)
	if len(back) != 3 || back["user"] != "app" || back["fetchSize"] != "100" {
		t.Errorf("ParseDriverOptions = %v", back)
	}
	if got := ParseDriverOptions(""); len(got) != 0 {
		t.Errorf("empty options = %v", got)
	}
	if got := FormatDriverOptions(nil); got != "" {
		t.Errorf("nil options = %q", got)
	}
	if got := ParseDriverOptions(" a = 1 , b = 2 "); got["a"] != "1" || got["b"] != "2" {
		t.Errorf("whitespace handling = %v", got)
	}
}

func TestPolicyEnumsMatchPaperEncoding(t *testing.T) {
	// Table 2 encodes: RENEW=0 UPGRADE=1 REVOKE=2;
	// AFTER_CLOSE=0 AFTER_COMMIT=1 IMMEDIATE=2.
	if int(RenewKeep) != 0 || int(RenewUpgrade) != 1 || int(RenewRevoke) != 2 {
		t.Error("RenewPolicy values diverge from the paper's Table 2")
	}
	if int(AfterClose) != 0 || int(AfterCommit) != 1 || int(Immediate) != 2 {
		t.Error("ExpirationPolicy values diverge from the paper's Table 2")
	}
	if RenewKeep.String() != "RENEW" || RenewUpgrade.String() != "UPGRADE" || RenewRevoke.String() != "REVOKE" {
		t.Error("RenewPolicy names diverge")
	}
	if AfterClose.String() != "AFTER_CLOSE" || AfterCommit.String() != "AFTER_COMMIT" || Immediate.String() != "IMMEDIATE" {
		t.Error("ExpirationPolicy names diverge")
	}
	if int(TransferAny) != -1 {
		t.Error("TransferMethod ANY must be -1 per Table 2")
	}
	if RenewPolicy(3).Valid() || ExpirationPolicy(-1).Valid() {
		t.Error("Valid() accepts out-of-range policies")
	}
}

// TestMatchmakingSampleCode1 exercises the preference query directly:
// the paper's NULL-as-wildcard semantics for platform and versions.
func TestMatchmakingSampleCode1(t *testing.T) {
	db := sqlmini.NewDB()
	st := NewLocalStore(db)
	srv, err := NewServer("s", st)
	if err != nil {
		t.Fatal(err)
	}

	insert := func(id int64, api string, apiMaj int, platform string, ver dbver.Version) {
		t.Helper()
		rec := DriverRecord{
			DriverID: id, APIName: api, APIMajor: apiMaj, APIMinor: -1,
			Platform: dbver.Platform(platform), Version: ver,
			BinaryCode: testImageBlob(t, api, ver), Format: "IMAGE",
		}
		if err := insertDriver(st, rec); err != nil {
			t.Fatal(err)
		}
	}

	insert(1, "JDBC", 3, "linux-x86_64", dbver.V(1, 0, 0))
	insert(2, "JDBC", 3, "", dbver.V(1, 1, 0)) // NULL platform = all
	insert(3, "JDBC", 4, "windows-i586", dbver.V(2, 0, 0))
	insert(4, "ODBC", -1, "", dbver.V(5, 0, 0)) // NULL api version = all

	cases := []struct {
		name   string
		req    Request
		wantID int64
		wantNo bool
	}{
		{
			name:   "exact platform prefers newest matching",
			req:    Request{API: dbver.APIOf("JDBC", 3, -1), ClientPlatform: "linux-x86_64"},
			wantID: 2, // driver 2 matches via NULL platform and is newer (1.1.0)
		},
		{
			name:   "preferred version pins older driver",
			req:    Request{API: dbver.APIOf("JDBC", 3, -1), ClientPlatform: "linux-x86_64", PreferredVersion: dbver.V(1, 0, 0)},
			wantID: 1,
		},
		{
			name:   "windows client gets api-4 build",
			req:    Request{API: dbver.APIOf("JDBC", 4, -1), ClientPlatform: "windows-i586"},
			wantID: 3,
		},
		{
			name:   "odbc any version",
			req:    Request{API: dbver.AnyVersionAPI("ODBC"), ClientPlatform: "solaris-sparc"},
			wantID: 4,
		},
		{
			name:   "no driver for unknown api",
			req:    Request{API: dbver.AnyVersionAPI("TCL"), ClientPlatform: "linux-x86_64"},
			wantNo: true,
		},
		{
			name: "fallback drops unsatisfiable preferences",
			req: Request{API: dbver.APIOf("JDBC", 3, -1), ClientPlatform: "linux-x86_64",
				PreferredVersion: dbver.V(9, 9, 9)},
			wantID: 2, // preference query empty → fallback picks newest compatible
		},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			g, perr := srv.match(tt.req)
			if tt.wantNo {
				if perr == nil {
					t.Fatalf("expected NO_DRIVER, got driver %d", g.driverID)
				}
				if perr.Code != ErrCodeNoDriver {
					t.Fatalf("code = %v", perr.Code)
				}
				return
			}
			if perr != nil {
				t.Fatal(perr)
			}
			if g.driverID != tt.wantID {
				t.Fatalf("matched driver %d, want %d", g.driverID, tt.wantID)
			}
		})
	}
}

// TestMatchmakingSampleCode2 exercises the permission/distribution path:
// user/db/client_ip LIKE filters and the date window.
func TestMatchmakingSampleCode2(t *testing.T) {
	now := time.Date(2026, 6, 13, 12, 0, 0, 0, time.UTC)
	db := sqlmini.NewDB(sqlmini.WithClock(func() time.Time { return now }))
	st := NewLocalStore(db)
	srv, err := NewServer("s", st, WithClock(func() time.Time { return now }))
	if err != nil {
		t.Fatal(err)
	}

	insert := func(id int64, ver dbver.Version) {
		t.Helper()
		rec := DriverRecord{
			DriverID: id, APIName: "JDBC", APIMajor: -1, APIMinor: -1,
			Version: ver, BinaryCode: testImageBlob(t, "JDBC", ver), Format: "IMAGE",
		}
		if err := insertDriver(st, rec); err != nil {
			t.Fatal(err)
		}
	}
	insert(1, dbver.V(1, 0, 0))
	insert(2, dbver.V(2, 0, 0))

	// Per Sample code 2 the stored column is the LIKE *string* and the
	// client value the pattern, so admins store exact users (or NULL for
	// any). User gis-batch gets driver 1; everyone on db "geo" driver 2.
	mustPerm := func(p Permission) {
		t.Helper()
		p.PermissionID = 0
		if _, err := srv.SetPermission(p); err != nil {
			t.Fatal(err)
		}
	}
	mustPerm(Permission{User: "gis-batch", DriverID: 1, LeaseTime: time.Hour,
		RenewPolicy: RenewUpgrade, ExpirationPolicy: AfterCommit, TransferMethod: TransferAny})
	mustPerm(Permission{Database: "geo", DriverID: 2, LeaseTime: 30 * time.Minute,
		RenewPolicy: RenewKeep, ExpirationPolicy: AfterClose, TransferMethod: TransferAny,
		StartDate: now.Add(-time.Hour), EndDate: now.Add(time.Hour)})

	// Permission rows are consulted newest-first: a "geo" database
	// client matches permission 2.
	g, perr := srv.match(Request{Database: "geo", User: "web1", API: dbver.AnyVersionAPI("JDBC"), ClientPlatform: "linux-x86_64"})
	if perr != nil {
		t.Fatal(perr)
	}
	if g.driverID != 2 || g.renew != RenewKeep || g.expiration != AfterClose || g.leaseTime != 30*time.Minute {
		t.Fatalf("grant = %+v", g)
	}

	// A gis user on another database matches permission 1.
	g, perr = srv.match(Request{Database: "other", User: "gis-batch", API: dbver.AnyVersionAPI("JDBC"), ClientPlatform: "linux-x86_64"})
	if perr != nil {
		t.Fatal(perr)
	}
	if g.driverID != 1 {
		t.Fatalf("driver = %d, want 1", g.driverID)
	}

	// Outside the date window the geo permission stops matching and the
	// preference path takes over (newest driver = 2 anyway). Shift the
	// clock past end_date.
	now = now.Add(2 * time.Hour)
	g, perr = srv.match(Request{Database: "geo", User: "web1", API: dbver.AnyVersionAPI("JDBC"), ClientPlatform: "linux-x86_64"})
	if perr != nil {
		t.Fatal(perr)
	}
	if g.renew != srv.defaultRenew {
		t.Fatalf("expected default policies after permission window closed, got %+v", g)
	}
}

// testImageBlob builds a minimal encodable driver image blob.
func testImageBlob(t *testing.T, api string, ver dbver.Version) []byte {
	t.Helper()
	img := &driverimg.Image{
		Manifest: driverimg.Manifest{
			Kind:    "dbms-native",
			API:     dbver.AnyVersionAPI(api),
			Version: ver,
		},
	}
	return img.Encode()
}

// TestHotStatementsPlanIndexed pins the server's per-request lease and
// blob statements to index execution: if a schema or sqlmini change
// silently demotes one of these to a full scan, lease traffic becomes
// O(active leases) again and this test fails. Range-planned statements
// pin by prefix, because Explain embeds the evaluated now() bound.
//
// The converse is pinned too: every secondary index the schema declares
// must be named by at least one of these plans. Each grant and renewal
// pays to maintain every index on the lease log, so an index no pinned
// statement reads is a write-only cost and fails the test.
func TestHotStatementsPlanIndexed(t *testing.T) {
	db := sqlmini.NewDB()
	if err := EnsureSchema(NewLocalStore(db)); err != nil {
		t.Fatal(err)
	}
	var plans []string
	for _, tc := range []struct {
		name string
		sql  string
		args sqlmini.Args
		want string
	}{
		{"renewal-no-change", renewNoChangeSQL,
			sqlmini.Args{"exp": time.Unix(1, 0), "drv": int64(1), "id": int64(1)},
			"point lookup on " + LeasesTable + "(lease_id) [primary key]"},
		{"release", `UPDATE ` + LeasesTable + ` SET released = TRUE WHERE lease_id = $id`,
			sqlmini.Args{"id": int64(1)},
			"point lookup on " + LeasesTable + "(lease_id) [primary key]"},
		{"lease-by-id", `SELECT lease_id FROM ` + LeasesTable + ` WHERE lease_id = $id`,
			sqlmini.Args{"id": int64(1)},
			"point lookup on " + LeasesTable + "(lease_id) [primary key]"},
		// The license-mode is-driver-free probe consumes both of its
		// conjuncts on the composite (driver_id, expires_at) index: one
		// seek into the driver's unexpired window, residual-free.
		{"license-count", driverLeaseFreeSQL,
			sqlmini.Args{"id": int64(1), "now": time.Unix(1, 0)},
			"range scan on " + LeasesTable + "(driver_id, expires_at) [leases_driver_expires_idx] (driver_id = 1 AND expires_at > "},
		{"permissions-by-driver", `SELECT permission_id FROM ` + PermissionTable + ` WHERE driver_id = $id`,
			sqlmini.Args{"id": int64(1)},
			"index lookup on " + PermissionTable + "(driver_id) [driver_permission_driver_id_idx]"},
		// The time-window statements: the §5.4.2 license usage count and
		// the expiry sweep with its retention purge must skip-scan the
		// composite index's expires_at windows, not scan the lease table.
		{"license-usage-count", licenseUsageSQL,
			sqlmini.Args{"now": time.Unix(1, 0)},
			"skip scan on " + LeasesTable + "(driver_id, expires_at) [leases_driver_expires_idx] (expires_at > "},
		{"expiry-sweep-update", reapExpiredSQL,
			sqlmini.Args{"now": time.Unix(1, 0)},
			"skip scan on " + LeasesTable + "(driver_id, expires_at) [leases_driver_expires_idx] (expires_at <= "},
		{"expiry-sweep-purge", purgeReapedSQL,
			sqlmini.Args{"now": time.Unix(1, 0)},
			"skip scan on " + LeasesTable + "(driver_id, expires_at) [leases_driver_expires_idx] (expires_at <= "},
	} {
		got, err := db.Explain(tc.sql, tc.args)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want && !strings.HasPrefix(got, tc.want) {
			t.Fatalf("%s plans as %q, want %q", tc.name, got, tc.want)
		}
		plans = append(plans, got)
	}
	declared := regexp.MustCompile(`CREATE INDEX IF NOT EXISTS (\w+)`)
	for _, ddl := range SchemaStatements() {
		m := declared.FindStringSubmatch(ddl)
		if m == nil {
			continue
		}
		if !slices.ContainsFunc(plans, func(p string) bool { return strings.Contains(p, "["+m[1]+"]") }) {
			t.Errorf("index %s is declared but no pinned plan reads it: a write-only index", m[1])
		}
	}
	// The prefix match above cannot see the plan's tail; pin the
	// residual-free stamp on the license probe separately.
	got, err := db.Explain(driverLeaseFreeSQL, sqlmini.Args{"id": int64(1), "now": time.Unix(1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(got, "(residual-free)") {
		t.Fatalf("license probe plans as %q, want a residual-free plan", got)
	}
}

// TestLeaseStatementsPlanAtScale re-verifies the three population-
// sensitive lease statements — the expiry sweep, the §5.4.2 license
// usage count, and the license-mode driver-free probe — against tables
// actually holding 100 and then 10000 lease rows spread over 100
// distinct driver ids, the skip scan's d. The planner is schema-driven,
// but this is the contract the flat-scaling benchmarks
// (BenchmarkExpirySweepAt{100,10000}Leases and
// BenchmarkExpirySweepAt10000LeasesOver100Drivers) rest on: if row
// volume ever started demoting these to scans, O(n) would creep back
// silently. At each scale one expired lease per driver is added and the
// sweep and the usage count must find exactly the right rows.
func TestLeaseStatementsPlanAtScale(t *testing.T) {
	db := sqlmini.NewDB()
	store := NewLocalStore(db)
	if err := EnsureSchema(store); err != nil {
		t.Fatal(err)
	}
	const drivers = 100
	now := time.Now()
	seeded := 0
	seedTo := func(n int) {
		t.Helper()
		args := sqlmini.Args{"g": now.Add(-time.Hour), "e": now.Add(24 * time.Hour)}
		const batch = 200
		for seeded < n {
			hi := seeded + batch
			if hi > n {
				hi = n
			}
			var sb strings.Builder
			sb.WriteString(`INSERT INTO ` + LeasesTable + ` (lease_id, driver_id,
				database, user, client_id, granted_at, expires_at, released, renewals) VALUES `)
			for i := seeded; i < hi; i++ {
				if i > seeded {
					sb.WriteByte(',')
				}
				fmt.Fprintf(&sb, "(%d, %d, 'prod', 'app', 'c%d', $g, $e, FALSE, 0)",
					1_000_000+i, 1+int64(i%drivers), i)
			}
			if _, err := store.Exec(sb.String(), args); err != nil {
				t.Fatal(err)
			}
			seeded = hi
		}
	}
	for _, scale := range []int{100, 10000} {
		seedTo(scale)
		for _, tc := range []struct {
			name string
			sql  string
			args sqlmini.Args
			want string
		}{
			{"expiry-sweep", reapExpiredSQL, sqlmini.Args{"now": now},
				"skip scan on " + LeasesTable + "(driver_id, expires_at) [leases_driver_expires_idx] (expires_at <= "},
			{"license-usage-count", licenseUsageSQL, sqlmini.Args{"now": now},
				"skip scan on " + LeasesTable + "(driver_id, expires_at) [leases_driver_expires_idx] (expires_at > "},
			{"driver-free-probe", driverLeaseFreeSQL, sqlmini.Args{"id": int64(7), "now": now},
				"range scan on " + LeasesTable + "(driver_id, expires_at) [leases_driver_expires_idx] (driver_id = 7 AND expires_at > "},
		} {
			got, err := db.Explain(tc.sql, tc.args)
			if err != nil {
				t.Fatalf("%s at %d leases: %v", tc.name, scale, err)
			}
			if !strings.HasPrefix(got, tc.want) {
				t.Fatalf("%s at %d leases plans as %q, want prefix %q", tc.name, scale, got, tc.want)
			}
		}
		// The probe's semantics must hold at scale too: driver 7 has
		// live leases, a fresh driver id has none.
		free, err := NewServerMust(t, store).driverLeaseFree(7, 0)
		if err != nil {
			t.Fatal(err)
		}
		if free {
			t.Fatalf("driver 7 reported free with %d seeded leases", scale)
		}
		free, err = NewServerMust(t, store).driverLeaseFree(999999, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !free {
			t.Fatal("unleased driver reported busy")
		}
		// One expired lease under each of the 100 drivers: the skip
		// scan must visit every driver's window.
		for d := int64(1); d <= drivers; d++ {
			if _, err := store.Exec(`INSERT INTO `+LeasesTable+` (lease_id, driver_id,
				database, user, client_id, granted_at, expires_at, released, renewals)
				VALUES ($id, $d, 'prod', 'app', 'late', $g, $e, FALSE, 0)`,
				sqlmini.Args{"id": 2_000_000 + int64(scale) + d, "d": d,
					"g": now.Add(-time.Hour), "e": now.Add(-time.Minute)}); err != nil {
				t.Fatal(err)
			}
		}
		srv := NewServerMust(t, store)
		if n, err := srv.LicensesInUse(); err != nil || n != scale {
			t.Fatalf("licenses in use at %d leases = %d (err %v), want %d", scale, n, err, scale)
		}
		if n, err := srv.ReapExpiredLeases(); err != nil || n != drivers {
			t.Fatalf("sweep at %d leases swept %d (err %v), want %d", scale, n, err, drivers)
		}
		res, err := store.Exec(`SELECT count(*) FROM ` + LeasesTable)
		if err != nil || res.Rows[0][0].Int() != int64(scale) {
			t.Fatalf("rows left after the sweep at %d leases: %v (err %v), want %d", scale, res, err, scale)
		}
	}
}

// NewServerMust wraps NewServer for tests.
func NewServerMust(t *testing.T, store Store) *Server {
	t.Helper()
	srv, err := NewServer("plan-scale-test", store)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestReapExpiredLeases covers the lease reaper and its retention rule:
// an expired lease is released (freeing its license) and its row is
// gone after the very sweep that expired it, a row released earlier
// goes once its term is over, live leases and leases released before
// their term ended are untouched, and the sweep is idempotent.
func TestReapExpiredLeases(t *testing.T) {
	now := time.Now()
	db := sqlmini.NewDB()
	store := NewLocalStore(db)
	srv, err := NewServer("reaper-test", store, WithClock(func() time.Time { return now }))
	if err != nil {
		t.Fatal(err)
	}
	drv, err := srv.AddDriver(catalogImage(dbver.V(1, 0, 0)), dbver.FormatImage)
	if err != nil {
		t.Fatal(err)
	}
	insert := func(id int64, exp time.Time, released bool) {
		t.Helper()
		if _, err := store.Exec(`INSERT INTO `+LeasesTable+`
			(lease_id, driver_id, database, user, client_id, granted_at,
			 expires_at, released, renewals)
			VALUES ($id, $drv, 'prod', 'app', 'c', $g, $e, $r, 0)`,
			sqlmini.Args{"id": id, "drv": drv, "g": now.Add(-time.Hour), "e": exp, "r": released}); err != nil {
			t.Fatal(err)
		}
	}
	insert(11, now.Add(-time.Minute), false) // expired, live → swept and purged
	insert(12, now.Add(time.Hour), false)    // unexpired → kept
	insert(13, now.Add(-time.Hour), true)    // released, term over → purged
	insert(14, now, false)                   // expires this instant → swept and purged
	insert(15, now.Add(time.Hour), true)     // released before its term ended → kept until then

	// A staged transfer for a swept lease must be dropped.
	srv.stageTransfer(11, []byte{1, 2, 3}, now.Add(-time.Minute))

	inUse, err := srv.LicensesInUse()
	if err != nil {
		t.Fatal(err)
	}
	n, err := srv.ReapExpiredLeases()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("swept %d leases, want 2", n)
	}
	srv.pendingMu.Lock()
	_, staged := srv.pending[11]
	srv.pendingMu.Unlock()
	if staged {
		t.Fatal("reaper must drop staged transfers of swept leases")
	}
	// The license count never saw the expired rows, so deleting them
	// cannot move it.
	if after, err := srv.LicensesInUse(); err != nil || after != inUse || after != 1 {
		t.Fatalf("licenses in use = %d (err %v) after the sweep, %d before, want 1 both times", after, err, inUse)
	}
	leases, err := srv.Leases()
	if err != nil {
		t.Fatal(err)
	}
	var left []uint64
	for _, l := range leases {
		left = append(left, l.LeaseID)
	}
	if !slices.Equal(left, []uint64{12, 15}) {
		t.Fatalf("rows left after the sweep: %v, want [12 15]", left)
	}
	if leases[0].Released || !leases[1].Released {
		t.Fatalf("surviving rows disturbed: %+v", leases)
	}
	// Idempotent: a second sweep finds nothing.
	if n, err = srv.ReapExpiredLeases(); err != nil || n != 0 {
		t.Fatalf("second sweep = (%d, %v), want (0, nil)", n, err)
	}

	// A renewal of a reaped lease gets the answer a released one got:
	// on the checksum fast path (one guarded UPDATE that matches no row)
	// and on the read-then-update path alike.
	g, perr := srv.match(catalogRequest())
	if perr != nil {
		t.Fatal(perr)
	}
	for _, checksum := range []string{g.checksum, "", "some-other-driver"} {
		renew := catalogRequest()
		renew.LeaseID, renew.CurrentChecksum = 11, checksum
		if _, perr := srv.grant(renew, false); perr == nil || perr.Code != ErrCodeNoLease {
			t.Fatalf("renewal of reaped lease 11 (checksum %q): %v, want NO_LEASE", checksum, perr)
		}
	}
}

// TestOldSchemaStoreSweeps: a store created before the lease log lost
// its single-column expires_at index keeps that index (EnsureSchema
// adds, it never drops), and the planner keeps reading it — a range
// scan on an index led by the range column beats the skip scan — while
// the sweep, the retention purge and the license usage count return
// exactly what they return on the current schema, with leases spread
// over several drivers.
func TestOldSchemaStoreSweeps(t *testing.T) {
	now := time.Date(2026, 6, 13, 12, 0, 0, 0, time.UTC)
	db := sqlmini.NewDB()
	store := NewLocalStore(db)
	var ddl []string
	for _, st := range SchemaStatements() {
		if strings.Contains(st, "leases_driver_expires_idx") {
			ddl = append(ddl, `CREATE INDEX IF NOT EXISTS leases_expires_at_idx
				ON `+LeasesTable+` (expires_at) USING ORDERED`)
		}
		ddl = append(ddl, st)
	}
	for _, st := range ddl {
		if _, err := store.Exec(st); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := NewServer("old-schema", store, WithClock(func() time.Time { return now }))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, sql, want string }{
		{"expiry-sweep-update", reapExpiredSQL,
			"range scan on " + LeasesTable + "(expires_at) [leases_expires_at_idx] (expires_at <= "},
		{"expiry-sweep-purge", purgeReapedSQL,
			"range scan on " + LeasesTable + "(expires_at) [leases_expires_at_idx] (expires_at <= "},
		{"license-usage-count", licenseUsageSQL,
			"range scan on " + LeasesTable + "(expires_at) [leases_expires_at_idx] (expires_at > "},
	} {
		got, err := db.Explain(tc.sql, sqlmini.Args{"now": now})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !strings.HasPrefix(got, tc.want) {
			t.Fatalf("%s on the old schema plans as %q, want prefix %q", tc.name, got, tc.want)
		}
	}
	// Three drivers; per driver one expired live lease, one live lease,
	// one released lease whose term is over and one released before its
	// term ends. A lease that moved to another driver sits in both
	// drivers' groups of the composite index until GC.
	id := int64(0)
	insert := func(drv int64, exp time.Time, released bool) {
		t.Helper()
		id++
		if _, err := store.Exec(`INSERT INTO `+LeasesTable+`
			(lease_id, driver_id, database, user, client_id, granted_at,
			 expires_at, released, renewals)
			VALUES ($id, $drv, 'prod', 'app', 'c', $g, $e, $r, 0)`,
			sqlmini.Args{"id": id, "drv": drv, "g": now.Add(-time.Hour), "e": exp, "r": released}); err != nil {
			t.Fatal(err)
		}
	}
	for drv := int64(1); drv <= 3; drv++ {
		insert(drv, now.Add(-time.Minute), false)
		insert(drv, now.Add(time.Hour), false)
		insert(drv, now.Add(-time.Hour), true)
		insert(drv, now.Add(time.Hour), true)
	}
	if _, err := store.Exec(`UPDATE ` + LeasesTable + ` SET driver_id = 3 WHERE lease_id = 1`); err != nil {
		t.Fatal(err)
	}
	if n, err := srv.LicensesInUse(); err != nil || n != 3 {
		t.Fatalf("licenses in use = %d (err %v), want 3", n, err)
	}
	if n, err := srv.ReapExpiredLeases(); err != nil || n != 3 {
		t.Fatalf("swept %d leases (err %v), want 3", n, err)
	}
	leases, err := srv.Leases()
	if err != nil {
		t.Fatal(err)
	}
	var left []uint64
	for _, l := range leases {
		left = append(left, l.LeaseID)
	}
	if !slices.Equal(left, []uint64{2, 4, 6, 8, 10, 12}) {
		t.Fatalf("rows left after the sweep: %v, want [2 4 6 8 10 12]", left)
	}
}

// TestRenewalStatementAllocs pins what the engine allocates for one
// no-change renewal — the prepared renewNoChangeSQL moving a lease's
// expires_at, its share of deferred index GC included — over a lease
// log with every lease on one driver. Clock-free, so a change that puts
// per-statement key copies, bucket copies or binding and planning
// scratch back on the renewal path fails here before any benchmark is
// run. The four are what the statement writes: the new row version, its
// values, the Result, and the lease's group in the (driver_id,
// expires_at) index. (The arguments are boxed before counting starts;
// the count was 30 with copy-on-write buckets and per-update key
// tuples, 22 with map-bound parameters, heap-built plans and five
// allocations per index group, and 5 while a second, single-column
// expires_at index took a group of its own.)
func TestRenewalStatementAllocs(t *testing.T) {
	const pinned = 4
	db := sqlmini.NewDB()
	store := NewLocalStore(db)
	if err := EnsureSchema(store); err != nil {
		t.Fatal(err)
	}
	const leases = 1000
	now := time.Now()
	var sb strings.Builder
	sb.WriteString(`INSERT INTO ` + LeasesTable + ` (lease_id, driver_id, database,
		user, client_id, granted_at, expires_at, released, renewals) VALUES `)
	args := sqlmini.Args{"g": now}
	for i := 0; i < leases; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d, 1, 'prod', 'app', 'c%d', $g, $e%d, FALSE, 0)", i+1, i, i)
		args[fmt.Sprintf("e%d", i)] = now.Add(time.Hour + time.Duration(i)*time.Millisecond)
	}
	if _, err := store.Exec(sb.String(), args); err != nil {
		t.Fatal(err)
	}
	renew, err := db.Prepare(renewNoChangeSQL)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 2000
	bound := make([]sqlmini.Args, runs+1) // AllocsPerRun warms up with one extra call
	for i := range bound {
		bound[i] = sqlmini.Args{"id": int64(i%leases + 1), "drv": int64(1),
			"exp": now.Add(2*time.Hour + time.Duration(i)*time.Millisecond)}
	}
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		res, err := renew.Exec(bound[next])
		if err != nil || res.Affected != 1 {
			t.Fatalf("renewal %d: affected %v, err %v", next, res, err)
		}
		next++
	})
	if got != pinned {
		t.Fatalf("a no-change renewal allocates %v times per statement, pinned at %d", got, pinned)
	}
}
