package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/dbms"
	"repro/internal/dbver"
	"repro/internal/driverimg"
	"repro/internal/sqlmini"
)

// versionBlind is a LocalStore that cannot report table versions — the
// Figure 2 legacy database — so a server over it matches with the
// paper's Sample code 1/2 SQL on every request.
type versionBlind struct{ *LocalStore }

func (versionBlind) Versions() (uint64, uint64, bool) { return 0, 0, false }

// equivFixture is one randomized catalog loaded into three stores: the
// catalog server matches in memory, the sql server through SQL, and the
// conn server in memory over a ConnStore whose session watches the
// catalog's versions (so its renewals check the catalog after their
// UPDATE).
type equivFixture struct {
	catalog, sql, conn *Server
	now                time.Time // the servers' clock, months off the stores' machine's
}

func pick[T any](rng *rand.Rand, xs ...T) T { return xs[rng.Intn(len(xs))] }

func newEquivFixture(t *testing.T, seed int64, license bool) *equivFixture {
	t.Helper()
	f := &equivFixture{now: time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)}
	clock := func() time.Time { return f.now }
	opts := []ServerOption{WithClock(clock), WithDefaultLease(4 * time.Second)}
	if license {
		opts = append(opts, WithLicenseMode())
	}
	dbA := sqlmini.NewDB()
	dbB := sqlmini.NewDB()
	var err error
	if f.catalog, err = NewServer("equiv", NewLocalStore(dbA), opts...); err != nil {
		t.Fatal(err)
	}
	if f.sql, err = NewServer("equiv", versionBlind{NewLocalStore(dbB)}, opts...); err != nil {
		t.Fatal(err)
	}
	legacy := dbms.NewServer("legacy-db", dbms.WithUser("svc", "pw"))
	legacy.AddDatabase("meta", sqlmini.NewDB())
	if err := legacy.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(legacy.Stop)
	drv := dbms.NewNativeDriver(dbver.V(2, 0, 0), 2)
	cs := NewConnStore(func() (client.Conn, error) {
		return drv.Connect("dbms://"+legacy.Addr()+"/meta", client.Props{"user": "svc", "password": "pw"})
	})
	t.Cleanup(cs.Close)
	if f.conn, err = NewServer("equiv", cs, opts...); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(seed))
	nDrivers := 4 + rng.Intn(6)
	var drivers []DriverRecord
	for id := int64(1); id <= int64(nDrivers); id++ {
		api := dbver.APIOf(pick(rng, "JDBC", "JDBC", "ODBC"), pick(rng, 3, 4, -1), pick(rng, 0, 1, -1))
		ver := dbver.V(1+rng.Intn(3), rng.Intn(3), pick(rng, 0, 1, -1))
		img := &driverimg.Image{
			Manifest: driverimg.Manifest{Kind: "dbms-native", API: api, Version: ver},
			Payload:  []byte(fmt.Sprintf("driver %d of seed %d", id, seed)),
		}
		rec := DriverRecord{
			DriverID: id, APIName: api.Name, APIMajor: api.Major, APIMinor: api.Minor,
			Platform: pick[dbver.Platform](rng, dbver.PlatformLinuxAMD64, dbver.PlatformLinuxAMD64, dbver.PlatformWindowsI586, "", "linux%"),
			Version:  ver, BinaryCode: img.Encode(), Format: pick(rng, "IMAGE", "IMAGE", "JAR"),
		}
		drivers = append(drivers, rec)
	}
	day := 24 * time.Hour
	// Sample code 2 matches the stored column as the LIKE string and
	// the client's value as the pattern: NULL columns are the
	// wildcards, and a stored "app%" is a literal.
	var perms []Permission
	for id := int64(1); id <= int64(4+rng.Intn(12)); id++ {
		p := Permission{
			PermissionID:     id,
			DriverID:         drivers[rng.Intn(len(drivers))].DriverID,
			User:             pick(rng, "", "", "app", "app%", "ops"),
			ClientIP:         pick(rng, "", "", "10.0.0.7", "10.0.%"),
			Database:         pick(rng, "", "prod", "prod", "test"),
			LeaseTime:        time.Duration(pick(rng, 0, 1500, 3000, 9000)) * time.Millisecond,
			RenewPolicy:      pick(rng, RenewKeep, RenewUpgrade, RenewUpgrade, RenewRevoke),
			ExpirationPolicy: pick(rng, AfterClose, AfterCommit, Immediate),
			TransferMethod:   TransferAny,
			DriverOptions:    pick(rng, "", "", "fetch=10"),
		}
		switch rng.Intn(4) {
		case 0: // expired window
			p.StartDate, p.EndDate = f.now.Add(-3*day), f.now.Add(-day)
		case 1: // current window
			p.StartDate, p.EndDate = f.now.Add(-day), f.now.Add(day)
		case 2: // future window
			p.StartDate, p.EndDate = f.now.Add(day), f.now.Add(2*day)
		}
		perms = append(perms, p)
	}
	for _, st := range []Store{f.catalog.store, f.sql.store, f.conn.store} {
		for _, rec := range drivers {
			if err := insertDriver(st, rec); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range perms {
			if err := insertPermission(st, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	return f
}

// TestCatalogMatchesSampleCode: the in-memory catalog and the paper's
// Sample code 1/2 SQL grant the same driver under the same lease terms,
// and fail with the same error code, for one request stream over a
// randomized catalog — permission wildcards, REVOKE rows, expired and
// future windows, preferences, renewals, and license mode at its cap.
// The servers' clock is months off the machine the stores run on, and
// the engine has no clock of its own, so the SQL judges a permission's
// date window by the server's clock, as the catalog does. The catalog
// over an external ConnStore answers the same stream alike.
func TestCatalogMatchesSampleCode(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		for _, license := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed=%d/license=%v", seed, license), func(t *testing.T) {
				f := newEquivFixture(t, seed, license)
				rng := rand.New(rand.NewSource(seed * 7919))
				var granted []Offer
				for i := 0; i < 120; i++ {
					req := Request{
						Database:         pick(rng, "prod", "prod", "p%", "test", "qa"),
						User:             pick(rng, "app", "app", "ap%", "ops", ""),
						ClientID:         pick(rng, "10.0.0.7", "10.0.%", "192.168.1.1", ""),
						API:              dbver.APIOf(pick(rng, "JDBC", "JDBC", "ODBC"), pick(rng, 3, -1), pick(rng, 0, -1)),
						ClientPlatform:   pick[dbver.Platform](rng, dbver.PlatformLinuxAMD64, dbver.PlatformWindowsI586),
						PreferredVersion: dbver.V(pick(rng, -1, -1, 1, 2, 3), pick(rng, -1, 0, 1), pick(rng, -1, 0)),
						PreferredFormat:  pick(rng, "", "", "IMAGE", "JAR"),
					}
					if len(granted) > 0 && rng.Intn(3) == 0 {
						prev := granted[rng.Intn(len(granted))]
						req.LeaseID = prev.LeaseID
						if rng.Intn(2) == 0 {
							req.CurrentChecksum = prev.DriverChecksum
						}
					}
					offA, errA := f.catalog.grant(req, false)
					offB, errB := f.sql.grant(req, false)
					offC, errC := f.conn.grant(req, false)
					if (errA == nil) != (errB == nil) || errA != nil && errA.Code != errB.Code {
						t.Fatalf("request %d %+v:\ncatalog: %v\n    sql: %v", i, req, errA, errB)
					}
					if offA != offB {
						t.Fatalf("request %d %+v:\ncatalog offer %+v\n    sql offer %+v", i, req, offA, offB)
					}
					if (errA == nil) != (errC == nil) || errA != nil && errA.Code != errC.Code || offA != offC {
						t.Fatalf("request %d %+v:\ncatalog: %+v %v\n   conn: %+v %v", i, req, offA, errA, offC, errC)
					}
					if errA == nil && req.LeaseID == 0 {
						granted = append(granted, offA)
					}
					f.now = f.now.Add(time.Duration(rng.Intn(1500)) * time.Millisecond)
				}
			})
		}
	}
}
