package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/sqlmini"
)

// BenchmarkLeaseStatementsAt20000Leases times the server's hot lease
// statements, prepared, straight against the engine over a 20 000-row
// lease table built as drivobench's per-layer replay builds it: one
// driver, every lease its own expiry, an hour and more ahead.
//
//   - renew_update: the no-change renewal (renewNoChangeSQL), walking
//     the table, each to a fresh expiry past every other.
//   - lease_select: the lease read by primary key (LeaseByID's).
//   - sweep_update: the reaper's UPDATE (reapExpiredSQL) finding
//     nothing expired, the cost of its skip-scan seek.
//   - license_probe: license mode's driver check (driverLeaseFreeSQL),
//     a seek into the driver's window that gathers its last ten leases.
//
// Run at -cpu 1 and alternate builds to compare: the engine's per-call
// cost, without the wire and the scheduler drivobench measures it
// through.
func BenchmarkLeaseStatementsAt20000Leases(b *testing.B) {
	const rows = 20000
	db := sqlmini.NewDB()
	for _, ddl := range SchemaStatements() {
		if _, err := db.Exec(ddl); err != nil {
			b.Fatal(err)
		}
	}
	now := time.Now()
	expiry := func(i int) time.Time { return now.Add(time.Hour + time.Duration(i)*time.Millisecond) }
	const batch = 200
	for lo := 0; lo < rows; lo += batch {
		var sb strings.Builder
		sb.WriteString(`INSERT INTO ` + LeasesTable + ` (lease_id, driver_id, database,
			user, client_id, granted_at, expires_at, released, renewals) VALUES `)
		args := sqlmini.Args{"g": now}
		for i := lo; i < lo+batch; i++ {
			if i > lo {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d, 1, 'prod', 'app', 'client-%d', $g, $e%d, FALSE, 0)", i+1, i, i-lo)
			args[fmt.Sprintf("e%d", i-lo)] = expiry(i)
		}
		if _, err := db.Exec(sb.String(), args); err != nil {
			b.Fatal(err)
		}
	}
	runtime.GC()
	next, last := 0, expiry(rows-1) // last: the newest expiry in the table
	for _, c := range []struct {
		name, sql string
		args      sqlmini.Args
		bind      func(a sqlmini.Args)
	}{
		{"renew_update", renewNoChangeSQL, sqlmini.Args{"drv": int64(1)}, func(a sqlmini.Args) {
			next++
			last = now.Add(2*time.Hour + time.Duration(next)*time.Millisecond)
			a["id"], a["exp"] = int64(next%rows+1), last
		}},
		{"lease_select", leaseSelect + ` WHERE lease_id = $id`, sqlmini.Args{}, func(a sqlmini.Args) {
			next++
			a["id"] = int64(next%rows + 1)
		}},
		{"sweep_update", reapExpiredSQL, sqlmini.Args{"now": now}, func(sqlmini.Args) {}},
		{"license_probe", driverLeaseFreeSQL, sqlmini.Args{"id": int64(1)}, func(a sqlmini.Args) {
			a["now"] = last.Add(-10 * time.Millisecond)
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			st, err := db.Prepare(c.sql)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.bind(c.args)
				if _, err := st.Exec(c.args); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
