package sqlmini

import (
	"fmt"
	"testing"
	"time"
)

func benchDB(b *testing.B, rows int) *DB {
	b.Helper()
	db := NewDB()
	db.MustExec("CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY, name VARCHAR, score INTEGER)")
	for i := 0; i < rows; i++ {
		db.MustExec("INSERT INTO t (id, name, score) VALUES (?, ?, ?)", i, fmt.Sprintf("row-%d", i), i%100)
	}
	return db
}

func BenchmarkParse(b *testing.B) {
	const q = `SELECT binary_format, binary_code FROM information_schema.drivers
		WHERE api_name LIKE $a AND (platform IS NULL OR platform LIKE $p)
		ORDER BY driver_version_major DESC`
	for i := 0; i < b.N; i++ {
		if _, err := Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectPoint(b *testing.B) {
	db := benchDB(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec("SELECT name FROM t WHERE id = ?", i%1000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectScanFilter(b *testing.B) {
	db := benchDB(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec("SELECT id FROM t WHERE score > 50 AND name LIKE 'row-%'"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsert(b *testing.B) {
	db := NewDB()
	db.MustExec("CREATE TABLE t (id INTEGER, v VARCHAR)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec("INSERT INTO t (id, v) VALUES (?, ?)", i, "value"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUpdateWhere(b *testing.B) {
	db := benchDB(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec("UPDATE t SET score = score + 1 WHERE id = ?", i%1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRenewalGCAt{200,20000}Rows time a lease renewal — the
// prepared guarded UPDATE that moves expires_at in two ordered indexes
// — with its share of the deferred GC that drops the two superseded
// entries. GC removes them through node handles and each new expiry
// sorts after every other, so both inserts append at the tail without
// walking: only cache misses should grow across the 100× rows.
func BenchmarkRenewalGCAt200Rows(b *testing.B)   { benchRenewalGC(b, 200) }
func BenchmarkRenewalGCAt20000Rows(b *testing.B) { benchRenewalGC(b, 20000) }

func benchRenewalGC(b *testing.B, rows int) {
	base := time.Unix(1_700_000_000, 0)
	db := leaseTableDB(b, rows, base)
	renew, err := db.Prepare(renewLeaseSQL)
	if err != nil {
		b.Fatal(err)
	}
	args := Args{"drv": int64(1)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		args["id"] = int64(i%rows + 1)
		args["exp"] = base.Add(time.Hour + time.Duration(i)*time.Millisecond)
		if _, err := renew.Exec(args); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAggregate(b *testing.B) {
	db := benchDB(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec("SELECT count(*), max(score), avg(score) FROM t"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLike(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Like("linux-x86_64", "linux-%")
		Like("JDBC", "%DB%")
		Like("windows-i586", "linux-%")
	}
}
