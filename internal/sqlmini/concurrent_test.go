package sqlmini

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// Randomized concurrent-mutation suite for the MVCC engine. Every
// scenario is seed-reproducible: the workload each goroutine runs is a
// pure function of (seed, worker id), so a failure under
// `go test -race -run TestConcurrentRandomized` recurs with the same
// seed list. The suite leans on three invariants that hold under any
// interleaving:
//
//  1. Balance conservation — atomic batches transfer amounts between
//     rows, so the amounts of every snapshot read sum to a constant.
//  2. Parity — a table whose committed values are always even, briefly
//     perturbed only by even deltas inside rolled-back transactions.
//  3. Settled-state structure — after the storm, a forced GC must leave
//     every index exactly consistent with a full scan, and the balance
//     total intact.

const (
	concAccounts = 16
	concTotal    = concAccounts * 1000
)

func concurrentSeedDB(t testing.TB) *DB {
	db := NewDB()
	db.MustExec("CREATE TABLE bal (id INTEGER NOT NULL PRIMARY KEY, amount INTEGER NOT NULL, tag VARCHAR)")
	db.MustExec("CREATE INDEX bal_tag ON bal (tag)")
	db.MustExec("CREATE TABLE parity (id INTEGER NOT NULL PRIMARY KEY, v INTEGER NOT NULL)")
	db.MustExec("CREATE TABLE scratch (id INTEGER NOT NULL PRIMARY KEY, owner INTEGER, score INTEGER)")
	db.MustExec("CREATE INDEX scratch_owner_score ON scratch (owner, score) USING ORDERED")
	for i := 0; i < concAccounts; i++ {
		db.MustExec("INSERT INTO bal (id, amount, tag) VALUES (?, ?, ?)", i, concTotal/concAccounts, fmt.Sprintf("g%d", i%4))
		db.MustExec("INSERT INTO parity (id, v) VALUES (?, ?)", i, 2*i)
	}
	return db
}

// checkBalanceTotal sums the amounts one read of the bal table
// returned (balanceSQL).
func checkBalanceTotal(t *testing.T, res *Result, where string) {
	t.Helper()
	if len(res.Rows) != concAccounts {
		t.Errorf("%s: balance read returned %d rows, want %d", where, len(res.Rows), concAccounts)
		return
	}
	var got int64
	for _, row := range res.Rows {
		got += row[0].Int()
	}
	if got != concTotal {
		t.Errorf("%s: balance sum = %d, want %d (torn read)", where, got, concTotal)
	}
}

// balanceSQL reads every account's amount in one statement.
const balanceSQL = "SELECT amount FROM bal"

func TestConcurrentRandomized(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runConcurrentStorm(t, seed)
		})
	}
}

func runConcurrentStorm(t *testing.T, seed int64) {
	db := concurrentSeedDB(t)
	const (
		writers = 4
		readers = 4
		opsPer  = 300
	)
	renew, err := db.Prepare("UPDATE bal SET tag = ? WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var writerWG, readerWG sync.WaitGroup

	// Writers: balance transfers via atomic batch, parity churn via
	// rolled-back transactions, insert/delete churn in an owned scratch
	// id range, occasional prepared updates and index-driven deletes.
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			rng := rand.New(rand.NewSource(seed*1000 + int64(w)))
			base := (w + 1) * 100000 // owned scratch id range
			next := base
			for op := 0; op < opsPer; op++ {
				switch rng.Intn(10) {
				case 0, 1, 2: // balance transfer, atomic and isolated
					a, b := rng.Intn(concAccounts), rng.Intn(concAccounts)
					d := rng.Intn(50)
					_, err := db.ExecBatchAtomic([]BatchStmt{
						{SQL: "UPDATE bal SET amount = amount - ? WHERE id = ?", Args: []any{d, a}},
						{SQL: "UPDATE bal SET amount = amount + ? WHERE id = ?", Args: []any{d, b}},
					})
					if err != nil {
						t.Errorf("writer %d: transfer: %v", w, err)
						return
					}
				case 3, 4: // parity churn that always rolls back
					s := db.NewSession()
					s.Exec("BEGIN")                                                            //nolint:errcheck
					s.Exec("UPDATE parity SET v = v + 2 WHERE id = ?", rng.Intn(concAccounts)) //nolint:errcheck
					s.Exec("INSERT INTO parity (id, v) VALUES (?, ?)", 10000+w, rng.Intn(4)*2) //nolint:errcheck
					s.Exec("DELETE FROM parity WHERE id = ?", rng.Intn(concAccounts))          //nolint:errcheck
					// Odd deltas only ever target a row that doesn't exist:
					// committed state must stay even at every instant, because
					// session transactions publish per statement.
					s.Exec("UPDATE parity SET v = v + 1 WHERE id = ?", -1) //nolint:errcheck
					s.Exec("ROLLBACK")                                     //nolint:errcheck
					s.Close()
				case 5, 6: // scratch insert
					next++
					db.MustExec("INSERT INTO scratch (id, owner, score) VALUES (?, ?, ?)", next, w, rng.Intn(100))
				case 7: // scratch delete through the composite index
					db.MustExec("DELETE FROM scratch WHERE owner = ? AND score >= ?", w, rng.Intn(100))
				case 8: // prepared update, concurrent use of one handle
					if _, err := renew.Exec(fmt.Sprintf("g%d", rng.Intn(4)), rng.Intn(concAccounts)); err != nil {
						t.Errorf("writer %d: prepared: %v", w, err)
						return
					}
				case 9: // failing batch must revert its applied prefix
					_, err := db.ExecBatchAtomic([]BatchStmt{
						{SQL: "UPDATE bal SET amount = amount - 7 WHERE id = ?", Args: []any{rng.Intn(concAccounts)}},
						{SQL: "UPDATE bal SET amount = NULL WHERE id = ?", Args: []any{rng.Intn(concAccounts)}},
					})
					if err == nil {
						t.Errorf("writer %d: a batch storing NULL in a NOT NULL column succeeded", w)
						return
					}
				}
			}
		}(w)
	}

	// Readers: snapshot reads that must never tear, index probes,
	// Explain (lock-free planner) and generation probes.
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			rng := rand.New(rand.NewSource(seed*2000 + int64(r)))
			for !stop.Load() {
				switch rng.Intn(7) {
				case 0, 1, 2:
					res, err := db.Exec(balanceSQL)
					if err != nil {
						t.Errorf("reader %d: sum: %v", r, err)
						return
					}
					checkBalanceTotal(t, res, "reader")
				case 3:
					res, err := db.Exec("SELECT v FROM parity WHERE id >= 0")
					if err != nil {
						t.Errorf("reader %d: parity: %v", r, err)
						return
					}
					for _, row := range res.Rows {
						if row[0].Int()%2 != 0 {
							t.Errorf("reader %d: odd committed parity value %d", r, row[0].Int())
							return
						}
					}
				case 4:
					if _, err := db.Exec("SELECT count(*) FROM bal WHERE tag = ?", fmt.Sprintf("g%d", rng.Intn(4))); err != nil {
						t.Errorf("reader %d: tag count: %v", r, err)
						return
					}
				case 5:
					if _, err := db.Exec("SELECT id FROM scratch WHERE owner = ? AND score > ?", rng.Intn(4)+1, rng.Intn(100)); err != nil {
						t.Errorf("reader %d: scratch probe: %v", r, err)
						return
					}
				case 6:
					if _, err := db.Explain("SELECT id FROM scratch WHERE owner = 1 AND score > 5"); err != nil {
						t.Errorf("reader %d: explain: %v", r, err)
						return
					}
					db.TableVersion("bal")
					db.TableVersions("bal", "parity", "scratch")
				}
			}
		}(r)
	}

	// Writers are op-bounded; readers loop until told the storm is over.
	writerWG.Wait()
	stop.Store(true)
	readerWG.Wait()

	// Settled-state checks.
	db.gcAll()
	res := db.MustExec(balanceSQL)
	checkBalanceTotal(t, res, "final")
	for _, tab := range []string{"bal", "parity", "scratch"} {
		indexConsistent(t, db, tab)
	}
	// Parity rollbacks must have left the table exactly as seeded.
	res = db.MustExec("SELECT count(*) FROM parity")
	if res.Rows[0][0].Int() != concAccounts {
		t.Fatalf("parity row count %d after rollback storm, want %d", res.Rows[0][0].Int(), concAccounts)
	}
}
