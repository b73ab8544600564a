package sqlmini

import (
	"slices"
	"testing"
)

// selectAt runs a SELECT at snapshot s, as a reader registered at s
// would, and returns the first column of every row it returns.
func selectAt(t *testing.T, db *DB, s uint64, src string, args ...any) []int64 {
	t.Helper()
	ps, err := db.ParseCached(src)
	if err != nil {
		t.Fatal(err)
	}
	env := &evalEnv{}
	if err := env.Bind(ps, args); err != nil {
		t.Fatal(err)
	}
	st := ps.st.(*SelectStmt)
	tbl, err := db.lookupTable(st.Table)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.execSelect(tbl, tableView{t: tbl, s: s}, st, env)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for _, row := range res.Rows {
		ids = append(ids, row[0].Int())
	}
	return ids
}

// TestHashIndexSeesVisibleKey: a hash probe finds a row by the key of
// the version its caller sees. An UPDATE moves a row's primary key and
// its hash-indexed column while a reader holds a snapshot from before:
// that snapshot finds the row by its old keys and not by its new ones,
// a fresh snapshot and the writer find it only by its new keys, an
// integer probe still meets the VARCHAR key that spells it, and once
// the reader is gone a GC round leaves nothing filed under the old
// keys.
func TestHashIndexSeesVisibleKey(t *testing.T) {
	db := NewDB()
	db.MustExec("CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY, k VARCHAR)")
	db.MustExec("CREATE INDEX t_k ON t (k)")
	db.MustExec("INSERT INTO t (id, k) VALUES (1, '7'), (2, 'other')")
	tbl, err := db.lookupTable("t")
	if err != nil {
		t.Fatal(err)
	}
	slot := db.readers.acquire()
	held := tbl.watermark.Load()
	db.readers.publish(slot, held)
	db.MustExec("UPDATE t SET id = 10, k = '8' WHERE id = 1")
	fresh := tbl.watermark.Load()

	for _, c := range []struct {
		what string
		s    uint64
		src  string
		arg  any
		want []int64
	}{
		{"held, old id", held, "SELECT id FROM t WHERE id = ?", 1, []int64{1}},
		{"held, new id", held, "SELECT id FROM t WHERE id = ?", 10, nil},
		{"held, old k", held, "SELECT id FROM t WHERE k = ?", "7", []int64{1}},
		{"held, old k as an integer", held, "SELECT id FROM t WHERE k = ?", 7, []int64{1}},
		{"held, new k", held, "SELECT id FROM t WHERE k = ?", "8", nil},
		{"fresh, old id", fresh, "SELECT id FROM t WHERE id = ?", 1, nil},
		{"fresh, new id", fresh, "SELECT id FROM t WHERE id = ?", 10, []int64{10}},
		{"fresh, old k", fresh, "SELECT id FROM t WHERE k = ?", "7", nil},
		{"fresh, new k", fresh, "SELECT id FROM t WHERE k = ?", "8", []int64{10}},
		{"fresh, new k as an integer", fresh, "SELECT id FROM t WHERE k = ?", 8, []int64{10}},
	} {
		if got := selectAt(t, db, c.s, c.src, c.arg); !slices.Equal(got, c.want) {
			t.Errorf("%s: %v, want %v", c.what, got, c.want)
		}
	}
	if res := db.MustExec("UPDATE t SET k = 'x' WHERE id = 1"); res.Affected != 0 {
		t.Fatalf("the writer updated %d rows by the old id", res.Affected)
	}
	if res := db.MustExec("DELETE FROM t WHERE k = '7'"); res.Affected != 0 {
		t.Fatalf("the writer deleted %d rows by the old k", res.Affected)
	}

	db.readers.release(slot)
	db.gcAll()
	pk, k := filedUnder(tbl.pkIx, NewInt(1)), filedUnder(tbl.indexNamed("t_k").hash, NewString("7"))
	if len(pk) != 0 || len(k) != 0 {
		t.Fatalf("after GC, %d rows are still filed under the old id and %d under the old k", len(pk), len(k))
	}
	if got := filedUnder(tbl.pkIx, NewInt(10)); len(got) != 1 {
		t.Fatalf("after GC, %d rows are filed under the new id, want 1", len(got))
	}
	indexConsistent(t, db, "t")
}

// filedUnder returns the rows h files under key's hash, whatever
// version of them any reader sees.
func filedUnder(h *hashIndex, key Value) []*Row {
	hv := h.hashOf(hashKeyOf(key))
	tab := h.tab.Load()
	mask := uint64(len(tab.slots) - 1)
	var out []*Row
	for i := hv & mask; tab.slots[i].row.Load() != nil; i = (i + 1) & mask {
		if r := tab.slots[i].row.Load(); r != hashTomb && tab.slots[i].hash == hv {
			out = append(out, r)
		}
	}
	return out
}
