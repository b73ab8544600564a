package sqlmini

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/wire"
)

// oversizedSnapshot is 22 bytes: the snapshot version, a sequence
// number, one table named t, then a column count of 0x7FFFFFFF that
// nothing behind it backs.
var oversizedSnapshot = []byte{
	snapshotVersion,
	0, 0, 0, 0, 0, 0, 0, 7, // sequence number
	0, 0, 0, 1, // one table
	0, 0, 0, 1, 't', // named t
	0x7f, 0xff, 0xff, 0xff, // claiming 0x7FFFFFFF columns
}

// TestRestoreRefusesOversizedCounts: a snapshot whose counts claim more
// elements than its bytes can hold is refused with wire.ErrShortBuffer
// before any count sizes an allocation. The 22-byte blob fails at its
// table count (a table takes at least 16 bytes); padded, it reaches and
// fails at its column count.
func TestRestoreRefusesOversizedCounts(t *testing.T) {
	for _, blob := range [][]byte{oversizedSnapshot, append(bytes.Clone(oversizedSnapshot), make([]byte, 16)...)} {
		if err := NewDB().Restore(blob); !errors.Is(err, wire.ErrShortBuffer) {
			t.Fatalf("Restore of %d bytes: err = %v, want wire.ErrShortBuffer", len(blob), err)
		}
	}
}

// FuzzSnapshotRestore feeds arbitrary bytes to Restore, seeded with a
// real snapshot (hash, ordered and composite indexes, every value type)
// and with oversizedSnapshot. Restore must not panic; a blob it accepts
// leaves a database whose own Snapshot restores into a fresh one and
// comes back byte for byte. The seed corpus runs as part of plain
// `go test`.
func FuzzSnapshotRestore(f *testing.F) {
	src := NewDB()
	src.MustExec("CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY, grp VARCHAR, v DOUBLE, at TIMESTAMP, b BLOB, ok BOOLEAN)")
	src.MustExec("CREATE INDEX t_grp ON t (grp)")
	src.MustExec("CREATE INDEX t_grp_v ON t (grp, v) USING ORDERED")
	src.MustExec("CREATE TABLE u (id INTEGER, t_id INTEGER REFERENCES t(id))")
	src.MustExec("INSERT INTO t VALUES (1, 'a', 1.5, ?, ?, TRUE)", time.Unix(1, 0), []byte{1, 2})
	src.MustExec("INSERT INTO t VALUES (2, NULL, NULL, NULL, NULL, FALSE)")
	src.MustExec("INSERT INTO u VALUES (1, 1)")
	f.Add(src.Snapshot())
	f.Add(oversizedSnapshot)
	f.Fuzz(func(t *testing.T, blob []byte) {
		db := NewDB()
		if err := db.Restore(blob); err != nil {
			return
		}
		snap := db.Snapshot()
		fresh := NewDB()
		if err := fresh.Restore(snap); err != nil {
			t.Fatalf("accepted blob %x, but not its database's own snapshot %x: %v", blob, snap, err)
		}
		if again := fresh.Snapshot(); !bytes.Equal(again, snap) {
			t.Fatalf("snapshot %x restored, then snapshotted as %x", snap, again)
		}
	})
}
