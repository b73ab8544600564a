package sqlmini

import "sort"

// undoLog records inverse operations for an open transaction. Rollback
// applies them in reverse order. Entries address rows by pointer
// identity, which stays valid regardless of version pushes, row-list
// compaction, or index churn by other sessions.
type undoLog struct {
	entries []undoEntry
}

type undoKind int

const (
	undoInsert undoKind = iota + 1 // delete the row again
	undoUpdate                     // restore old values
	undoDelete                     // resurrect the row
)

type undoEntry struct {
	kind    undoKind
	table   *Table
	row     *Row
	oldVals []Value
}

func (u *undoLog) recordInsert(t *Table, r *Row) {
	u.entries = append(u.entries, undoEntry{kind: undoInsert, table: t, row: r})
}

// recordUpdate and recordDelete keep old, the values of the version the
// statement supersedes: a version never changes its values, so the log
// aliases them instead of copying.
func (u *undoLog) recordUpdate(t *Table, r *Row, old []Value) {
	u.entries = append(u.entries, undoEntry{kind: undoUpdate, table: t, row: r, oldVals: old})
}

func (u *undoLog) recordDelete(t *Table, r *Row, old []Value) {
	u.entries = append(u.entries, undoEntry{kind: undoDelete, table: t, row: r, oldVals: old})
}

// lockEntryTables latches every distinct table the log touched, in
// name order, the order of every other multi-latch path (batches and
// the GC round), so the global lock graph stays acyclic. The returned
// slice is also the unlock list.
func (u *undoLog) lockEntryTables() []*Table {
	tables := u.entryTables()
	sort.Slice(tables, func(i, j int) bool { return tables[i].Name < tables[j].Name })
	for _, t := range tables {
		//lint:latch-ok canonical sorted-name multi-latch: tables sorted by name just above
		t.latch.Lock()
	}
	return tables
}

// revert applies the undo log in reverse as one atomic write: all
// touched tables are latched up front and the whole rollback shares a
// single commit number, so snapshot readers see either the pre-revert
// or the post-revert state of each table, never a torn mix. Undo is
// purely version-push — even "remove the inserted row" pushes a
// tombstone — so the normal MVCC machinery (visibility, GC, stale
// index entries) covers readers that overlap the rollback.
func (u *undoLog) revert(db *DB) {
	if len(u.entries) == 0 {
		u.entries = nil
		return
	}
	tables := u.lockEntryTables()
	c := db.commits.Add(1)
	u.applyEntries(c)
	// One version bump per touched table — after the watermark publish,
	// so generation probes never flag unreadable state.
	for _, t := range tables {
		t.watermark.Store(c)
		t.vers.Add(1)
		t.maybeGCLocked(db)
		t.latch.Unlock()
	}
	u.entries = nil
}

// applyEntries runs the undo operations in reverse under already-held
// latches, stamping every pushed version with c. Shared by rollback
// (which latches via lockEntryTables) and atomic-batch failure (which
// already holds every latch it could need).
func (u *undoLog) applyEntries(c uint64) {
	for i := len(u.entries) - 1; i >= 0; i-- {
		e := u.entries[i]
		t := e.table
		switch e.kind {
		case undoInsert:
			t.gc.enqueue(gcItem{c: c, row: e.row, unlink: true})
			e.row.push(t, newTombstone(), c)
		case undoUpdate:
			cur := e.row.cur()
			if e.row.unlinked || cur.dead() {
				// The row was deleted (and possibly physically removed)
				// by another session after our update; restoring values
				// would resurrect it against that session's committed
				// delete. The delete wins.
				continue
			}
			// Register restored keys (GC may have dropped their entries)
			// and queue removal hints for the keys being reverted away.
			nv := t.nextVersion(e.oldVals)
			e.row.push(t, nv, c)
			t.indexUpdate(e.row, nv, cur, c)
			t.gc.enqueue(gcItem{c: c, row: e.row})
		case undoDelete:
			if e.row.unlinked {
				// GC already unlinked the row (no reader floor pinned it);
				// re-link it before resurrecting.
				e.row.unlinked = false
				arr := t.rows.Load()
				if na := arr.append(e.row); na != arr {
					t.rows.Store(na)
				}
			}
			e.row.push(t, t.nextVersion(e.oldVals), c)
			t.indexInsert(e.row, false) // GC may have dropped the entries
			t.gc.enqueue(gcItem{c: c, row: e.row})
		}
	}
}

// entryTables returns the distinct tables the log touched, unsorted.
func (u *undoLog) entryTables() []*Table {
	var tables []*Table
	for _, e := range u.entries {
		found := false
		for _, t := range tables {
			if t == e.table {
				found = true
				break
			}
		}
		if !found {
			tables = append(tables, e.table)
		}
	}
	return tables
}
