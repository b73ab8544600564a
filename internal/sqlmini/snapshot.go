package sqlmini

import (
	"fmt"

	"repro/internal/wire"
)

// snapshotVersion is the first byte of every snapshot. Snapshot writes
// it and Restore accepts no other: a snapshot goes from Snapshot to
// Restore inside one process (replica sync) and is never stored, so
// there is one format and no older one to read.
const snapshotVersion = 4

// Snapshot serializes the entire database (schema + rows) into a
// self-describing byte blob. Replication layers use it for backend
// resynchronization around a checkpoint (Sequoia, §5.3.1 of the paper)
// and for master/slave initial sync.
//
// It runs under ddlMu plus every table latch (acquired in sorted name
// order), so the blob is a consistent cut: it contains exactly the
// committed state, with no torn multi-table batch.
func (db *DB) Snapshot() []byte {
	db.ddlMu.Lock()
	defer db.ddlMu.Unlock()
	tables := db.sortedTables()
	for _, t := range tables {
		//lint:latch-ok canonical sorted-name multi-latch: sortedTables() fixes the order
		t.latch.Lock()
	}
	defer func() {
		for _, t := range tables {
			t.latch.Unlock()
		}
	}()

	e := wire.NewEncoder(4096)
	e.Uint8(snapshotVersion)
	e.Uint64(db.changeSeq.Load())
	e.Uint32(uint32(len(tables)))
	for _, t := range tables {
		e.String(t.Name)
		e.Uint32(uint32(len(t.Cols)))
		for _, c := range t.Cols {
			e.String(c.Name)
			e.Uint8(uint8(c.Type))
			e.Bool(c.NotNull)
			e.Bool(c.PrimaryKey)
			e.String(c.RefTable)
			e.String(c.RefColumn)
		}
		ixs := t.loadIndexes()
		e.Uint32(uint32(len(ixs)))
		for _, ix := range ixs {
			e.String(ix.name)
			e.Uint8(uint8(ix.kind))
			e.Uint8(uint8(len(ix.cols)))
			for _, ci := range ix.cols {
				e.String(t.Cols[ci].Name)
			}
		}
		// Only rows alive in the committed state are serialized: a
		// tombstoned chain head means the row is deleted, however many
		// prior versions GC has yet to reclaim.
		rows := t.rowsSnapshot()
		live := make([][]Value, 0, len(rows))
		for _, r := range rows {
			if vals := r.curVals(); vals != nil {
				live = append(live, vals)
			}
		}
		e.Uint32(uint32(len(live)))
		for _, vals := range live {
			for _, v := range vals {
				encodeValue(e, v)
			}
		}
	}
	return e.Bytes()
}

// Restore replaces the database contents with a snapshot produced by
// Snapshot. The replacement tables are built entirely off to the side;
// the swap itself holds ddlMu plus every pre-restore table latch, so
// in-flight statements complete against the old state and every
// statement starting after the swap sees only the new one.
func (db *DB) Restore(blob []byte) error {
	d := wire.NewDecoder(blob)
	// malformed reports the decode error when there is one (the field
	// was read past the end of the blob), else what the field got wrong.
	malformed := func(format string, args ...any) error {
		if err := d.Err(); err != nil {
			return fmt.Errorf("sqlmini: restore: %w", err)
		}
		return fmt.Errorf("sqlmini: restore: "+format, args...)
	}
	if ver := d.Uint8(); ver != snapshotVersion {
		return malformed("unsupported snapshot version %d", ver)
	}
	seq := d.Uint64()
	nTables := d.Count(16) // a name length and three counts
	tables := make(map[string]*Table, nTables)
	for i := 0; i < nTables; i++ {
		t := &Table{Name: d.String(), tid: tableIDs.Add(1)}
		// A column takes three string lengths, a type byte and two
		// flags. No statement makes a table without columns, and its
		// rows would be zero bytes wide: refuse one.
		nCols := d.Count(15)
		if nCols == 0 {
			return malformed("table %q has no columns", t.Name)
		}
		t.Cols = make([]ColumnDef, nCols)
		t.colIdx = make(map[string]int, nCols)
		for j := range t.Cols {
			c := ColumnDef{
				Name:       d.String(),
				Type:       Type(d.Uint8()),
				NotNull:    d.Bool(),
				PrimaryKey: d.Bool(),
				RefTable:   d.String(),
				RefColumn:  d.String(),
			}
			t.Cols[j] = c
			t.colIdx[c.Name] = j
		}
		var decls []*secondaryIndex
		nIdx := d.Count(6) // a name length, a kind byte and a column count
		for j := 0; j < nIdx; j++ {
			name, kind := d.String(), IndexKind(d.Uint8())
			var cols []int
			for k := int(d.Uint8()); k > 0; k-- {
				colName := d.String()
				ci, ok := t.colIdx[colName]
				if !ok {
					return malformed("index %q on unknown column %q of %s", name, colName, t.Name)
				}
				cols = append(cols, ci)
			}
			if kind != IndexHash && kind != IndexOrdered {
				return malformed("index %q has unknown kind %d", name, kind)
			}
			if len(cols) == 0 {
				return malformed("index %q of %s has no columns", name, t.Name)
			}
			decls = append(decls, newSecondaryIndex(name, cols, kind))
		}
		nRows := d.Count(len(t.Cols)) // a type byte per value
		if err := d.Err(); err != nil {
			return fmt.Errorf("sqlmini: restore: %w", err)
		}
		arr := newRowArr(nRows)
		for j := 0; j < nRows; j++ {
			vals := make([]Value, len(t.Cols))
			for k := range vals {
				v, err := decodeValue(d)
				if err != nil {
					return fmt.Errorf("sqlmini: restore: table %s: %w", t.Name, err)
				}
				vals[k] = v
			}
			// Version 0 is below every possible snapshot point, so
			// restored rows are visible to any reader immediately.
			arr = arr.append(newRow(vals, 0))
		}
		t.rows.Store(arr)
		t.initIndex()
		if decls != nil {
			t.storeIndexes(decls)
		}
		t.rebuildIndex()
		t.watermark.Store(seq)
		t.vers = db.tableCounter(t.Name)
		tables[t.Name] = t
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("sqlmini: restore: %w", err)
	}

	db.ddlMu.Lock()
	old := db.sortedTables()
	for _, t := range old {
		//lint:latch-ok canonical sorted-name multi-latch: sortedTables() fixes the order
		t.latch.Lock()
	}
	oldMap := *db.schema.Load()
	// The commit clock never moves backwards (reader snapshots taken
	// against the old state must stay well-formed numbers); it only
	// catches up when the snapshot's sequence is ahead.
	if db.commits.Load() < seq {
		db.commits.Store(seq)
	}
	db.changeSeq.Store(seq)
	db.schema.Store(&tables)
	db.schemaSeq.Add(1)
	// Every table that existed before or exists after counts as mutated:
	// caches keyed on TableVersion must see a resync as a change (the
	// GenerationStore contract in core/store.go rests on this). Bumps
	// come after the schema swap so a generation probe can never observe
	// the new version before the new data is resolvable.
	for name := range oldMap {
		db.tableCounter(name).Add(1)
	}
	for name := range tables {
		if _, existed := oldMap[name]; !existed {
			db.tableCounter(name).Add(1)
		}
	}
	for _, t := range old {
		t.latch.Unlock()
	}
	db.ddlMu.Unlock()
	return nil
}

// EncodeValue appends v to e in the snapshot value format; network
// protocols reuse it for statement arguments and result rows.
func EncodeValue(e *wire.Encoder, v Value) { encodeValue(e, v) }

// DecodeValue reads one value in the snapshot value format.
func DecodeValue(d *wire.Decoder) (Value, error) { return decodeValue(d) }

func encodeValue(e *wire.Encoder, v Value) {
	e.Uint8(uint8(v.Type()))
	switch v.Type() {
	case TypeNull:
	case TypeInteger, TypeBigint, TypeBoolean:
		e.Int64(v.Int())
	case TypeDouble:
		e.Float64(v.Float())
	case TypeVarchar:
		e.String(v.Str())
	case TypeBlob:
		e.Bytes32(v.Bytes())
	case TypeTimestamp:
		e.Time(v.Time())
	}
}

func decodeValue(d *wire.Decoder) (Value, error) {
	t := Type(d.Uint8())
	if err := d.Err(); err != nil {
		return Null, err
	}
	switch t {
	case TypeNull:
		return Null, nil
	case TypeInteger, TypeBigint:
		return Coerce(NewInt(d.Int64()), t)
	case TypeBoolean:
		return NewBool(d.Int64() != 0), nil
	case TypeDouble:
		return NewFloat(d.Float64()), nil
	case TypeVarchar:
		return NewString(d.String()), nil
	case TypeBlob:
		return NewBytes(d.Bytes32()), nil
	case TypeTimestamp:
		return NewTime(d.Time()), nil
	default:
		return Null, fmt.Errorf("unknown value type %d", t)
	}
}
