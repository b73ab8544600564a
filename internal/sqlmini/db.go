package sqlmini

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Engine-level errors.
var (
	// ErrNoSuchTable reports a reference to an undefined table.
	ErrNoSuchTable = errors.New("sqlmini: no such table")
	// ErrNoSuchColumn reports a reference to an undefined column.
	ErrNoSuchColumn = errors.New("sqlmini: no such column")
	// ErrDuplicateKey reports a primary-key violation.
	ErrDuplicateKey = errors.New("sqlmini: duplicate primary key")
	// ErrNotNull reports a NOT NULL violation.
	ErrNotNull = errors.New("sqlmini: NOT NULL constraint violated")
	// ErrForeignKey reports a REFERENCES violation.
	ErrForeignKey = errors.New("sqlmini: foreign key constraint violated")
	// ErrNoTransaction reports COMMIT/ROLLBACK without BEGIN.
	ErrNoTransaction = errors.New("sqlmini: no transaction in progress")
	// ErrTxInProgress reports BEGIN inside an open transaction.
	ErrTxInProgress = errors.New("sqlmini: transaction already in progress")
	// ErrMissingParam reports an unbound statement parameter.
	ErrMissingParam = errors.New("sqlmini: missing parameter")
)

// Args supplies named parameter bindings ($name) for a statement.
type Args map[string]any

// Result is the outcome of a statement.
type Result struct {
	// Cols names the result columns (SELECT only).
	Cols []string
	// Rows holds the result set (SELECT only).
	Rows [][]Value
	// Affected counts rows touched by INSERT/UPDATE/DELETE.
	Affected int
}

// Table holds column definitions and rows. Column structure is
// immutable after creation; row and index state is mutated only under
// the table's latch and read lock-free through the atomics.
type Table struct {
	Name   string
	Cols   []ColumnDef
	colIdx map[string]int

	// tid is a process-unique creation id; rollbacks use it to break
	// latch-ordering ties between same-named tables across DROP+CREATE.
	tid uint64

	// latch is the per-table write latch: one writing statement per
	// table at a time. Multi-table operations (atomic batches,
	// rollbacks, snapshots) acquire latches in sorted name order, which
	// makes the lock graph acyclic (see docs/ARCHITECTURE.md).
	latch sync.Mutex

	// rows is the published row list; watermark is the newest commit
	// number visible to snapshot readers of this table.
	rows      atomic.Pointer[rowArr]
	watermark atomic.Uint64

	// pk is the PRIMARY KEY column index (-1 if none); pkIx holds the
	// canonical key → rows buckets for O(1) uniqueness checks and
	// point lookups.
	pk   int
	pkIx *hashIndex

	// indexes is the published secondary-index set (CREATE INDEX),
	// copy-on-write under ddlMu + latch.
	indexes atomic.Pointer[[]*secondaryIndex]

	// gc queues deferred version-chain pruning and stale index-entry
	// removal; guarded by latch.
	gc gcState

	// vers is the table's mutation counter, shared by name across
	// DROP + CREATE (see DB.tableVers).
	vers *atomic.Uint64
}

func (t *Table) columnIndex(name string) (int, bool) {
	i, ok := t.colIdx[name]
	return i, ok
}

// rowsSnapshot returns the published row list (may include rows that
// are dead or invisible at a given snapshot; callers filter).
func (t *Table) rowsSnapshot() []*Row { return t.rows.Load().snapshot() }

// DB is an embedded database instance. The zero value is not usable; call
// NewDB.
//
// Lock hierarchy (enforced by drivolint's latchorder analyzer): DDL
// and whole-database operations take ddlMu first and may then latch
// tables; multiple Table.latch acquisitions go through the canonical
// sorted-name loops only; the statement cache lock never nests.
//
//lint:latch-order DB.ddlMu < Table.latch
//lint:latch-leaf DB.cacheMu
type DB struct {
	// ddlMu serializes schema changes (CREATE/DROP TABLE, index DDL,
	// Restore) and whole-database operations (Snapshot). Statements
	// never take it: they resolve their table from the published schema
	// map and re-check identity after latching.
	ddlMu  sync.Mutex
	schema atomic.Pointer[map[string]*Table]

	clock func() time.Time

	cacheMu sync.RWMutex
	cache   map[string]Statement

	// commits is the engine-wide commit clock: every mutating statement
	// that touches at least one row draws one number from it to stamp
	// its row versions. Snapshot readers never load it directly — they
	// read their table's published watermark.
	commits atomic.Uint64

	// changeSeq is the replication-facing mutation counter (ChangeSeq).
	// It advances by exactly one per successful mutating statement (and
	// per DDL statement and rollback), never on partial failures —
	// the historical contract replicas compare against — so it is kept
	// separate from the commit clock, which must advance for any row
	// version stamped, partial prefixes included.
	changeSeq atomic.Uint64

	// tableVers counts mutations per table name (keyed by name, not
	// *Table, so the counter survives DROP + CREATE). Cache layers above
	// the engine use it to invalidate snapshots of individual tables
	// without being perturbed by churn elsewhere in the database.
	// Values are *atomic.Uint64, so generation probes are lock-free.
	tableVers sync.Map

	// schemaSeq increments whenever table or index *structure* changes
	// (CREATE/DROP TABLE, index creation or upgrade, snapshot restore) —
	// never on row churn. Prepared statements cache their plan skeleton
	// against it: an unchanged schemaSeq proves the analyzed table
	// pointer and its index set are still the live ones.
	schemaSeq atomic.Uint64

	// readers registers in-flight snapshot reads so GC can compute a
	// safe reclamation floor.
	readers readerSlots
}

// tableIDs issues process-unique table creation ids (see Table.tid).
var tableIDs atomic.Uint64

// Option configures a DB.
type Option func(*DB)

// WithClock overrides the time source used by now(); tests use this to
// make lease expiry deterministic.
func WithClock(clock func() time.Time) Option {
	return func(db *DB) { db.clock = clock }
}

// NewDB creates an empty database.
func NewDB(opts ...Option) *DB {
	db := &DB{
		clock: time.Now,
		cache: make(map[string]Statement),
	}
	empty := make(map[string]*Table)
	db.schema.Store(&empty)
	for _, o := range opts {
		o(db)
	}
	return db
}

// lookupTable resolves a table from the published schema, lock-free.
func (db *DB) lookupTable(name string) (*Table, error) {
	m := *db.schema.Load()
	t, ok := m[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	return t, nil
}

// lockTable latches the named table, re-checking after acquisition
// that the latched object is still the published one (a concurrent
// DROP or Restore may have swapped it).
func (db *DB) lockTable(name string) (*Table, error) {
	for {
		t, err := db.lookupTable(name)
		if err != nil {
			return nil, err
		}
		t.latch.Lock()
		if cur, err2 := db.lookupTable(name); err2 == nil && cur == t {
			return t, nil
		}
		t.latch.Unlock()
	}
}

// sortedTables returns the current tables in name order (the canonical
// multi-latch acquisition order).
func (db *DB) sortedTables() []*Table {
	m := *db.schema.Load()
	out := make([]*Table, 0, len(m))
	for _, t := range m {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// tableCounter returns the shared per-name mutation counter.
func (db *DB) tableCounter(name string) *atomic.Uint64 {
	if v, ok := db.tableVers.Load(name); ok {
		return v.(*atomic.Uint64)
	}
	v, _ := db.tableVers.LoadOrStore(name, new(atomic.Uint64))
	return v.(*atomic.Uint64)
}

// ChangeSeq returns a counter that advances on every successful
// mutation. Equal counters on two replicas fed the same statement stream
// imply equal state.
func (db *DB) ChangeSeq() uint64 { return db.changeSeq.Load() }

// TableVersion returns a counter that advances on every successful
// mutation of the named table (INSERT/UPDATE/DELETE touching rows,
// CREATE, DROP, and transaction rollbacks that revert its rows). It is 0
// for tables never mutated. Unlike ChangeSeq it is per-table, so caches
// of one table are not invalidated by writes to another. The read is a
// single atomic load — generation probes never contend with statements.
func (db *DB) TableVersion(name string) uint64 {
	if v, ok := db.tableVers.Load(name); ok {
		return v.(*atomic.Uint64).Load()
	}
	return 0
}

// TableVersions returns the sum of TableVersion over names. Each
// mutation increments exactly one per-table counter before the
// mutating statement returns, so observed sums are monotonic and an
// unchanged sum across two calls implies no mutation completed between
// them.
func (db *DB) TableVersions(names ...string) uint64 {
	var sum uint64
	for _, n := range names {
		sum += db.TableVersion(n)
	}
	return sum
}

// TableNames returns the defined table names, sorted.
func (db *DB) TableNames() []string {
	m := *db.schema.Load()
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TableColumns returns the column definitions of the named table (in
// declaration order) and whether the table exists. Static tooling
// (drivolint's sqlcheck) uses it to validate column references against
// the live schema without executing anything.
func (db *DB) TableColumns(name string) ([]ColumnDef, bool) {
	m := *db.schema.Load()
	t, ok := m[name]
	if !ok {
		return nil, false
	}
	cols := make([]ColumnDef, len(t.Cols))
	copy(cols, t.Cols)
	return cols, true
}

// parseCached parses src, memoizing the AST. Statements are immutable
// after parsing (positional parameter indices are assigned at parse
// time), so sharing is safe.
func (db *DB) parseCached(src string) (Statement, error) {
	db.cacheMu.RLock()
	st, ok := db.cache[src]
	db.cacheMu.RUnlock()
	if ok {
		return st, nil
	}
	st, err := Parse(src)
	if err != nil {
		return nil, err
	}
	db.cacheMu.Lock()
	if len(db.cache) > 4096 { // crude bound; workloads reuse few shapes
		db.cache = make(map[string]Statement)
	}
	db.cache[src] = st
	db.cacheMu.Unlock()
	return st, nil
}

// Exec runs a statement in autocommit mode. If args is a single Args map,
// parameters bind by name ($name); otherwise they bind positionally (?).
func (db *DB) Exec(src string, args ...any) (*Result, error) {
	s := db.NewSession()
	defer s.Close()
	return s.Exec(src, args...)
}

// Query is Exec for statements expected to return rows.
func (db *DB) Query(src string, args ...any) (*Result, error) {
	return db.Exec(src, args...)
}

// MustExec runs Exec and panics on error; for tests and fixtures only.
func (db *DB) MustExec(src string, args ...any) *Result {
	r, err := db.Exec(src, args...)
	if err != nil {
		panic(fmt.Sprintf("sqlmini: MustExec(%q): %v", src, err))
	}
	return r
}

// Session is a connection-scoped execution context owning at most one
// open transaction. Sessions are not safe for concurrent use; each
// network session in the DBMS gets its own. Distinct sessions may run
// concurrently: reads take snapshots, writes serialize per table.
type Session struct {
	db *DB
	tx *undoLog
}

// NewSession creates an execution context.
func (db *DB) NewSession() *Session { return &Session{db: db} }

// InTx reports whether an explicit transaction is open.
func (s *Session) InTx() bool { return s.tx != nil }

// Close rolls back any open transaction.
func (s *Session) Close() {
	if s.tx != nil {
		s.rollback()
	}
}

func bindArgs(args []any) (named map[string]Value, positional []Value, err error) {
	if len(args) == 1 {
		if m, ok := args[0].(Args); ok {
			named = make(map[string]Value, len(m))
			for k, v := range m {
				val, err := FromGo(v)
				if err != nil {
					return nil, nil, fmt.Errorf("parameter $%s: %w", k, err)
				}
				named[strings.ToLower(k)] = val
			}
			return named, nil, nil
		}
	}
	positional = make([]Value, 0, len(args))
	for i, a := range args {
		v, err := FromGo(a)
		if err != nil {
			return nil, nil, fmt.Errorf("parameter %d: %w", i+1, err)
		}
		positional = append(positional, v)
	}
	return nil, positional, nil
}

// Exec executes one statement within this session.
func (s *Session) Exec(src string, args ...any) (*Result, error) {
	st, err := s.db.parseCached(src)
	if err != nil {
		return nil, err
	}
	named, positional, err := bindArgs(args)
	if err != nil {
		return nil, err
	}
	env := &evalEnv{clock: s.db.clock, named: named, positional: positional}

	switch st := st.(type) {
	case *BeginStmt:
		if s.tx != nil {
			return nil, ErrTxInProgress
		}
		s.tx = &undoLog{}
		return &Result{}, nil
	case *CommitStmt:
		if s.tx == nil {
			return nil, ErrNoTransaction
		}
		s.tx = nil
		return &Result{}, nil
	case *RollbackStmt:
		if s.tx == nil {
			return nil, ErrNoTransaction
		}
		s.rollback()
		return &Result{}, nil
	default:
		return s.db.execStmt(st, env, s.tx)
	}
}

// Query is Exec for row-returning statements.
func (s *Session) Query(src string, args ...any) (*Result, error) {
	return s.Exec(src, args...)
}

func (s *Session) rollback() {
	tx := s.tx
	s.tx = nil
	tx.revert(s.db)
}

// execStmt dispatches one non-transaction-control statement: SELECTs
// take the lock-free snapshot-read path, DML latches its table, DDL
// serializes on ddlMu.
func (db *DB) execStmt(st Statement, env *evalEnv, tx *undoLog) (*Result, error) {
	switch st := st.(type) {
	case *CreateTableStmt:
		return db.execCreate(st)
	case *CreateIndexStmt:
		return db.execCreateIndex(st)
	case *DropTableStmt:
		return db.execDrop(st)
	case *SelectStmt:
		return db.execSelectRead(st, env)
	case *InsertStmt:
		return db.writeOne(st.Table, env, func(t *Table, w *writeCtx) (*Result, error) {
			return db.execInsert(t, st, env, tx, w)
		})
	case *UpdateStmt:
		return db.writeOne(st.Table, env, func(t *Table, w *writeCtx) (*Result, error) {
			return db.execUpdate(t, st, env, tx, w)
		})
	case *DeleteStmt:
		return db.writeOne(st.Table, env, func(t *Table, w *writeCtx) (*Result, error) {
			return db.execDelete(t, st, env, tx, w)
		})
	default:
		return nil, fmt.Errorf("sqlmini: unsupported statement %T", st)
	}
}

// writeCtx tracks a write's commit numbers and the tables it touched.
// Each statement draws its commit number lazily at its first actual row
// mutation, so statements that match zero rows leave every counter
// untouched; the watermark publish at release makes all of a
// statement's (or batch's) row versions visible atomically. Batches
// reuse one writeCtx across statements, calling nextStmt between them,
// which preserves the one-commit-per-statement accounting while
// deferring visibility to the shared publish.
type writeCtx struct {
	db      *DB
	c       uint64 // current statement's commit number (0 = not drawn)
	touched []touchedTable
}

// touchedTable is one table's publish state within a writeCtx: the
// watermark to store (the last commit that wrote it) and the
// TableVersion increments owed (one per statement that wrote it).
type touchedTable struct {
	t          *Table
	mark, bump uint64
}

// commit returns the statement's commit number, drawing it on first use,
// and records t as touched by this statement.
func (w *writeCtx) commit(t *Table) uint64 {
	if w.c == 0 {
		w.c = w.db.commits.Add(1)
	}
	for i := range w.touched {
		if w.touched[i].t == t {
			if w.touched[i].mark != w.c {
				w.touched[i].mark = w.c
				w.touched[i].bump++ // one version bump per (statement, table)
			}
			return w.c
		}
	}
	w.touched = append(w.touched, touchedTable{t: t, mark: w.c, bump: 1})
	return w.c
}

// nextStmt starts the next statement of a batch: a fresh lazy commit
// number, same accumulated publish state.
func (w *writeCtx) nextStmt() { w.c = 0 }

// publish makes the write's mutations visible: per-table watermark
// store, then the version-counter bumps (in that order — a generation
// probe must never observe a bump before the data it flags is
// readable). Called with all touched tables' latches still held. Runs
// on the error path too: autocommit partial failures leave their
// applied prefix committed (documented semantics), so the versions
// stamped must become visible and the caches keyed on TableVersion
// must invalidate.
func (w *writeCtx) publish() {
	for _, tt := range w.touched {
		tt.t.watermark.Store(tt.mark)
		tt.t.vers.Add(tt.bump)
	}
}

// writeOne runs fn with the named table latched and publishes at the
// end. ChangeSeq advances only when the statement succeeded and
// actually mutated (drew a commit number) — the historical contract.
func (db *DB) writeOne(table string, env *evalEnv, fn func(*Table, *writeCtx) (*Result, error)) (*Result, error) {
	t, err := db.lockTable(table)
	if err != nil {
		return nil, err
	}
	w := &writeCtx{db: db}
	res, err := fn(t, w)
	if err == nil && w.c != 0 {
		db.changeSeq.Add(1)
	}
	w.publish()
	t.maybeGCLocked(db)
	t.latch.Unlock()
	return res, err
}

func (db *DB) execCreate(st *CreateTableStmt) (*Result, error) {
	db.ddlMu.Lock()
	defer db.ddlMu.Unlock()
	old := *db.schema.Load()
	if _, exists := old[st.Table]; exists {
		if st.IfNotExists {
			return &Result{}, nil
		}
		return nil, fmt.Errorf("sqlmini: table %q already exists", st.Table)
	}
	t := &Table{Name: st.Table, Cols: st.Cols, colIdx: make(map[string]int, len(st.Cols)), tid: tableIDs.Add(1)}
	for i, c := range st.Cols {
		if _, dup := t.colIdx[c.Name]; dup {
			return nil, fmt.Errorf("sqlmini: duplicate column %q in table %q", c.Name, st.Table)
		}
		t.colIdx[c.Name] = i
	}
	t.initIndex()
	t.vers = db.tableCounter(st.Table)
	t.watermark.Store(db.commits.Load())
	db.publishSchema(addTable(old, t))
	db.changeSeq.Add(1)
	t.vers.Add(1)
	return &Result{}, nil
}

// addTable / dropTable build a fresh schema map (copy-on-write).
func addTable(old map[string]*Table, t *Table) map[string]*Table {
	m := make(map[string]*Table, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	m[t.Name] = t
	return m
}

func dropTable(old map[string]*Table, name string) map[string]*Table {
	m := make(map[string]*Table, len(old))
	for k, v := range old {
		if k != name {
			m[k] = v
		}
	}
	return m
}

// publishSchema swaps the schema map and bumps schemaSeq. Caller holds
// ddlMu.
func (db *DB) publishSchema(m map[string]*Table) {
	db.schema.Store(&m)
	db.schemaSeq.Add(1)
}

func (db *DB) execCreateIndex(st *CreateIndexStmt) (*Result, error) {
	db.ddlMu.Lock()
	defer db.ddlMu.Unlock()
	t, err := db.lookupTable(st.Table)
	if err != nil {
		return nil, err
	}
	byName := t.indexNamed(st.Name)
	if byName != nil && !st.IfNotExists {
		return nil, fmt.Errorf("sqlmini: index %q already exists on table %q", st.Name, st.Table)
	}
	cols := make([]int, len(st.Cols))
	seen := make(map[int]bool, len(st.Cols))
	for i, cn := range st.Cols {
		ci, ok := t.columnIndex(cn)
		if !ok {
			return nil, fmt.Errorf("%w: %q in table %q", ErrNoSuchColumn, cn, st.Table)
		}
		if seen[ci] {
			return nil, fmt.Errorf("sqlmini: duplicate column %q in index %q", cn, st.Name)
		}
		seen[ci] = true
		cols[i] = ci
	}
	if len(cols) > 1 && st.Kind != IndexOrdered {
		return nil, fmt.Errorf("sqlmini: composite index %q requires USING ORDERED", st.Name)
	}
	return db.declareIndex(t, st.Name, cols, st.Kind)
}

// declareIndex applies the index-declaration ladder shared by CREATE
// INDEX and EnsureIndex. Caller holds ddlMu.
//
// A column set already served — the PRIMARY KEY's single column, or an
// earlier declaration over the identical column list — gets no second
// index: it would double every mutation's maintenance and never be
// consulted. The statement still succeeds, for DDL portability.
// Exception: an ORDERED declaration upgrades an existing hash index
// over the same columns in place (keeping its name), because the
// ordered structure strictly subsumes the hash one for planning; the
// reverse never downgrades. Composite indexes are independent of
// single-column ones sharing their leading column.
func (db *DB) declareIndex(t *Table, name string, cols []int, kind IndexKind) (*Result, error) {
	if len(cols) == 1 && cols[0] == t.pk {
		return &Result{}, nil
	}
	if prior := t.indexWithCols(cols); prior != nil {
		if kind == IndexOrdered && prior.kind == IndexHash {
			t.latch.Lock()
			t.removeIndex(prior)
			t.addIndex(prior.name, cols, kind)
			// Keep the superseded hash structure maintained as a shadow
			// of the new ordered index: a prepared plan bound just
			// before the upgrade may still probe it, and a frozen copy
			// would silently miss concurrent inserts.
			upgraded := t.indexNamed(prior.name)
			upgraded.shadow = prior.hash
			t.latch.Unlock()
			db.schemaSeq.Add(1)
		}
		return &Result{}, nil
	}
	if t.indexNamed(name) != nil {
		return &Result{}, nil // name taken by an index on other columns
	}
	t.latch.Lock()
	t.addIndex(name, cols, kind)
	t.latch.Unlock()
	db.schemaSeq.Add(1)
	// Index DDL does not change row data: ChangeSeq/TableVersion stay
	// put, so replica divergence checks and catalog caches are unmoved.
	return &Result{}, nil
}

// EnsureIndex declares a secondary hash index on table(col) from Go,
// equivalent to CREATE INDEX IF NOT EXISTS table_col_idx ON table (col).
// It is idempotent.
func (db *DB) EnsureIndex(table, col string) error {
	return db.ensureIndex(table, IndexHash, col)
}

// EnsureOrderedIndex declares a secondary ordered index on
// table(cols...) from Go, equivalent to CREATE INDEX IF NOT EXISTS
// table_col_idx ON table (cols...) USING ORDERED. An existing hash
// index over the same columns is upgraded in place; the call is
// idempotent. Multi-column lists declare a composite index.
func (db *DB) EnsureOrderedIndex(table string, cols ...string) error {
	return db.ensureIndex(table, IndexOrdered, cols...)
}

func (db *DB) ensureIndex(table string, kind IndexKind, colNames ...string) error {
	table = strings.ToLower(table)
	if len(colNames) == 0 {
		return fmt.Errorf("sqlmini: index on %q needs at least one column", table)
	}
	db.ddlMu.Lock()
	defer db.ddlMu.Unlock()
	t, err := db.lookupTable(table)
	if err != nil {
		return err
	}
	cols := make([]int, len(colNames))
	for i, cn := range colNames {
		cn = strings.ToLower(cn)
		colNames[i] = cn
		ci, ok := t.columnIndex(cn)
		if !ok {
			return fmt.Errorf("%w: %q in table %q", ErrNoSuchColumn, cn, table)
		}
		cols[i] = ci
	}
	// The generated name must not collide with a user-declared index on
	// other columns; suffix until free.
	base := strings.ReplaceAll(table, ".", "_") + "_" + strings.Join(colNames, "_") + "_idx"
	name := base
	for n := 2; ; n++ {
		prior := t.indexNamed(name)
		if prior == nil {
			break
		}
		sameCols := len(prior.cols) == len(cols)
		for i := range cols {
			if !sameCols || prior.cols[i] != cols[i] {
				sameCols = false
				break
			}
		}
		if sameCols {
			break // declareIndex will treat it as the prior declaration
		}
		name = fmt.Sprintf("%s_%d", base, n)
	}
	_, err = db.declareIndex(t, name, cols, kind)
	return err
}

func (db *DB) execDrop(st *DropTableStmt) (*Result, error) {
	db.ddlMu.Lock()
	defer db.ddlMu.Unlock()
	old := *db.schema.Load()
	t, exists := old[st.Table]
	if !exists {
		if st.IfExists {
			return &Result{}, nil
		}
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, st.Table)
	}
	// Wait out any in-flight writer so its mutations land before the
	// table becomes unreachable (it re-checks identity after latching
	// and would otherwise write into a dropped table).
	t.latch.Lock()
	db.publishSchema(dropTable(old, st.Table))
	t.latch.Unlock()
	db.changeSeq.Add(1)
	db.tableCounter(st.Table).Add(1)
	return &Result{}, nil
}

func (db *DB) execInsert(t *Table, st *InsertStmt, env *evalEnv, tx *undoLog, w *writeCtx) (*Result, error) {
	cols := st.Cols
	if len(cols) == 0 {
		cols = make([]string, len(t.Cols))
		for i, c := range t.Cols {
			cols[i] = c.Name
		}
	}
	colPos := make([]int, len(cols))
	for i, c := range cols {
		idx, ok := t.columnIndex(c)
		if !ok {
			return nil, fmt.Errorf("%w: %q in table %q", ErrNoSuchColumn, c, st.Table)
		}
		colPos[i] = idx
	}
	inserted := 0
	for _, exprRow := range st.Rows {
		if len(exprRow) != len(cols) {
			return nil, fmt.Errorf("sqlmini: INSERT into %q: %d values for %d columns", st.Table, len(exprRow), len(cols))
		}
		vals := make([]Value, len(t.Cols)) // unset columns default to NULL
		for i, e := range exprRow {
			v, err := env.eval(e, nil, nil)
			if err != nil {
				return nil, err
			}
			cv, err := Coerce(v, t.Cols[colPos[i]].Type)
			if err != nil {
				return nil, fmt.Errorf("column %q: %w", cols[i], err)
			}
			vals[colPos[i]] = cv
		}
		if err := db.checkConstraints(t, vals, nil); err != nil {
			// In autocommit mode a later row's failure leaves earlier
			// rows committed; publish (in writeOne) makes the partial
			// prefix visible and bumps the table version.
			return nil, err
		}
		row := newRow(vals, w.commit(t))
		arr := t.rows.Load()
		if na := arr.append(row); na != arr {
			t.rows.Store(na)
		}
		t.indexInsert(row, true)
		if tx != nil {
			tx.recordInsert(t, row)
		}
		inserted++
	}
	return &Result{Affected: inserted}, nil
}

// checkConstraints validates NOT NULL, PRIMARY KEY uniqueness, and
// REFERENCES existence for a candidate row. skip, when non-nil, is a row
// excluded from uniqueness checks (the row being updated). The caller
// holds the owning table's latch; referenced tables are read at their
// latest committed state without additional latches (insert-time FK
// checks only — the engine has never enforced FKs on delete, so the
// check is advisory against concurrent parent deletes either way).
func (db *DB) checkConstraints(t *Table, vals []Value, skip *Row) error {
	for i, c := range t.Cols {
		v := vals[i]
		if c.NotNull && v.IsNull() {
			return fmt.Errorf("%w: column %q of table %q", ErrNotNull, c.Name, t.Name)
		}
		if c.PrimaryKey && !v.IsNull() {
			if r, ok := t.lookupPKCurrent(v); ok && r != skip {
				return fmt.Errorf("%w: %s=%s in table %q", ErrDuplicateKey, c.Name, v, t.Name)
			}
		}
		if c.RefTable != "" && !v.IsNull() {
			ref, err := db.lookupTable(c.RefTable)
			if err != nil {
				return fmt.Errorf("%w: referenced table %q missing", ErrForeignKey, c.RefTable)
			}
			ri, ok := ref.columnIndex(c.RefColumn)
			if !ok {
				return fmt.Errorf("%w: referenced column %q missing in %q", ErrForeignKey, c.RefColumn, c.RefTable)
			}
			found := false
			if ref.pk == ri {
				_, found = ref.lookupPKCurrent(v)
			} else {
				for _, r := range ref.rowsSnapshot() {
					rv := r.curVals()
					if rv != nil && Equal(rv[ri], v) {
						found = true
						break
					}
				}
			}
			if !found {
				return fmt.Errorf("%w: %s=%s not present in %s(%s)", ErrForeignKey, c.Name, v, c.RefTable, c.RefColumn)
			}
		}
	}
	return nil
}

// execSelectRead is the snapshot-read path: no latch, no blocking.
// The statement registers in a reader slot (so GC can't reclaim the
// versions it walks), snapshots the table's watermark, and executes
// against that immutable view. When all slots are busy it falls back
// to a latched read, which needs no registration because GC for this
// table runs only under the same latch.
func (db *DB) execSelectRead(st *SelectStmt, env *evalEnv) (*Result, error) {
	if st.Table == "" {
		return execConstSelect(st, env)
	}
	t, err := db.lookupTable(st.Table)
	if err != nil {
		return nil, err
	}
	slot := db.readers.acquire()
	if slot < 0 {
		t2, err := db.lockTable(st.Table)
		if err != nil {
			return nil, err
		}
		defer t2.latch.Unlock()
		return db.execSelect(t2, tableView{t: t2, writer: true}, st, env)
	}
	s := t.watermark.Load()
	db.readers.publish(slot, s)
	defer db.readers.release(slot)
	return db.execSelect(t, tableView{t: t, s: s}, st, env)
}

// execConstSelect evaluates a SELECT without FROM once against an
// empty row. It touches no table state, so batches reuse it verbatim.
func execConstSelect(st *SelectStmt, env *evalEnv) (*Result, error) {
	res := &Result{}
	for _, item := range st.Items {
		res.Cols = append(res.Cols, selectColName(item))
	}
	row := make([]Value, 0, len(st.Items))
	for _, item := range st.Items {
		v, err := env.eval(item.Expr, nil, nil)
		if err != nil {
			return nil, err
		}
		row = append(row, v)
	}
	res.Rows = [][]Value{row}
	return res, nil
}

// tableView is one statement's view of a table: a snapshot reader
// (visible-at-s) or the writer view (current chain heads). valsOf
// returns nil for rows invisible in the view.
type tableView struct {
	t      *Table
	s      uint64
	writer bool
}

func (vw tableView) valsOf(r *Row) []Value {
	if vw.writer {
		return r.curVals()
	}
	return r.visible(vw.s)
}

func (db *DB) execSelect(t *Table, vw tableView, st *SelectStmt, env *evalEnv) (*Result, error) {
	// Filter. The planner supplies an index-backed candidate set when
	// the WHERE qualifies (plan.go), the full row list otherwise. The
	// WHERE is re-applied to the candidates — or, for residual-free
	// plans, replaced by the plan's Compare checks — so index candidates
	// only narrow the rows visited; MVCC makes both necessary, since
	// index entries are removed lazily and may be stale for this view.
	// LIMIT stays on the scan: bucket order can differ from table
	// order, and the cut makes that ordering user-visible (even under
	// ORDER BY, tied keys keep candidate order).
	var source []*Row
	var p *indexPlan
	if selectPlannable(st) {
		source, p = db.planRows(t, st.Where, env)
	} else {
		source = t.rowsSnapshot()
	}
	var matched [][]Value
	if p != nil {
		// Index candidates are already narrowed; presizing to the
		// candidate count trades a bounded over-allocation for the
		// append-doubling churn (the scan path stays lazy: its source
		// is the whole table and the WHERE may keep almost nothing).
		matched = make([][]Value, 0, len(source))
	}
	var seen map[*Row]bool
	if p != nil && p.dedup && len(source) > 1 {
		seen = make(map[*Row]bool, len(source))
	}
	for _, r := range source {
		if seen != nil {
			if seen[r] {
				continue
			}
			seen[r] = true
		}
		vals := vw.valsOf(r)
		if vals == nil {
			continue
		}
		if p != nil && p.exact {
			if !p.verify(vals) {
				continue
			}
		} else if st.Where != nil {
			v, err := env.eval(st.Where, t, vals)
			if err != nil {
				return nil, err
			}
			if v.IsNull() || !v.Bool() {
				continue
			}
		}
		matched = append(matched, vals)
	}

	// Aggregate query? (no GROUP BY support; all-aggregate select lists
	// collapse to a single row, which covers COUNT/MIN/MAX/SUM/AVG usage.)
	if !st.Star && allAggregates(st.Items) {
		res := &Result{}
		row := make([]Value, 0, len(st.Items))
		for _, item := range st.Items {
			res.Cols = append(res.Cols, selectColName(item))
			v, err := env.evalAggregate(item.Expr.(*CallExpr), t, matched)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		res.Rows = [][]Value{row}
		return res, nil
	}

	// ORDER BY.
	if len(st.Order) > 0 {
		var sortErr error
		sort.SliceStable(matched, func(i, j int) bool {
			for _, key := range st.Order {
				vi, err := env.eval(key.Expr, t, matched[i])
				if err != nil {
					sortErr = err
					return false
				}
				vj, err := env.eval(key.Expr, t, matched[j])
				if err != nil {
					sortErr = err
					return false
				}
				// NULLs sort first ascending.
				switch {
				case vi.IsNull() && vj.IsNull():
					continue
				case vi.IsNull():
					return !key.Desc
				case vj.IsNull():
					return key.Desc
				}
				c, _ := Compare(vi, vj)
				if c == 0 {
					continue
				}
				if key.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		if sortErr != nil {
			return nil, sortErr
		}
	}

	if st.Limit >= 0 && len(matched) > st.Limit {
		matched = matched[:st.Limit]
	}

	res := &Result{}
	if st.Star {
		for _, c := range t.Cols {
			res.Cols = append(res.Cols, c.Name)
		}
		for _, vals := range matched {
			out := make([]Value, len(vals))
			copy(out, vals)
			res.Rows = append(res.Rows, out)
		}
		return res, nil
	}
	for _, item := range st.Items {
		res.Cols = append(res.Cols, selectColName(item))
	}
	for _, vals := range matched {
		out := make([]Value, 0, len(st.Items))
		for _, item := range st.Items {
			v, err := env.eval(item.Expr, t, vals)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}

func selectColName(item SelectItem) string {
	if item.Alias != "" {
		return item.Alias
	}
	switch e := item.Expr.(type) {
	case *ColumnExpr:
		return e.Name
	case *CallExpr:
		return strings.ToLower(e.Fn)
	default:
		return "?column?"
	}
}

var aggregateFns = map[string]bool{
	"COUNT": true, "MIN": true, "MAX": true, "SUM": true, "AVG": true,
}

func allAggregates(items []SelectItem) bool {
	if len(items) == 0 {
		return false
	}
	for _, it := range items {
		c, ok := it.Expr.(*CallExpr)
		if !ok || !aggregateFns[c.Fn] {
			return false
		}
	}
	return true
}

// candidateRows resolves the plan's candidate set for a writer-side
// statement (UPDATE/DELETE), deduplicated so SET clauses can't apply
// twice to a row reached through two index groups.
func (db *DB) writerCandidates(t *Table, where Expr, env *evalEnv) ([]*Row, *indexPlan) {
	source, p := db.planRows(t, where, env)
	if p == nil || !p.dedup || len(source) < 2 {
		return source, p
	}
	seen := make(map[*Row]bool, len(source))
	out := make([]*Row, 0, len(source))
	for _, r := range source {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out, p
}

func (db *DB) execUpdate(t *Table, st *UpdateStmt, env *evalEnv, tx *undoLog, w *writeCtx) (*Result, error) {
	setPos := make([]int, len(st.Set))
	for i, a := range st.Set {
		idx, ok := t.columnIndex(a.Col)
		if !ok {
			return nil, fmt.Errorf("%w: %q in table %q", ErrNoSuchColumn, a.Col, st.Table)
		}
		setPos[i] = idx
	}
	affected := 0
	source, p := db.writerCandidates(t, st.Where, env)
	for _, r := range source {
		vals := r.curVals()
		if vals == nil {
			continue // dead for this writer: invisible
		}
		if p != nil && p.exact {
			if !p.verify(vals) {
				continue
			}
		} else if st.Where != nil {
			v, err := env.eval(st.Where, t, vals)
			if err != nil {
				return nil, err
			}
			if v.IsNull() || !v.Bool() {
				continue
			}
		}
		newVals := make([]Value, len(vals))
		copy(newVals, vals)
		for i, a := range st.Set {
			v, err := env.eval(a.Expr, t, vals)
			if err != nil {
				return nil, err
			}
			cv, err := Coerce(v, t.Cols[setPos[i]].Type)
			if err != nil {
				return nil, fmt.Errorf("column %q: %w", a.Col, err)
			}
			newVals[setPos[i]] = cv
		}
		if err := db.checkConstraints(t, newVals, r); err != nil {
			return nil, err
		}
		if tx != nil {
			tx.recordUpdate(t, r, vals)
		}
		c := w.commit(t)
		t.indexUpdate(r, r.push(newVals, c), vals, c)
		t.gc.enqueue(gcItem{c: c, row: r}) // prune hint: the chain grew
		affected++
	}
	return &Result{Affected: affected}, nil
}

func (db *DB) execDelete(t *Table, st *DeleteStmt, env *evalEnv, tx *undoLog, w *writeCtx) (*Result, error) {
	// Evaluate the candidate set before mutating so a mid-scan
	// evaluation error leaves the table untouched.
	source, p := db.writerCandidates(t, st.Where, env)
	type victim struct {
		r    *Row
		vals []Value
	}
	var deleted []victim
	for _, r := range source {
		vals := r.curVals()
		if vals == nil {
			continue
		}
		del := true
		if p != nil && p.exact {
			del = p.verify(vals)
		} else if st.Where != nil {
			v, err := env.eval(st.Where, t, vals)
			if err != nil {
				return nil, err
			}
			del = !v.IsNull() && v.Bool()
		}
		if del {
			deleted = append(deleted, victim{r: r, vals: vals})
		}
	}
	if len(deleted) == 0 {
		return &Result{Affected: 0}, nil
	}
	for _, d := range deleted {
		if tx != nil {
			tx.recordDelete(t, d.r, d.vals)
		}
		c := w.commit(t)
		d.r.push(nil, c)
		t.gc.enqueue(gcItem{c: c, row: d.r, unlink: true})
	}
	return &Result{Affected: len(deleted)}, nil
}
