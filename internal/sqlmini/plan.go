package sqlmini

import (
	"fmt"
	"strings"
)

// Query planning: SELECT/UPDATE/DELETE statements whose WHERE clause
// contains a top-level equality conjunct on an indexed column execute
// as an index point-lookup over that column's bucket instead of a full
// table scan, with the complete WHERE re-applied to the candidates as
// a residual filter (so `lease_id = $id AND released = FALSE` probes
// the lease_id index and filters the released flag on the way out).
// When no equality conjunct qualifies but the WHERE carries a top-level
// range conjunct (col > k, >=, <, <=, or col BETWEEN lo AND hi) on a
// column with an ORDERED index, execution seeks the boundary groups in
// O(log n) and visits only the in-range window.
//
// When no index is led by the range column, a composite ORDERED index
// whose SECOND column it is can still serve it by a skip scan: for each
// distinct leading key in turn, seek that key's window on the second
// column and jump past the rest of its groups — O(d·log n + k) for d
// distinct leading keys and k groups in the windows. The lease-expiry
// sweep (`expires_at <= $now`) runs this way over leases(driver_id,
// expires_at), touching just each driver's expired prefix instead of
// every lease. A skip scan is claimed only when the leading column is
// declared NOT NULL (a NULL in any indexed column leaves the row
// unfiled, so a skip over a nullable prefix would miss rows), carries
// no equality or range conjunct of its own, and no index led by a
// range column can serve the statement.
//
// Composite ordered indexes extend the equality path: a candidate on
// the index's leading column consumes further equality conjuncts along
// the column list and, optionally, range bounds on the column after the
// equality prefix — `driver_id = $id AND expires_at > now()` over
// leases(driver_id, expires_at) seeks one driver's unexpired window
// directly. Candidates are scored by how many conjuncts they consume
// (a composite consuming two beats a single-column index consuming
// one); equal scores keep the historical order (first equality conjunct,
// first declared index), so plans for single-column schemas are
// unchanged. A plan that consumes every conjunct is residual-free: the
// WHERE is not re-evaluated and candidates are checked against the
// consumed keys directly (Compare on the row's visible values — still
// required, because MVCC index entries are removed lazily and a bucket
// can hold rows whose visible values no longer match).
//
// An index is a candidate only when it files every row the WHERE can
// match: a NULL in any indexed column leaves a row unfiled, so each of
// the index's columns must be declared NOT NULL or carry a top-level
// equality or range conjunct, which no NULL satisfies (stmtPlan.files).
//
// The planner is deliberately conservative: it claims a statement only
// when the index path provably yields the same result SET and the same
// error behavior as the scan. Everything else — OR at the top level,
// expressions that can fail row-dependently (division), unresolved
// parameters, lossy hash keys, order-incompatible range keys, any
// LIMIT — falls back to the scan. now() is statement-stable (evalEnv
// memoizes the clock), so a bound evaluated at plan time provably
// equals its per-row residual re-evaluation. Two ordering caveats
// remain inherent to bucket execution: without ORDER BY, result rows
// may come back in bucket/key order rather than table order, which SQL
// leaves unspecified; and a multi-row UPDATE that fails a constraint
// mid-statement applies its partial prefix in candidate order, which
// may differ between paths.
//
// The planner's work splits in two so prepared statements can cache the
// expensive half:
//
//   - analysis (planAnalyze): which conjuncts reference which indexed
//     columns, whether the WHERE is total, which ordered column may
//     claim a range — depends only on the AST and the table's schema;
//   - binding (stmtPlan.bind): evaluating the key/bound expressions
//     against the call's parameters, NULL and lossy-key checks —
//     depends on the arguments and runs per execution.
//
// A skeleton is valid exactly while DB.schemaSeq is unchanged (no table
// or index structure changed); row churn never invalidates it. Ad-hoc
// statements analyze and bind in one go, so prepared execution is
// bit-identical to ad-hoc execution — prepared_test.go pins this.

// selectPlannable reports whether a SELECT may take an index path at
// all: LIMIT cuts rows in iteration order, and even under ORDER BY the
// stable sort preserves candidate order for tied keys, so any LIMIT
// keeps the statement on the scan, whose table order is the reference.
func selectPlannable(st *SelectStmt) bool {
	return st.Limit < 0
}

// planCheck is one residual-free verification predicate: the plan
// consumed a conjunct equivalent to `col OP val`, and candidates are
// checked against it directly instead of re-evaluating the WHERE.
type planCheck struct {
	col int
	op  string // "=", ">", ">=", "<", "<="
	val Value
}

// indexPlan is a resolved index access path for one execution: an
// equality lookup (PK, hash bucket, or ordered-group seek over the full
// tuple), a range scan over an ordered index (optionally under an
// equality prefix), a skip scan over a composite ordered index's second
// column, or a provably empty result.
type indexPlan struct {
	col      int             // leading indexed column (display)
	pk       bool            // the PK index drives the lookup
	ix       *secondaryIndex // non-nil when a secondary index drives it
	key      Value           // equality probe key (pk/hash)
	empty    bool            // a NULL key/bound: provably zero matching rows
	emptyCol int             // column whose NULL key proved emptiness

	// Ordered access (ix.kind == IndexOrdered): prefix is the equality
	// tuple over the leading columns; when rng is set (or the prefix is
	// partial), lo/hi bound the column after the prefix, NULL meaning
	// unbounded. loOp/hiOp record the original operators (">"/">=",
	// "<"/"<="); the skiplist honors strictness exactly.
	prefix     inlineBuf[Value]
	rng        bool
	lo, hi     Value
	loOp, hiOp string

	// skipScan: lo/hi bound the index's second column (col) under every
	// distinct leading key in turn; the prefix is empty.
	skipScan bool

	// exact: the plan consumed every top-level conjunct; execution
	// verifies candidates against checks instead of re-evaluating the
	// WHERE (residual-free).
	exact  bool
	checks inlineBuf[planCheck]

	// dedup: the candidate gather may yield one row twice (ordered
	// multi-group windows); execution must deduplicate by row identity.
	dedup bool
}

// verify applies the residual-free checks to a candidate's visible
// values. Stored values are uniformly typed per column (post-coercion)
// and every check value passed the probe vetting, so Compare is total
// here; a failed Compare (impossible by construction) rejects, which is
// always safe.
func (p *indexPlan) verify(vals []Value) bool {
	for _, ck := range p.checks.all() {
		v := vals[ck.col]
		if v.IsNull() {
			return false
		}
		c, ok := Compare(v, ck.val)
		if !ok {
			return false
		}
		switch ck.op {
		case "=":
			if c != 0 {
				return false
			}
		case ">":
			if c <= 0 {
				return false
			}
		case ">=":
			if c < 0 {
				return false
			}
		case "<":
			if c >= 0 {
				return false
			}
		case "<=":
			if c > 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// planEqRef is the first equality conjunct on one column.
type planEqRef struct {
	key  Expr
	conj int
}

// planCand is one equality-candidate site: the first-seen equality
// conjunct for an indexable column, with every index led by that
// column (declared order). PK candidates carry no indexes.
type planCand struct {
	col  int
	pk   bool
	key  Expr
	conj int
	ixs  []*secondaryIndex
}

// planBound is one range bound on a column, in the order the planner
// evaluates them (one bound per side; later conjuncts stay residual).
type planBound struct {
	expr Expr
	op   string
	hi   bool
	conj int
}

// stmtPlan is the cached, arg-independent plan skeleton of one
// statement over one concrete table.
type stmtPlan struct {
	seq  uint64 // DB.schemaSeq at analysis time
	t    *Table
	scan bool // analysis concluded the statement always scans

	params []*ParamExpr // parameters the WHERE references (bind check)
	nConj  int
	eq     []planCand
	eqBy   map[int]planEqRef   // col -> first equality conjunct (composite prefixes)
	rngBy  map[int][]planBound // col -> bounds in evaluation order

	// Pure-range claim (no equality candidate bound): the first range
	// conjunct whose column's first-declared index is ordered (and files
	// every match) claims the plan. Failing that, the first range
	// conjunct a composite ordered index can skip-scan claims it
	// (skipScan; rngIx.cols[1] == rngCol).
	rngCol   int // -1 when no ordered column claimed a range
	rngIx    *secondaryIndex
	skipScan bool
}

// planAnalyze runs the static half of the planner over t's current
// schema. Lock-free: it reads the atomic index set and schemaSeq.
func planAnalyze(db *DB, t *Table, where Expr) *stmtPlan {
	sp := &stmtPlan{seq: db.schemaSeq.Load(), t: t, rngCol: -1}
	ixs := t.loadIndexes()
	if where == nil || (t.pk < 0 && len(ixs) == 0) {
		sp.scan = true
		return sp
	}
	if !whereTotalStatic(t, where, &sp.params) {
		sp.scan = true
		return sp
	}
	var conjuncts []Expr
	collectConjuncts(where, &conjuncts)
	sp.nConj = len(conjuncts)
	sp.eqBy = make(map[int]planEqRef)
	sp.rngBy = make(map[int][]planBound)
	var rngCols []int // range-conjunct columns, first-seen order
	for i, c := range conjuncts {
		if col, keyExpr := eqConjunct(t, c); col >= 0 {
			if _, seen := sp.eqBy[col]; !seen {
				sp.eqBy[col] = planEqRef{key: keyExpr, conj: i}
			}
			sp.eq = append(sp.eq, planCand{col: col, pk: col == t.pk, key: keyExpr, conj: i})
			continue
		}
		if col, loExpr, loOp, hiExpr, hiOp := rangeConjunct(t, c); col >= 0 {
			if loExpr != nil {
				sp.rngBy[col] = append(sp.rngBy[col], planBound{expr: loExpr, op: loOp, conj: i})
			}
			if hiExpr != nil {
				sp.rngBy[col] = append(sp.rngBy[col], planBound{expr: hiExpr, op: hiOp, hi: true, conj: i})
			}
			rngCols = append(rngCols, col)
		}
	}
	// Which index may serve which conjunct depends on every conjunct:
	// an index must file every row the WHERE can match (sp.files).
	eq := sp.eq[:0]
	for _, cand := range sp.eq {
		if !cand.pk {
			for _, ix := range ixs {
				if ix.cols[0] == cand.col && sp.files(ix) {
					cand.ixs = append(cand.ixs, ix)
				}
			}
		}
		if cand.pk || len(cand.ixs) > 0 {
			eq = append(eq, cand)
		}
	}
	sp.eq = eq
	for _, col := range rngCols {
		if ix := t.indexOn(col); ix != nil && ix.kind == IndexOrdered && sp.files(ix) {
			sp.rngCol, sp.rngIx = col, ix
			break
		}
	}
	for i := 0; sp.rngCol < 0 && i < len(rngCols); i++ {
		if ix := sp.skipScanIndex(ixs, rngCols[i]); ix != nil {
			sp.rngCol, sp.rngIx, sp.skipScan = rngCols[i], ix, true
		}
	}
	if len(sp.eq) == 0 && sp.rngCol < 0 {
		sp.scan = true
	}
	return sp
}

// files reports whether ix files every row the WHERE can match. An
// index files a row only when none of its columns is NULL, so each
// column must be declared NOT NULL or carry a top-level equality or
// range conjunct, which no NULL satisfies; otherwise a plan over ix
// would miss the matching rows it never filed (`a = 1` over t(a, b)
// misses the rows whose b is NULL).
func (sp *stmtPlan) files(ix *secondaryIndex) bool {
	for _, ci := range ix.cols {
		if sp.t.Cols[ci].NotNull {
			continue
		}
		if _, ok := sp.eqBy[ci]; ok {
			continue
		}
		if _, ok := sp.rngBy[ci]; ok {
			continue
		}
		return false
	}
	return true
}

// skipScanIndex returns the first declared ordered index that can
// skip-scan a range on col: col is its second column, its leading
// column has no equality or range conjunct of its own, and it files
// every matching row — which, for the unconstrained leading column,
// means a NOT NULL declaration (nil: none).
func (sp *stmtPlan) skipScanIndex(ixs []*secondaryIndex, col int) *secondaryIndex {
	for _, ix := range ixs {
		if ix.kind != IndexOrdered || len(ix.cols) < 2 || ix.cols[1] != col {
			continue
		}
		if _, ok := sp.eqBy[ix.cols[0]]; ok {
			continue
		}
		if _, ok := sp.rngBy[ix.cols[0]]; ok {
			continue
		}
		if sp.files(ix) {
			return ix
		}
	}
	return nil
}

// bind evaluates the skeleton against one call's parameters into the
// env's plan, reproducing the historical value-dependent decisions
// exactly: NULL keys prove emptiness, lossy hash keys fall through to
// the next candidate, a PK hit wins outright, equality candidates beat
// the pure range, and any evaluation problem falls back to the scan
// (nil plan). Among equality candidates, higher conjunct consumption
// wins; ties keep first-seen order. Plans are values, so binding
// allocates nothing for short keys.
func (sp *stmtPlan) bind(env *evalEnv) *indexPlan {
	if sp.scan || !paramsBound(env, sp.params) {
		return nil
	}
	best := &env.plan
	found, bestScore := false, 0
	consumed := newBitSet(sp.nConj)
	var cur indexPlan // the candidate being bound
	for i := range sp.eq {
		cand := &sp.eq[i]
		kv, err := env.eval(cand.key, nil, nil)
		if err != nil {
			return nil // unreachable after whereTotal; fail safe to scan
		}
		if kv.IsNull() {
			// col = NULL is never true: the whole conjunction is
			// unsatisfiable, no matter which index we would have used.
			*best = indexPlan{col: cand.col, pk: cand.pk, empty: true, emptyCol: cand.col}
			return best
		}
		colType := sp.t.Cols[cand.col].Type
		if cand.pk {
			ck, ok := indexLookupKey(colType, kv)
			if !ok {
				continue // lossy key (id = 1.5): another conjunct may still do
			}
			*best = indexPlan{col: cand.col, pk: true, key: ck}
			best.checks.add(planCheck{col: cand.col, op: "=", val: ck})
			consumed.clear()
			consumed.add(cand.conj)
			sp.finish(best, &consumed)
			return best
		}
		for _, ix := range cand.ixs {
			consumed.clear()
			consumed.add(cand.conj)
			if ix.kind == IndexHash {
				ck, ok := indexLookupKey(colType, kv)
				if !ok {
					continue
				}
				cur = indexPlan{col: cand.col, ix: ix, key: ck}
				cur.checks.add(planCheck{col: cand.col, op: "=", val: ck})
			} else {
				// Ordered groups probe by comparison, not hashing, so the
				// key only needs to compare consistently with the column's
				// sort order — `id = 1.5` correctly seeks an empty window.
				if !orderedProbeOK(colType, kv) {
					continue
				}
				cur = indexPlan{col: cand.col, ix: ix, dedup: true}
				emptyCol, ok := sp.bindOrdered(env, &cur, kv, &consumed)
				if emptyCol >= 0 {
					*best = indexPlan{col: cand.col, ix: ix, empty: true, emptyCol: emptyCol}
					return best
				}
				if !ok {
					return nil // eval failure: fail safe to scan
				}
			}
			if score := consumed.count(); !found || score > bestScore {
				sp.finish(&cur, &consumed)
				*best, found, bestScore = cur, true, score
			}
		}
	}
	if found {
		return best
	}
	if sp.rngCol < 0 {
		return nil
	}
	// Pure range or skip scan: bounds on the claimed column, no prefix.
	consumed.clear()
	*best = indexPlan{col: sp.rngCol, ix: sp.rngIx, rng: true, skipScan: sp.skipScan}
	emptyCol, ok := sp.bindBounds(env, best, sp.rngCol, &consumed)
	if emptyCol >= 0 {
		*best = indexPlan{col: sp.rngCol, ix: sp.rngIx, empty: true, emptyCol: emptyCol}
		return best
	}
	if !ok || best.loOp == "" && best.hiOp == "" {
		return nil // evaluation failure, or no usable bound: scan
	}
	sp.finish(best, &consumed)
	best.dedup = true
	return best
}

// bindOrdered completes p, an ordered-index access for one candidate:
// equality prefix along the column list from kv, then optional bounds
// on the next column. It reports a column whose NULL key or bound
// proves the result empty (-1: none), and ok=false on an evaluation
// failure (scan).
func (sp *stmtPlan) bindOrdered(env *evalEnv, p *indexPlan, kv Value, consumed *bitSet) (emptyCol int, ok bool) {
	p.prefix.add(kv)
	p.checks.add(planCheck{col: p.col, op: "=", val: kv})
	for k := 1; k < len(p.ix.cols); k++ {
		ci := p.ix.cols[k]
		ref, ok := sp.eqBy[ci]
		if !ok {
			break
		}
		v, err := env.eval(ref.key, nil, nil)
		if err != nil {
			return -1, false
		}
		if v.IsNull() {
			return ci, true
		}
		if !orderedProbeOK(sp.t.Cols[ci].Type, v) {
			break // seek on the shorter prefix; the conjunct stays residual
		}
		p.prefix.add(v)
		consumed.add(ref.conj)
		p.checks.add(planCheck{col: ci, op: "=", val: v})
	}
	if n := p.prefix.len(); n < len(p.ix.cols) {
		if emptyCol, ok := sp.bindBounds(env, p, p.ix.cols[n], consumed); emptyCol >= 0 || !ok {
			return emptyCol, ok
		}
		if p.loOp != "" || p.hiOp != "" {
			p.rng = true
		}
	}
	return -1, true
}

// bindBounds fills p.lo/hi from the skeleton's bounds on boundCol,
// one per side in evaluation order, marking consumed conjuncts (a
// BETWEEN counts as consumed only when both its bounds were used). It
// reports boundCol when a NULL bound proves the result empty (-1: not),
// and ok=false on an evaluation failure (fall back to scan).
func (sp *stmtPlan) bindBounds(env *evalEnv, p *indexPlan, boundCol int, consumed *bitSet) (emptyCol int, ok bool) {
	colType := sp.t.Cols[boundCol].Type
	bounds := sp.rngBy[boundCol]
	used := newBitSet(len(bounds))
	for i, b := range bounds {
		if (b.hi && p.hiOp != "") || (!b.hi && p.loOp != "") {
			continue // one bound per side; later conjuncts stay residual
		}
		v, err := env.eval(b.expr, nil, nil)
		if err != nil {
			return -1, false
		}
		if v.IsNull() {
			// A NULL bound proves the conjunction unsatisfiable, exactly
			// like col = NULL.
			return boundCol, true
		}
		if !orderedProbeOK(colType, v) {
			continue // bound not used for seeking; the residual applies it
		}
		if b.hi {
			p.hi, p.hiOp = v, b.op
		} else {
			p.lo, p.loOp = v, b.op
		}
		used.add(i)
		p.checks.add(planCheck{col: boundCol, op: b.op, val: v})
	}
	// A conjunct is consumed only if every bound it contributed was used
	// (BETWEEN contributes two).
	for i, b := range bounds {
		if !used.has(i) {
			continue
		}
		all := true
		for j, b2 := range bounds {
			if b2.conj == b.conj && !used.has(j) {
				all = false
				break
			}
		}
		if all {
			consumed.add(b.conj)
		}
	}
	return -1, true
}

// finish stamps exactness: when the candidate consumed every conjunct,
// execution verifies candidates against its checks instead of
// re-evaluating the WHERE.
func (sp *stmtPlan) finish(p *indexPlan, consumed *bitSet) {
	p.exact = consumed.count() == sp.nConj
}

// planRows resolves the candidate row set for a statement filtered by
// where. A nil plan means no index qualified and the caller got the
// published row snapshot (the scan path). Index candidates are a
// superset of the matching rows (MVCC entries are removed lazily);
// callers filter by visibility plus the residual WHERE — or the plan's
// checks when it is residual-free — and deduplicate when plan.dedup is
// set. All gathers here are lock-free.
func (db *DB) planRows(t *Table, where Expr, env *evalEnv) ([]*Row, *indexPlan) {
	var sp *stmtPlan
	if prep := env.prep; prep != nil && prep.t == t && prep.seq == db.schemaSeq.Load() {
		sp = prep
	} else {
		sp = planAnalyze(db, t, where)
	}
	p := sp.bind(env)
	if p == nil {
		return t.rowsSnapshot(), nil
	}
	switch {
	case p.empty:
		return nil, p
	case p.pk:
		return t.pkCandidates(p.key), p
	case p.ix.kind == IndexHash:
		return p.ix.hash.lookup([]Value{p.key}), p
	case !p.rng && p.prefix.len() == len(p.ix.cols):
		return p.ix.skip.lookupEqual(p.prefix.all(), nil), p
	case p.skipScan:
		return p.ix.skip.skipRows(p.lo, p.loOp == ">", p.hi, p.hiOp == "<", nil), p
	default:
		return p.ix.skip.rangeRows(p.prefix.all(), p.lo, p.loOp == ">", p.hi, p.hiOp == "<", nil), p
	}
}

// flipOp mirrors a comparison across its operands: k < col ⇔ col > k.
var flipOp = map[string]string{">": "<", ">=": "<=", "<": ">", "<=": ">="}

// rangeConjunct matches one top-level range conjunct over a column of
// t: `col OP key` / `key OP col` with OP in <, <=, >, >=, or
// `col BETWEEN lo AND hi`. The key side(s) must be row-free. Returns
// col = -1 when the conjunct has another shape. NOT BETWEEN is a
// disjunction and never matches.
func rangeConjunct(t *Table, c Expr) (col int, loExpr Expr, loOp string, hiExpr Expr, hiOp string) {
	switch e := c.(type) {
	case *BinaryExpr:
		op := e.Op
		if _, ok := flipOp[op]; !ok {
			return -1, nil, "", nil, ""
		}
		var key Expr
		if ci, ok := columnRef(t, e.L); ok && rowFree(e.R) {
			col, key = ci, e.R
		} else if ci, ok := columnRef(t, e.R); ok && rowFree(e.L) {
			col, key, op = ci, e.L, flipOp[op] // k < col  ⇒  col > k
		} else {
			return -1, nil, "", nil, ""
		}
		if op == ">" || op == ">=" {
			return col, key, op, nil, ""
		}
		return col, nil, "", key, op
	case *BetweenExpr:
		if e.Not {
			return -1, nil, "", nil, ""
		}
		ci, ok := columnRef(t, e.E)
		if !ok || !rowFree(e.Lo) || !rowFree(e.Hi) {
			return -1, nil, "", nil, ""
		}
		return ci, e.Lo, ">=", e.Hi, "<="
	}
	return -1, nil, "", nil, ""
}

// collectConjuncts flattens the top-level AND tree of e into out.
func collectConjuncts(e Expr, out *[]Expr) {
	if be, ok := e.(*BinaryExpr); ok && be.Op == "AND" {
		collectConjuncts(be.L, out)
		collectConjuncts(be.R, out)
		return
	}
	*out = append(*out, e)
}

// eqConjunct matches `col = key` / `key = col` where col is a column of
// t and key is row-free (literal or parameter). Returns col = -1 when
// the conjunct has another shape.
func eqConjunct(t *Table, c Expr) (col int, key Expr) {
	be, ok := c.(*BinaryExpr)
	if !ok || be.Op != "=" {
		return -1, nil
	}
	if ci, ok := columnRef(t, be.L); ok && rowFree(be.R) {
		return ci, be.R
	}
	if ci, ok := columnRef(t, be.R); ok && rowFree(be.L) {
		return ci, be.L
	}
	return -1, nil
}

func columnRef(t *Table, e Expr) (int, bool) {
	ce, ok := e.(*ColumnExpr)
	if !ok {
		return -1, false
	}
	return t.columnIndex(ce.Name)
}

// rowFree reports whether e evaluates without row context AND is stable
// across the statement. Kept to the leaf shapes the hot statements use;
// anything fancier scans. now()/current_timestamp qualify because
// evalEnv memoizes the clock per statement.
func rowFree(e Expr) bool {
	switch e := e.(type) {
	case *LiteralExpr, *ParamExpr:
		return true
	case *CallExpr:
		return (e.Fn == "NOW" || e.Fn == "CURRENT_TIMESTAMP") &&
			len(e.Args) == 0 && !e.Star
	}
	return false
}

// orderedProbeOK reports whether a probe key of v's type compares
// against stored values of colType in a way that is monotone along the
// ordered index. Stored values are uniformly typed (post-coercion), so
// the index is sorted by Compare within colType; a key qualifies when
// Compare(stored, key) is a monotone function of the stored value's
// position:
//
//   - integer-family columns accept any numeric key (int comparison, or
//     the monotone float64 projection when the key is DOUBLE);
//   - DOUBLE columns accept any numeric key;
//   - VARCHAR/TIMESTAMP/BLOB columns accept exactly their own type
//     (mixed comparisons project through Float()/Time()/Str(), which are
//     not monotone in the stored order — "10" < "9" as strings).
//
// Unlike hash probes, no lossless coercion is needed: `id = 1.5` seeks
// an empty window, which is exactly what the scan computes.
func orderedProbeOK(colType Type, v Value) bool {
	switch colType {
	case TypeInteger, TypeBigint, TypeBoolean, TypeDouble:
		return numericType(v.Type())
	case TypeVarchar:
		return v.Type() == TypeVarchar
	case TypeTimestamp:
		return v.Type() == TypeTimestamp
	case TypeBlob:
		return v.Type() == TypeBlob
	default:
		return false
	}
}

// paramsBound reports whether every collected parameter is bound in env.
func paramsBound(env *evalEnv, params []*ParamExpr) bool {
	for _, p := range params {
		if _, ok := env.param(p); !ok {
			return false
		}
	}
	return true
}

// whereTotalStatic reports whether evaluating e against ANY row of t is
// guaranteed error-free: every column resolves, no division (the one
// value-dependent failure), and every call is a known, arity-checked
// shape. Every parameter reference is appended to params for a later
// paramsBound — the env-dependent half of the check. Only total WHEREs
// are eligible for index execution; this is what makes the index path
// bit-identical to the scan, error behavior included.
func whereTotalStatic(t *Table, e Expr, params *[]*ParamExpr) bool {
	switch e := e.(type) {
	case *LiteralExpr:
		return true
	case *ColumnExpr:
		_, ok := t.columnIndex(e.Name)
		return ok
	case *ParamExpr:
		*params = append(*params, e)
		return true
	case *UnaryExpr:
		return (e.Op == "NOT" || e.Op == "-") && whereTotalStatic(t, e.E, params)
	case *IsNullExpr:
		return whereTotalStatic(t, e.E, params)
	case *BetweenExpr:
		return whereTotalStatic(t, e.E, params) && whereTotalStatic(t, e.Lo, params) && whereTotalStatic(t, e.Hi, params)
	case *InExpr:
		if !whereTotalStatic(t, e.E, params) {
			return false
		}
		for _, le := range e.List {
			if !whereTotalStatic(t, le, params) {
				return false
			}
		}
		return true
	case *BinaryExpr:
		switch e.Op {
		case "=", "<>", "<", "<=", ">", ">=", "AND", "OR", "LIKE", "+", "-", "*":
		default:
			return false // "/" fails on zero divisors; unknown ops fail
		}
		return whereTotalStatic(t, e.L, params) && whereTotalStatic(t, e.R, params)
	case *CallExpr:
		switch e.Fn {
		case "NOW", "CURRENT_TIMESTAMP":
			return true
		case "LOWER", "UPPER", "LENGTH", "TRIM", "ABS":
			return len(e.Args) == 1 && whereTotalStatic(t, e.Args[0], params)
		case "COALESCE":
			for _, a := range e.Args {
				if !whereTotalStatic(t, a, params) {
					return false
				}
			}
			return true
		default:
			return false
		}
	default:
		return false
	}
}

// indexLookupKey canonicalizes an equality probe key for a column of
// type colType. ok=false means the key cannot be proven to hash
// identically to how matching stored values hash — `id = 1.5` on an
// INTEGER column, a numeric key on a VARCHAR column (SQL comparison is
// laxer than string identity), or a DOUBLE key on an integer column
// (float equality can collapse distinct int64s) — and the caller must
// scan instead.
func indexLookupKey(colType Type, v Value) (Value, bool) {
	if v.IsNull() {
		return Null, false
	}
	switch colType {
	case TypeInteger, TypeBigint, TypeBoolean:
		switch v.Type() {
		case TypeInteger, TypeBigint, TypeBoolean:
		default:
			return Null, false
		}
	case TypeDouble:
		if !numericType(v.Type()) {
			return Null, false
		}
	case TypeVarchar:
		if v.Type() != TypeVarchar {
			return Null, false
		}
	case TypeTimestamp:
		if v.Type() != TypeTimestamp {
			return Null, false
		}
	case TypeBlob:
		if v.Type() != TypeBlob && v.Type() != TypeVarchar {
			return Null, false
		}
	default:
		return Null, false
	}
	cv, err := Coerce(v, colType)
	if err != nil || cv.IsNull() {
		return Null, false
	}
	if !Equal(cv, v) {
		return Null, false // lossy coercion: scan semantics would differ
	}
	return cv, true
}

// Explain reports the access path a statement would use, without
// executing it: "point lookup on t(col) [primary key]", "index lookup
// on t(col) [idx_name]", "range scan on t(col) [idx_name] (col > v)"
// with the evaluated bounds, "skip scan on t(a, b) [idx_name] (b <= v)"
// for a range on a composite index's second column, or "full scan on
// t". Composite plans list the column tuple — "index lookup on t(a, b)
// [idx]" — and append "(residual-free)" when the plan consumed the
// entire WHERE. Tests (and operators) use it to pin hot statements to
// their intended plans. Explain takes no locks: it reads the published
// schema.
func (db *DB) Explain(src string, args ...any) (string, error) {
	ps, err := db.ParseCached(src)
	if err != nil {
		return "", err
	}
	env := &evalEnv{clock: db.clock}
	if err := env.Bind(ps, args); err != nil {
		return "", err
	}
	var table string
	var where Expr
	limitScan := false
	switch st := ps.st.(type) {
	case *SelectStmt:
		if st.Table == "" {
			return "constant select", nil
		}
		limitScan = !selectPlannable(st)
		table, where = st.Table, st.Where
	case *UpdateStmt:
		table, where = st.Table, st.Where
	case *DeleteStmt:
		table, where = st.Table, st.Where
	default:
		return "", fmt.Errorf("sqlmini: EXPLAIN supports SELECT/UPDATE/DELETE, got %T", st)
	}
	t, err := db.lookupTable(table)
	if err != nil {
		return "", err
	}
	if limitScan {
		return fmt.Sprintf("full scan on %s (LIMIT)", table), nil
	}
	p := planAnalyze(db, t, where).bind(env)
	if p == nil {
		return fmt.Sprintf("full scan on %s", table), nil
	}
	col := t.Cols[p.col].Name
	composite := p.ix != nil && len(p.ix.cols) > 1
	suffix := ""
	if composite && p.exact {
		suffix = " (residual-free)"
	}
	switch {
	case p.empty:
		return fmt.Sprintf("empty result (NULL key) on %s(%s)", table, t.Cols[p.emptyCol].Name), nil
	case p.pk:
		return fmt.Sprintf("point lookup on %s(%s) [primary key]", table, col), nil
	case p.skipScan:
		return fmt.Sprintf("skip scan on %s(%s) [%s] (%s)%s",
			table, strings.Join(p.ix.colNames(t), ", "), p.ix.name, p.boundsDesc(col), suffix), nil
	case composite:
		cols := strings.Join(p.ix.colNames(t), ", ")
		if p.rng || p.prefix.len() < len(p.ix.cols) {
			return fmt.Sprintf("range scan on %s(%s) [%s] (%s)%s",
				table, cols, p.ix.name, p.compositeDesc(t), suffix), nil
		}
		return fmt.Sprintf("index lookup on %s(%s) [%s]%s", table, cols, p.ix.name, suffix), nil
	case p.rng:
		return fmt.Sprintf("range scan on %s(%s) [%s] (%s)",
			table, col, p.ix.name, p.boundsDesc(col)), nil
	default:
		return fmt.Sprintf("index lookup on %s(%s) [%s]", table, col, p.ix.name), nil
	}
}

// boundsDesc renders a range plan's evaluated bounds for Explain, e.g.
// "expires_at > 2026-07-30T12:00:00Z" or "id >= 5 AND id < 9".
func (p *indexPlan) boundsDesc(col string) string {
	var parts []string
	if p.loOp != "" {
		parts = append(parts, fmt.Sprintf("%s %s %s", col, p.loOp, p.lo.Str()))
	}
	if p.hiOp != "" {
		parts = append(parts, fmt.Sprintf("%s %s %s", col, p.hiOp, p.hi.Str()))
	}
	return strings.Join(parts, " AND ")
}

// compositeDesc renders a composite plan's prefix equalities and
// bounds, e.g. "driver_id = 7 AND expires_at > 2026-07-30T12:00:00Z".
func (p *indexPlan) compositeDesc(t *Table) string {
	var parts []string
	for i, v := range p.prefix.all() {
		parts = append(parts, fmt.Sprintf("%s = %s", t.Cols[p.ix.cols[i]].Name, v.Str()))
	}
	if n := p.prefix.len(); n < len(p.ix.cols) {
		bc := t.Cols[p.ix.cols[n]].Name
		if p.loOp != "" {
			parts = append(parts, fmt.Sprintf("%s %s %s", bc, p.loOp, p.lo.Str()))
		}
		if p.hiOp != "" {
			parts = append(parts, fmt.Sprintf("%s %s %s", bc, p.hiOp, p.hi.Str()))
		}
	}
	return strings.Join(parts, " AND ")
}
