package minidb

import (
	"sort"
	"strings"
)

// This file is the planned half of the SELECT path: planSelect analyzes a
// parsed statement against the schema and runPlan executes the resulting
// operator pipeline. The planner
//
//   - splits the WHERE clause into AND-conjuncts and pushes each down to
//     the earliest operator that can evaluate it (base scan, join build
//     side, or post-join),
//   - extracts an equi-join key from the ON clause and joins with a hash
//     join when one exists, falling back to the naive nested loop
//     otherwise,
//   - probes a secondary hash index instead of scanning when an indexed
//     column is compared for equality against a constant or parameter
//     (IN lists multi-probe the same index),
//   - probes an ordered index (ordered.go) with a binary-searched range
//     span for </<=/>/>=/BETWEEN bounds and for IS NULL, and
//   - satisfies a single-key ORDER BY from ordered-index order (streaming
//     with LIMIT stopping early) when no probe narrowed the scan; when one
//     did, ORDER BY ... LIMIT materializes through a bounded top-k heap
//     instead of sorting the full result.
//
// Execution is a pull-based iterator pipeline (rowSrc), so consumers can
// stream rows without materializing the whole result; aggregate queries
// and ORDER BY queries not satisfied by an index still materialize, as
// they must. Residual base-scan predicates run column-at-a-time through
// compiled kernels over selection-vector blocks (vector.go) rather than
// row-at-a-time through eval.
//
// Index and hash-join buckets may contain false positives (see indexKey),
// so the pipeline re-evaluates every pushed predicate and the full ON
// expression on candidate rows. That makes the planned path's semantics
// exactly those of the retained naive executor (runSelectNaive), which the
// differential tests assert.

// eqCand is one index-eligible equality: base column col compared against
// a constant (or parameter) expression.
type eqCand struct {
	col int
	val Expr
}

// rangeCand is one index-eligible range bound: base column col bounded by
// a constant expression, with op one of < <= > >= (column on the left).
// When reqNonNull is set, the bound is usable only if that expression
// evaluates non-NULL: a BETWEEN whose lower bound is NULL degenerates (by
// Compare semantics) to an upper-bound check that NULL rows also satisfy,
// and the index excludes NULL rows, so probing would drop matches.
type rangeCand struct {
	col        int
	op         string
	val        Expr
	reqNonNull Expr
}

// inCand is one index-eligible IN list: base column col matched against
// all-constant items, multi-probed on the hash index. Usable only when
// every item evaluates non-NULL (Equal(NULL, NULL) is true in this
// engine, so a NULL item matches NULL rows, which the index excludes).
type inCand struct {
	col  int
	list []Expr
}

// orderPush records a structurally index-satisfiable ORDER BY: exactly one
// key that is a plain reference to base column col. DISTINCT disqualifies
// (the naive executor deduplicates before sorting, keeping first-in-table-
// order representatives, which index order cannot replicate).
type orderPush struct {
	col  int
	desc bool
}

// selectPlan is a planned SELECT, valid for the schema it was planned
// against. A plan is immutable after planSelect returns — Stmt caches one
// plan across executions (invalidated by Database.schemaGen) and may run
// it from many goroutines, so per-execution state lives in the iterators
// built by pipeline, never on the plan itself.
type selectPlan struct {
	st    *SelectStmt
	db    *Database
	base  *Table
	cols  []qcol // combined row shape: base columns then join columns
	nLeft int

	// unsafe marks a query whose WHERE or ON could error during row
	// evaluation (unknown/ambiguous column, aggregate in a predicate).
	// The pipeline's pushdown and index shortcuts skip row evaluations,
	// which would mask those per-row errors, so unsafe queries execute
	// on the naive executor to keep planned semantics exactly equal.
	unsafe bool

	leftPred []Expr // conjuncts evaluable on base rows alone

	// Index-eligible shapes among leftPred. Candidates are collected at
	// plan time regardless of whether a matching index exists — CREATE
	// INDEX does not bump schemaGen, so index presence is (re)checked per
	// execution in chooseAccess.
	eqCands    []eqCand
	rangeCands []rangeCand
	inCands    []inCand
	nullCands  []int // base columns with a non-negated IS NULL conjunct

	vecPreds []vecPred  // compiled column-at-a-time forms of leftPred, 1:1
	orderBy  *orderPush // non-nil: ORDER BY satisfiable from index order
	hasAgg   bool

	join *joinPlan // nil for single-table queries
}

// joinPlan is the join half of a plan.
type joinPlan struct {
	right     *Table
	rightPred []Expr // conjuncts evaluable on right rows alone
	postPred  []Expr // conjuncts needing the combined row

	// Hash-join key column positions (within base and right rows); -1
	// when no equi-key was found and the join falls back to nested loop.
	leftKey, rightKey int
	on                Expr // full ON expression, re-checked on candidates
}

// splitConjuncts flattens nested ANDs into a conjunct list.
func splitConjuncts(e Expr, out []Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == "AND" {
		return splitConjuncts(b.R, splitConjuncts(b.L, out))
	}
	return append(out, e)
}

// refSides classifies which sides of the row an expression touches.
type refSides struct {
	left, right, other bool
}

func (s refSides) leftOnly() bool  { return s.left && !s.right && !s.other }
func (s refSides) rightOnly() bool { return s.right && !s.left && !s.other }

// collectSides walks an expression recording which side each column
// reference resolves to. References that are ambiguous or unresolvable
// set other, forcing evaluation on the combined row where the naive
// error surfaces identically.
func collectSides(e Expr, p *selectPlan, rightQual string, baseQual string, s *refSides) {
	switch x := e.(type) {
	case nil, *Literal, *Param:
	case *ColumnRef:
		p.refSide(x, baseQual, rightQual, s)
	case *Binary:
		collectSides(x.L, p, rightQual, baseQual, s)
		collectSides(x.R, p, rightQual, baseQual, s)
	case *Unary:
		collectSides(x.X, p, rightQual, baseQual, s)
	case *IsNull:
		collectSides(x.X, p, rightQual, baseQual, s)
	case *Between:
		collectSides(x.X, p, rightQual, baseQual, s)
		collectSides(x.Lo, p, rightQual, baseQual, s)
		collectSides(x.Hi, p, rightQual, baseQual, s)
	case *InList:
		collectSides(x.X, p, rightQual, baseQual, s)
		for _, it := range x.List {
			collectSides(it, p, rightQual, baseQual, s)
		}
	default:
		s.other = true
	}
}

// refSide resolves one column reference to a side of the combined row.
func (p *selectPlan) refSide(ref *ColumnRef, baseQual, rightQual string, s *refSides) {
	inLeft := p.base.ColumnIndex(ref.Name) >= 0
	inRight := p.join != nil && p.join.right.ColumnIndex(ref.Name) >= 0
	if ref.Table != "" {
		switch {
		case strings.EqualFold(ref.Table, baseQual) && inLeft:
			s.left = true
		case p.join != nil && strings.EqualFold(ref.Table, rightQual) && inRight:
			s.right = true
		default:
			s.other = true
		}
		return
	}
	switch {
	case inLeft && !inRight:
		s.left = true
	case inRight && !inLeft:
		s.right = true
	default:
		s.other = true // ambiguous or unknown: evaluate on combined row
	}
}

// exprStaticallySafe reports whether evaluating e can never error for
// any row: every column reference resolves uniquely against cols and no
// aggregate appears (parameters are arity-checked before execution).
// This mirrors env.resolve exactly — name matches are case-sensitive,
// qualifier matches fold case.
func exprStaticallySafe(e Expr, cols []qcol) bool {
	switch x := e.(type) {
	case nil, *Literal, *Param:
		return true
	case *ColumnRef:
		found := 0
		for _, c := range cols {
			if c.name != x.Name {
				continue
			}
			if x.Table != "" && !strings.EqualFold(c.qualifier, x.Table) {
				continue
			}
			found++
		}
		return found == 1
	case *Binary:
		return exprStaticallySafe(x.L, cols) && exprStaticallySafe(x.R, cols)
	case *Unary:
		return exprStaticallySafe(x.X, cols)
	case *IsNull:
		return exprStaticallySafe(x.X, cols)
	case *Between:
		return exprStaticallySafe(x.X, cols) && exprStaticallySafe(x.Lo, cols) &&
			exprStaticallySafe(x.Hi, cols)
	case *InList:
		if !exprStaticallySafe(x.X, cols) {
			return false
		}
		for _, it := range x.List {
			if !exprStaticallySafe(it, cols) {
				return false
			}
		}
		return true
	}
	return false // aggregates (row-context error) and unknown node kinds
}

// isConst reports whether an expression references no columns, i.e. is
// evaluable before any row is read (literals, parameters, and boolean
// combinations thereof).
func isConst(e Expr) bool {
	switch x := e.(type) {
	case *Literal, *Param:
		return true
	case *Unary:
		return isConst(x.X)
	case *Binary:
		return isConst(x.L) && isConst(x.R)
	}
	return false
}

// planSelect analyzes a SELECT against the current schema. The caller
// must hold at least a read lock.
func (db *Database) planSelect(st *SelectStmt) (*selectPlan, error) {
	base, err := db.table(st.From)
	if err != nil {
		return nil, err
	}
	baseQual := st.Alias
	if baseQual == "" {
		baseQual = st.From
	}
	p := &selectPlan{st: st, db: db, base: base}
	for _, c := range base.Columns {
		p.cols = append(p.cols, qcol{qualifier: baseQual, name: c.Name})
	}
	p.nLeft = len(p.cols)

	rightQual := ""
	if st.Join != nil {
		right, err := db.table(st.Join.Table)
		if err != nil {
			return nil, err
		}
		rightQual = st.Join.Alias
		if rightQual == "" {
			rightQual = st.Join.Table
		}
		p.join = &joinPlan{right: right, leftKey: -1, rightKey: -1, on: st.Join.On}
		for _, c := range right.Columns {
			p.cols = append(p.cols, qcol{qualifier: rightQual, name: c.Name})
		}
	}

	// Queries whose predicates could error per row must not be
	// short-circuited by pushdown or index probes; route them to the
	// naive executor instead (see the unsafe field).
	if !exprStaticallySafe(st.Where, p.cols) ||
		(st.Join != nil && !exprStaticallySafe(st.Join.On, p.cols)) {
		p.unsafe = true
		return p, nil
	}

	// Push WHERE conjuncts down by the sides they reference.
	if st.Where != nil {
		for _, c := range splitConjuncts(st.Where, nil) {
			var s refSides
			collectSides(c, p, rightQual, baseQual, &s)
			switch {
			case p.join == nil:
				// Single table: the combined row is the base row, so every
				// conjunct evaluates at the scan.
				p.leftPred = append(p.leftPred, c)
			case s.leftOnly():
				p.leftPred = append(p.leftPred, c)
			case s.rightOnly():
				p.join.rightPred = append(p.join.rightPred, c)
			default:
				p.join.postPred = append(p.join.postPred, c)
			}
		}
	}

	// Extract a hash-join equi-key from the ON conjuncts: the first
	// col-to-col equality spanning the two sides. The full ON expression
	// is still evaluated on candidate pairs, so any residual conjuncts
	// (and key-collision false positives) are filtered exactly.
	if p.join != nil {
		for _, c := range splitConjuncts(st.Join.On, nil) {
			b, ok := c.(*Binary)
			if !ok || b.Op != "=" {
				continue
			}
			l, lok := b.L.(*ColumnRef)
			r, rok := b.R.(*ColumnRef)
			if !lok || !rok {
				continue
			}
			var ls, rs refSides
			p.refSide(l, baseQual, rightQual, &ls)
			p.refSide(r, baseQual, rightQual, &rs)
			if ls.leftOnly() && rs.rightOnly() {
				p.join.leftKey = p.base.ColumnIndex(l.Name)
				p.join.rightKey = p.join.right.ColumnIndex(r.Name)
			} else if ls.rightOnly() && rs.leftOnly() {
				p.join.leftKey = p.base.ColumnIndex(r.Name)
				p.join.rightKey = p.join.right.ColumnIndex(l.Name)
			} else {
				continue
			}
			break
		}
	}

	// Collect index-eligible predicate shapes among the base-scan
	// conjuncts: equalities and IN lists (hash index), range bounds and
	// IS NULL (ordered index).
	for _, c := range p.leftPred {
		switch x := c.(type) {
		case *Binary:
			op := x.Op
			ref, val := x.L, x.R
			if _, ok := ref.(*ColumnRef); !ok {
				ref, val = x.R, x.L
				op = flipCmp(op)
			}
			cr, ok := ref.(*ColumnRef)
			if !ok || !isConst(val) {
				continue
			}
			col := p.baseCol(cr, baseQual, rightQual)
			if col < 0 {
				continue
			}
			switch op {
			case "=":
				p.eqCands = append(p.eqCands, eqCand{col: col, val: val})
			case "<", "<=", ">", ">=":
				p.rangeCands = append(p.rangeCands, rangeCand{col: col, op: op, val: val})
			}
		case *Between:
			if x.Negate || !isConst(x.Lo) || !isConst(x.Hi) {
				continue
			}
			cr, ok := x.X.(*ColumnRef)
			if !ok {
				continue
			}
			col := p.baseCol(cr, baseQual, rightQual)
			if col < 0 {
				continue
			}
			// Both bounds are guarded on the lower bound being non-NULL;
			// see rangeCand. (A NULL upper bound needs no guard: the
			// predicate then matches nothing, and any span is a superset
			// of the empty set.)
			p.rangeCands = append(p.rangeCands,
				rangeCand{col: col, op: ">=", val: x.Lo, reqNonNull: x.Lo},
				rangeCand{col: col, op: "<=", val: x.Hi, reqNonNull: x.Lo})
		case *InList:
			if x.Negate {
				continue
			}
			cr, ok := x.X.(*ColumnRef)
			if !ok {
				continue
			}
			allConst := true
			for _, it := range x.List {
				if !isConst(it) {
					allConst = false
					break
				}
			}
			if !allConst {
				continue
			}
			if col := p.baseCol(cr, baseQual, rightQual); col >= 0 {
				p.inCands = append(p.inCands, inCand{col: col, list: x.List})
			}
		case *IsNull:
			if x.Negate {
				continue
			}
			cr, ok := x.X.(*ColumnRef)
			if !ok {
				continue
			}
			if col := p.baseCol(cr, baseQual, rightQual); col >= 0 {
				p.nullCands = append(p.nullCands, col)
			}
		}
	}

	// Compile the base-scan conjuncts to vectorized kernels (vector.go).
	if len(p.leftPred) > 0 {
		p.vecPreds = make([]vecPred, len(p.leftPred))
		for i, c := range p.leftPred {
			p.vecPreds[i] = p.compileVec(c, baseQual, rightQual)
		}
	}

	p.hasAgg = !st.Star && hasAggregate(st.Items)

	// A single-key ORDER BY over a plain base-column reference can be
	// satisfied from an ordered index's key order. The reference must
	// resolve uniquely against the combined row (mirroring env.resolve) to
	// a base column; DISTINCT and aggregates disqualify.
	if len(st.OrderBy) == 1 && !st.Distinct && !p.hasAgg {
		if cr, ok := st.OrderBy[0].Expr.(*ColumnRef); ok {
			found, idx := 0, -1
			for i, c := range p.cols {
				if c.name != cr.Name {
					continue
				}
				if cr.Table != "" && !strings.EqualFold(c.qualifier, cr.Table) {
					continue
				}
				found++
				idx = i
			}
			if found == 1 && idx < p.nLeft {
				p.orderBy = &orderPush{col: idx, desc: st.OrderBy[0].Desc}
			}
		}
	}
	return p, nil
}

// baseCol resolves a column reference to its base-table position when it
// refers to the base side only, else -1.
func (p *selectPlan) baseCol(cr *ColumnRef, baseQual, rightQual string) int {
	var s refSides
	p.refSide(cr, baseQual, rightQual, &s)
	if !s.leftOnly() {
		return -1
	}
	return p.base.ColumnIndex(cr.Name)
}

// flipCmp mirrors a comparison operator for swapped operands; operators
// that are not order comparisons come back unchanged (LIKE is direction-
// sensitive, so a flipped LIKE never index-qualifies and "=" is symmetric).
func flipCmp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

// rowSrc is a pull-based row iterator: next returns (nil, nil) at end of
// stream.
type rowSrc interface {
	next() (Row, error)
}

// passAll evaluates a conjunct list against one row.
func passAll(preds []Expr, e *env, r Row) (bool, error) {
	e.row = r
	for _, p := range preds {
		v, err := eval(p, e)
		if err != nil {
			return false, err
		}
		if !v.Truthy() {
			return false, nil
		}
	}
	return true, nil
}

// Access-path kinds, as reported by PlanInfo.
const (
	accessSeqScan     = "seq-scan"
	accessIndexEq     = "index-eq"
	accessIndexIn     = "index-in"
	accessIndexRange  = "index-range"
	accessIndexNull   = "index-null"
	accessOrderedWalk = "ordered-walk"
)

// emptyIdx is the shared "indexed probe with no matches" candidate set;
// it is never mutated.
var emptyIdx = []int{}

// accessChoice is the access path picked for one execution of a plan:
// which index probe (if any) narrows the base scan, or an ordered walk
// that satisfies the ORDER BY from index order. Probes are chosen by
// candidate count — every pushed predicate is still evaluated on the
// candidates, so any choice is correct, only speed differs.
type accessChoice struct {
	kind     string
	column   string // index column, for non-scan kinds
	idx      []int  // candidate positions, ascending; nil for full scans
	walk     *orderedIndex
	walkDesc bool
}

// chooseAccess evaluates the plan's probe candidates against the bound
// parameters and current indexes, picking the narrowest. The caller must
// hold at least the database read lock. The error is a block-read
// failure while lazily building a probed ordered index on a disk table.
func (p *selectPlan) chooseAccess(args []Value) (accessChoice, error) {
	acc := accessChoice{kind: accessSeqScan}
	bv := p.base.view()
	constEnv := &env{args: args}
	best := -1 // candidate count of the current winner; -1: full scan

	type rangeSpan struct {
		ix         *orderedIndex
		start, end int
	}
	var bestSpan rangeSpan
	record := func(kind, column string, idx []int, span rangeSpan, n int) {
		if best >= 0 && n >= best {
			return
		}
		best = n
		acc.kind, acc.column, acc.idx = kind, column, idx
		bestSpan = span
	}

	// Equality probes on hash indexes.
	for _, cand := range p.eqCands {
		ix := p.base.index(p.base.Columns[cand.col].Name)
		if ix == nil {
			continue
		}
		v, err := eval(cand.val, constEnv)
		if err != nil {
			continue // let the full evaluation surface the error
		}
		bucket := ix.lookup(v)
		if bucket == nil {
			bucket = emptyIdx
		}
		record(accessIndexEq, ix.column, bucket, rangeSpan{}, len(bucket))
	}

	// IN lists multi-probe the hash index: the candidate set is the union
	// of the item buckets. Distinct items can share a bucket (numeric text
	// and numbers key identically), so the union is sorted and deduped.
	for _, cand := range p.inCands {
		ix := p.base.index(p.base.Columns[cand.col].Name)
		if ix == nil {
			continue
		}
		var union []int
		buckets, usable := 0, true
		for _, it := range cand.list {
			v, err := eval(it, constEnv)
			if err != nil || v.IsNull() {
				usable = false
				break
			}
			if b := ix.lookup(v); len(b) > 0 {
				union = append(union, b...)
				buckets++
			}
		}
		if !usable {
			continue
		}
		if buckets > 1 {
			sort.Ints(union)
			w := 0
			for i, pos := range union {
				if i == 0 || pos != union[w-1] {
					union[w] = pos
					w++
				}
			}
			union = union[:w]
		}
		if union == nil {
			union = emptyIdx
		}
		record(accessIndexIn, ix.column, union, rangeSpan{}, len(union))
	}

	// IS NULL answers directly from an ordered index's tracked NULL
	// positions (already ascending).
	for _, col := range p.nullCands {
		ox := p.base.orderedIx(p.base.Columns[col].Name)
		if ox == nil {
			continue
		}
		if err := ox.ensure(&bv); err != nil {
			return acc, err
		}
		nulls := ox.nulls
		if nulls == nil {
			nulls = emptyIdx
		}
		record(accessIndexNull, ox.column, nulls, rangeSpan{}, len(nulls))
	}

	// Range probes on ordered indexes: merge every usable bound per
	// column into one [lo, hi] span and binary-search its extent. The
	// span is materialized (positions re-sorted ascending) only if it
	// wins.
	for i, rc := range p.rangeCands {
		seen := false
		for j := 0; j < i; j++ {
			if p.rangeCands[j].col == rc.col {
				seen = true
				break
			}
		}
		if seen {
			continue
		}
		ox := p.base.orderedIx(p.base.Columns[rc.col].Name)
		if ox == nil {
			continue
		}
		var lo, hi Value
		var hasLo, hasHi, loIncl, hiIncl bool
		for j := i; j < len(p.rangeCands); j++ {
			c := p.rangeCands[j]
			if c.col != rc.col {
				continue
			}
			if c.reqNonNull != nil {
				g, err := eval(c.reqNonNull, constEnv)
				if err != nil || g.IsNull() {
					continue // this bound is unusable; others may still be
				}
			}
			v, err := eval(c.val, constEnv)
			if err != nil {
				continue
			}
			switch c.op {
			case ">", ">=":
				incl := c.op == ">="
				if !hasLo || tighterBound(v, incl, lo, loIncl, 1) {
					lo, loIncl, hasLo = v, incl, true
				}
			case "<", "<=":
				incl := c.op == "<="
				if !hasHi || tighterBound(v, incl, hi, hiIncl, -1) {
					hi, hiIncl, hasHi = v, incl, true
				}
			}
		}
		if !hasLo && !hasHi {
			continue
		}
		if err := ox.ensure(&bv); err != nil {
			return acc, err
		}
		start, end := 0, len(ox.keys)
		if hasLo {
			start = ox.lowerBound(lo, loIncl)
		}
		if hasHi {
			end = ox.upperBound(hi, hiIncl)
		}
		if end < start {
			end = start
		}
		record(accessIndexRange, ox.column, nil, rangeSpan{ix: ox, start: start, end: end}, end-start)
	}
	if acc.kind == accessIndexRange {
		// Span positions are in key order; the scan must visit them in
		// table order to match the naive executor's emission order.
		idx := make([]int, bestSpan.end-bestSpan.start)
		copy(idx, bestSpan.ix.pos[bestSpan.start:bestSpan.end])
		sort.Ints(idx)
		acc.idx = idx
	}

	// ORDER BY pushdown: stream in index order when no probe narrowed the
	// scan. (With a probe, the probe + bounded top-k sort wins: the
	// candidate positions are in table order, not key order.)
	if p.orderBy != nil && acc.kind == accessSeqScan {
		if ox := p.base.orderedIx(p.base.Columns[p.orderBy.col].Name); ox != nil {
			if err := ox.ensure(&bv); err != nil {
				return acc, err
			}
			acc.kind = accessOrderedWalk
			acc.column = ox.column
			acc.walk = ox
			acc.walkDesc = p.orderBy.desc
		}
	}
	return acc, nil
}

// tighterBound reports whether bound (v, incl) is strictly tighter than
// (cur, curIncl); dir is +1 for lower bounds, -1 for upper bounds. At
// equal values an exclusive bound beats an inclusive one.
func tighterBound(v Value, incl bool, cur Value, curIncl bool, dir int) bool {
	c := Compare(v, cur)
	if c != 0 {
		return c == dir
	}
	return curIncl && !incl
}

// hashJoinIter joins a left row stream against a hashed right table.
// When the right table already maintains a hash index on the join key
// and no predicates were pushed to the build side, the iterator probes
// that index directly — no per-query build at all. Otherwise the build
// side hashes right rows passing their pushed-down predicates. Either
// way, each probe re-evaluates the full ON expression plus post-join
// predicates on the combined row, so bucket collisions are filtered
// exactly. The combined row buffer is reused between calls — consumers
// must not retain it across next calls (projection either evaluates
// immediately or clones).
type hashJoinIter struct {
	left     rowSrc
	jp       *joinPlan
	checks   []Expr // full ON expression + post-join WHERE conjuncts
	env      *env   // combined-row environment
	rightEnv *env
	nLeft    int

	built     bool
	rightIx   *hashIndex       // reused right-table index (nil: self-built)
	rightView rowsView         // row storage rightIx positions refer to
	buckets   map[string][]Row // self-built buckets when rightIx is nil
	curRows   []Row            // current probe bucket (self-built mode)
	curPos    []int            // current probe positions (index mode)
	bucketPos int
	combined  Row
	keyBuf    []byte // reused probe-key scratch; no per-probe allocation
}

func (h *hashJoinIter) build() error {
	h.built = true
	if len(h.jp.rightPred) == 0 {
		key := h.jp.right.Columns[h.jp.rightKey].Name
		if ix := h.jp.right.index(key); ix != nil {
			h.rightIx = ix
			return nil
		}
	}
	h.buckets = make(map[string][]Row)
	n := h.rightView.total()
	for i := 0; i < n; i++ {
		r := h.rightView.row(i)
		ok, err := passAll(h.jp.rightPred, h.rightEnv, r)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if k, ok := indexKey(r[h.jp.rightKey]); ok {
			h.buckets[k] = append(h.buckets[k], r)
		}
	}
	return h.rightView.err
}

// bucketLen returns the size of the current probe bucket.
func (h *hashJoinIter) bucketLen() int {
	if h.rightIx != nil {
		return len(h.curPos)
	}
	return len(h.curRows)
}

// bucketRow returns the i-th right row of the current probe bucket; both
// modes yield rows in right-table insertion order (index positions are
// global, so they address the sealed prefix and the tail alike).
func (h *hashJoinIter) bucketRow(i int) Row {
	if h.rightIx != nil {
		return h.rightView.row(h.curPos[i])
	}
	return h.curRows[i]
}

func (h *hashJoinIter) next() (Row, error) {
	if !h.built {
		if err := h.build(); err != nil {
			return nil, err
		}
	}
	for {
		for h.bucketPos < h.bucketLen() {
			rr := h.bucketRow(h.bucketPos)
			if h.rightView.err != nil {
				return nil, h.rightView.err
			}
			h.bucketPos++
			copy(h.combined[h.nLeft:], rr)
			ok, err := passAll(h.checks, h.env, h.combined)
			if err != nil {
				return nil, err
			}
			if ok {
				return h.combined, nil
			}
		}
		lr, err := h.left.next()
		if err != nil || lr == nil {
			return nil, err
		}
		copy(h.combined, lr)
		h.curRows, h.curPos = nil, nil
		h.bucketPos = 0
		var ok bool
		if h.keyBuf, ok = appendIndexKey(h.keyBuf[:0], lr[h.jp.leftKey]); ok {
			if h.rightIx != nil {
				h.curPos = h.rightIx.buckets[string(h.keyBuf)]
			} else {
				h.curRows = h.buckets[string(h.keyBuf)]
			}
		}
	}
}

// nlJoinIter is the nested-loop fallback for non-equi joins. The right
// side is pre-filtered once with its pushed-down predicates; the full ON
// expression and post-join predicates run per pair, exactly as the naive
// executor evaluates them.
type nlJoinIter struct {
	left     rowSrc
	jp       *joinPlan
	checks   []Expr
	env      *env
	rightEnv *env
	nLeft    int

	prepared  bool
	rightView rowsView
	rightRows []Row
	curLeft   Row
	rightPos  int
	combined  Row
}

func (n *nlJoinIter) prepare() error {
	if len(n.jp.rightPred) == 0 && n.rightView.sealed == 0 {
		n.rightRows = n.rightView.tail
	} else {
		// Materialize row headers once (the backing blocks stay cached);
		// the nested loop re-walks them per left row.
		total := n.rightView.total()
		for i := 0; i < total; i++ {
			r := n.rightView.row(i)
			ok, err := passAll(n.jp.rightPred, n.rightEnv, r)
			if err != nil {
				return err
			}
			if ok {
				n.rightRows = append(n.rightRows, r)
			}
		}
		if n.rightView.err != nil {
			return n.rightView.err
		}
	}
	n.prepared = true
	return nil
}

func (n *nlJoinIter) next() (Row, error) {
	if !n.prepared {
		if err := n.prepare(); err != nil {
			return nil, err
		}
	}
	for {
		if n.curLeft == nil {
			lr, err := n.left.next()
			if err != nil || lr == nil {
				return nil, err
			}
			n.curLeft = lr
			copy(n.combined, lr)
			n.rightPos = 0
		}
		for n.rightPos < len(n.rightRows) {
			rr := n.rightRows[n.rightPos]
			n.rightPos++
			copy(n.combined[n.nLeft:], rr)
			ok, err := passAll(n.checks, n.env, n.combined)
			if err != nil {
				return nil, err
			}
			if ok {
				return n.combined, nil
			}
		}
		n.curLeft = nil
	}
}

// pipeline assembles the operator tree for a planned SELECT under the
// chosen access path.
func (p *selectPlan) pipeline(args []Value, acc accessChoice) rowSrc {
	leftEnv := &env{cols: p.cols[:p.nLeft], args: args}
	var scan rowSrc
	if acc.walk != nil {
		w := &orderedWalkIter{view: p.base.view(), ix: acc.walk, desc: acc.walkDesc}
		w.vf.bind(p.vecPreds, args, leftEnv, &w.view)
		w.hi = len(acc.walk.keys)
		scan = w
	} else {
		s := &vecScanIter{view: p.base.view(), idx: acc.idx}
		s.vf.bind(p.vecPreds, args, leftEnv, &s.view)
		// Zone-map skipping applies to full scans over sealed blocks; index
		// probes already narrowed the positions.
		s.pruneOn = acc.idx == nil && s.view.eng != nil &&
			len(s.view.blocks) > 0 && s.view.eng.pruneOn.Load()
		scan = s
	}
	if p.join == nil {
		return scan
	}

	combEnv := &env{cols: p.cols, args: args}
	rightEnv := &env{cols: p.cols[p.nLeft:], args: args}
	checks := append([]Expr{p.join.on}, p.join.postPred...)
	if p.join.leftKey >= 0 && p.join.rightKey >= 0 {
		return &hashJoinIter{
			left: scan, jp: p.join, checks: checks, env: combEnv,
			rightEnv: rightEnv, nLeft: p.nLeft,
			rightView: p.join.right.view(),
			combined:  make(Row, len(p.cols)),
		}
	}
	return &nlJoinIter{
		left: scan, jp: p.join, checks: checks, env: combEnv,
		rightEnv: rightEnv, nLeft: p.nLeft,
		rightView: p.join.right.view(),
		combined:  make(Row, len(p.cols)),
	}
}

// runPlan executes a planned SELECT, returning a Rows iterator. Plain
// scans stream; DISTINCT streams through a seen-set; ORDER BY and
// aggregate queries materialize eagerly (their Rows iterate the
// materialized output). The caller must hold at least a read lock for as
// long as a streaming Rows is in use.
func (db *Database) runPlan(st *SelectStmt, args []Value) (*Rows, error) {
	p, err := db.planSelect(st)
	if err != nil {
		return nil, err
	}
	return p.rows(args)
}

// rows executes a plan. Plans are immutable after construction, so one
// plan may run concurrently from many goroutines (each execution builds
// its own iterator state).
func (p *selectPlan) rows(args []Value) (*Rows, error) {
	st := p.st
	if p.unsafe {
		// The naive executor evaluates every row, surfacing the per-row
		// predicate errors this query can produce (it also applies
		// LIMIT itself).
		rs, err := p.db.runSelectNaive(st, args)
		if err != nil {
			return nil, err
		}
		return &Rows{Columns: rs.Columns, mat: rs.Rows, limit: -1, materialized: true}, nil
	}
	acc, err := p.chooseAccess(args)
	if err != nil {
		return nil, err
	}
	src := p.pipeline(args, acc)
	outCols := outputColumns(st, p.cols)

	if p.hasAgg {
		var rows []Row
		for {
			r, err := src.next()
			if err != nil {
				return nil, err
			}
			if r == nil {
				break
			}
			rows = append(rows, r.clone())
		}
		rs, err := runAggregates(st, p.cols, rows)
		if err != nil {
			return nil, err
		}
		// The naive executor ignores LIMIT on all-aggregate selects; match it.
		return &Rows{Columns: rs.Columns, mat: rs.Rows, limit: -1, materialized: true}, nil
	}

	if len(st.OrderBy) > 0 {
		if acc.walk != nil {
			// The ordered walk already emits rows in ORDER BY order:
			// stream them, with LIMIT stopping the walk early instead of
			// materializing and truncating. (DISTINCT never reaches here;
			// see orderPush.)
			return &Rows{
				Columns: outCols,
				st:      st,
				src:     src,
				env:     &env{cols: p.cols, args: args},
				limit:   st.Limit,
			}, nil
		}
		mat, err := materializeOrdered(st, p.cols, src, args)
		if err != nil {
			return nil, err
		}
		return &Rows{Columns: outCols, mat: mat, limit: st.Limit, materialized: true}, nil
	}

	rows := &Rows{
		Columns: outCols,
		st:      st,
		src:     src,
		env:     &env{cols: p.cols, args: args},
		limit:   st.Limit,
	}
	if st.Distinct {
		rows.seen = make(map[string]bool)
	}
	return rows, nil
}

// projRow is one projected row awaiting the ORDER BY sort. seq is the
// arrival index: using (keys, seq) as the sort order makes the comparator
// a strict total order that reproduces a stable sort exactly, which both
// the plain sort and the bounded top-k heap rely on.
type projRow struct {
	out  []Value
	keys []Value
	seq  int
}

// materializeOrdered projects, deduplicates, and sorts the full row
// stream — the ORDER BY path, which cannot stream. When a LIMIT is
// present (and no DISTINCT), only the top LIMIT rows are retained in a
// bounded max-heap instead of sorting the full result: O(n log k) time
// and O(k) memory for a top-k query over n rows.
func materializeOrdered(st *SelectStmt, cols []qcol, src rowSrc, args []Value) ([][]Value, error) {
	less := func(a, b *projRow) bool {
		for k, key := range st.OrderBy {
			c := Compare(a.keys[k], b.keys[k])
			if c == 0 {
				continue
			}
			if key.Desc {
				return c > 0
			}
			return c < 0
		}
		return a.seq < b.seq
	}
	// DISTINCT deduplicates before sorting (keeping first-in-stream
	// representatives), so it must see every row: no top-k for it.
	topK := st.Limit >= 0 && !st.Distinct

	var projected []projRow // plain mode, and the heap in top-k mode
	e := &env{cols: cols, args: args}
	seq := 0
	for {
		r, err := src.next()
		if err != nil {
			return nil, err
		}
		if r == nil {
			break
		}
		e.row = r
		var out []Value
		if st.Star {
			out = r.clone()
		} else {
			out = make([]Value, len(st.Items))
			for i, it := range st.Items {
				v, err := eval(it.Expr, e)
				if err != nil {
					return nil, err
				}
				out[i] = v
			}
		}
		keys := make([]Value, len(st.OrderBy))
		for i, k := range st.OrderBy {
			v, err := eval(k.Expr, e)
			if err != nil {
				v, err = aliasValue(k.Expr, st.Items, out)
				if err != nil {
					return nil, err
				}
			}
			keys[i] = v
		}
		pr := projRow{out: out, keys: keys, seq: seq}
		seq++
		if topK {
			// Max-heap of the LIMIT least rows: the root is the greatest
			// kept row, evicted when a lesser row arrives. (Projection and
			// key evaluation above still ran for every row, so evaluation
			// errors surface exactly as in the full sort.)
			switch {
			case st.Limit == 0:
			case len(projected) < st.Limit:
				projected = append(projected, pr)
				heapSiftUp(projected, len(projected)-1, less)
			case less(&pr, &projected[0]):
				projected[0] = pr
				heapSiftDown(projected, 0, less)
			}
			continue
		}
		projected = append(projected, pr)
	}
	if st.Distinct {
		seen := make(map[string]bool, len(projected))
		kept := projected[:0]
		for _, pr := range projected {
			k := rowKey(pr.out)
			if seen[k] {
				continue
			}
			seen[k] = true
			kept = append(kept, pr)
		}
		projected = kept
	}
	// less is a strict total order (seq tie-break), so a plain sort
	// reproduces the naive executor's stable sort byte for byte.
	sort.Slice(projected, func(i, j int) bool {
		return less(&projected[i], &projected[j])
	})
	out := make([][]Value, len(projected))
	for i, pr := range projected {
		out[i] = pr.out
	}
	return out, nil
}

// heapSiftUp restores the max-heap property after appending at position i.
func heapSiftUp(h []projRow, i int, less func(a, b *projRow) bool) {
	for i > 0 {
		parent := (i - 1) / 2
		if !less(&h[parent], &h[i]) {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

// heapSiftDown restores the max-heap property after replacing position i.
func heapSiftDown(h []projRow, i int, less func(a, b *projRow) bool) {
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < len(h) && less(&h[largest], &h[l]) {
			largest = l
		}
		if r < len(h) && less(&h[largest], &h[r]) {
			largest = r
		}
		if largest == i {
			return
		}
		h[i], h[largest] = h[largest], h[i]
		i = largest
	}
}

// Rows is a streaming SELECT result. Typical use:
//
//	rows, err := stmt.QueryStream(args...)
//	defer rows.Close()
//	for rows.Next() {
//	    row := rows.Row()
//	    ...
//	}
//	err = rows.Err()
//
// A streaming Rows holds the database's read lock until Close (or
// exhaustion); callers must Close promptly and must not execute write
// statements on the same database from the same goroutine while
// iterating. Each row returned by Row is freshly allocated. NextBatch
// (batch.go) is the one iteration path: Next reads through it one row
// at a time, and Query drains it a batch at a time.
type Rows struct {
	Columns []string

	st    *SelectStmt
	src   rowSrc
	env   *env
	seen  map[string]bool // DISTINCT
	limit int             // -1: none

	mat          [][]Value // ORDER BY / aggregate output
	materialized bool
	matPos       int

	one     *ValueBatch // Next's one-row batch, made on first use
	cur     []Value
	emitted int
	err     error
	done    bool
	unlock  func()
}

// Next advances to the next result row, returning false at the end of
// the stream or on error (check Err).
func (r *Rows) Next() bool {
	if r.one == nil {
		r.one = new(ValueBatch)
	}
	if !r.NextBatch(r.one, 1) {
		return false
	}
	r.cur = r.one.appendRows(nil)[0]
	return true
}

// Row returns the current row. Valid only after a true Next.
func (r *Rows) Row() []Value { return r.cur }

// Err returns the error that terminated iteration, if any.
func (r *Rows) Err() error { return r.err }

// finish releases resources; further Next calls return false.
func (r *Rows) finish() {
	if r.done {
		return
	}
	r.done = true
	if r.unlock != nil {
		r.unlock()
		r.unlock = nil
	}
}

// Close releases the read lock a streaming Rows holds. It is safe to call
// multiple times and after exhaustion.
func (r *Rows) Close() { r.finish() }

// drain materializes the remaining rows into a ResultSet, a batch at a
// time.
func (r *Rows) drain() (*ResultSet, error) {
	rs := &ResultSet{Columns: r.Columns}
	if r.materialized {
		rs.Rows = make([][]Value, 0, len(r.mat)-r.matPos)
	}
	b := NewBatch()
	defer b.Release()
	for r.NextBatch(b, 0) {
		rs.Rows = b.appendRows(rs.Rows)
	}
	if r.err != nil {
		return nil, r.err
	}
	return rs, nil
}
