// Tests for the ordered secondary index and the planner paths built on
// it: range/BETWEEN probes, ORDER BY pushdown (ordered walk and top-k),
// LIMIT early stop, and the EXPLAIN introspection that makes index usage
// assertable. The differential sections pin every planned shortcut
// byte-equivalent to the naive executor over data with NULLs, duplicate
// keys, and mixed numeric/text types — the cases where ordered-index
// semantics (Compare) and equality semantics (Equal) diverge.
package minidb_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pperfgrid/internal/minidb"
)

// orderedObsDB builds a small table deliberately hostile to index
// shortcuts: duplicate keys (runs for the descending walk), NULLs in
// every indexed column, a text column holding numeric-looking strings
// (Equal folds '5' == 5, Compare does not), and both hash and ordered
// indexes declared through SQL.
func orderedObsDB(t *testing.T) *minidb.Database {
	t.Helper()
	db := minidb.NewDatabase()
	db.MustExec("CREATE TABLE obs (k INT, tag TEXT, v FLOAT)")
	rows := []string{
		"(4, 'a', 1.5)", "(2, 'b', NULL)", "(NULL, 'c', 3.25)",
		"(7, '5', 2.5)", "(4, 'd', 0.5)", "(2, 'b', 8.0)",
		"(NULL, NULL, 7.75)", "(9, 'e', 4.0)", "(4, 'a', 6.5)",
		"(1, 'f', NULL)", "(7, 'g', 5.25)", "(3, '5', 9.0)",
	}
	for _, r := range rows {
		db.MustExec("INSERT INTO obs VALUES " + r)
	}
	db.MustExec("CREATE ORDERED INDEX obs_k ON obs (k)")
	db.MustExec("CREATE ORDERED INDEX obs_v ON obs (v)")
	db.MustExec("CREATE INDEX obs_tag ON obs (tag)")
	return db
}

func TestCreateOrderedIndexIntrospection(t *testing.T) {
	db := orderedObsDB(t)
	ordered, err := db.OrderedIndexes("obs")
	if err != nil {
		t.Fatal(err)
	}
	if len(ordered) != 2 || ordered[0] != "k" || ordered[1] != "v" {
		t.Fatalf("OrderedIndexes = %v, want [k v]", ordered)
	}
	hash, err := db.Indexes("obs")
	if err != nil {
		t.Fatal(err)
	}
	if len(hash) != 1 || hash[0] != "tag" {
		t.Fatalf("Indexes = %v, want [tag]", hash)
	}
	// Re-declaring is a no-op, matching the hash-index convention.
	if err := db.CreateOrderedIndex("obs", "k"); err != nil {
		t.Fatalf("re-declaring ordered index: %v", err)
	}
	if err := db.CreateOrderedIndex("obs", "nosuch"); err == nil {
		t.Fatal("ordered index on unknown column did not error")
	}
}

// TestDifferentialOrderedFixed pins the hand-picked adversarial shapes:
// NULL bounds, inverted ranges, NULL IN items, mixed-type comparisons,
// and duplicate-key descending order.
func TestDifferentialOrderedFixed(t *testing.T) {
	db := orderedObsDB(t)
	for _, q := range []string{
		// Plain range probes, both directions, inclusive and strict.
		"SELECT k, tag, v FROM obs WHERE k >= 3",
		"SELECT k, tag, v FROM obs WHERE k > 3",
		"SELECT k, tag, v FROM obs WHERE k <= 4",
		"SELECT k, tag, v FROM obs WHERE k < 4",
		"SELECT k, v FROM obs WHERE k >= 2 AND k < 7",
		// BETWEEN: normal, empty, inverted, and NULL bounds (a NULL lower
		// bound makes the predicate match NULL rows; the index must not
		// be allowed to skip them).
		"SELECT k, v FROM obs WHERE k BETWEEN 2 AND 6",
		"SELECT k, v FROM obs WHERE k BETWEEN 6 AND 2",
		"SELECT k, v FROM obs WHERE k BETWEEN NULL AND 5",
		"SELECT k, v FROM obs WHERE k BETWEEN 2 AND NULL",
		"SELECT k, v FROM obs WHERE k NOT BETWEEN 2 AND 6",
		"SELECT k, v FROM obs WHERE v BETWEEN 1.0 AND 6.5",
		// IN through the hash index, with duplicates and a NULL item
		// (NULL IN-items match NULL rows; the probe must stand down).
		"SELECT k, tag FROM obs WHERE tag IN ('a', 'b')",
		"SELECT k, tag FROM obs WHERE tag IN ('a', 'a', 'b')",
		"SELECT k, tag FROM obs WHERE tag IN ('a', NULL)",
		"SELECT k, tag FROM obs WHERE tag NOT IN ('a', 'b')",
		// Mixed-type equality vs ordering: Equal folds '5' == 5 across
		// text/number, Compare orders numbers before text.
		"SELECT k, tag FROM obs WHERE tag = 5",
		"SELECT k, tag FROM obs WHERE tag IN (5, 'e')",
		"SELECT k, tag FROM obs WHERE k >= '3'",
		// IS NULL / IS NOT NULL through the ordered index's NULL run.
		"SELECT tag, v FROM obs WHERE k IS NULL",
		"SELECT tag, v FROM obs WHERE k IS NOT NULL",
		// ORDER BY pushdown: full walks both directions, NULL placement,
		// duplicate-key runs, LIMIT early stop, and LIMIT 0.
		"SELECT k, tag, v FROM obs ORDER BY k",
		"SELECT k, tag, v FROM obs ORDER BY k DESC",
		"SELECT k, tag, v FROM obs ORDER BY k LIMIT 5",
		"SELECT k, tag, v FROM obs ORDER BY k DESC LIMIT 5",
		"SELECT k, tag, v FROM obs ORDER BY k LIMIT 0",
		"SELECT v, k FROM obs ORDER BY v DESC LIMIT 3",
		// Top-k over a narrowed scan (probe wins, heap orders).
		"SELECT k, v FROM obs WHERE k >= 2 ORDER BY v LIMIT 4",
		"SELECT k, v FROM obs WHERE k BETWEEN 1 AND 7 ORDER BY v DESC LIMIT 4",
		// DISTINCT disqualifies both walk and top-k; must still match.
		"SELECT DISTINCT k FROM obs ORDER BY k",
		"SELECT DISTINCT k FROM obs ORDER BY k DESC LIMIT 3",
		// Residual conjuncts on top of a probe (vectorized re-check).
		"SELECT k, tag, v FROM obs WHERE k >= 2 AND tag != 'b' AND v IS NOT NULL",
		"SELECT k, tag, v FROM obs WHERE k BETWEEN 2 AND 9 AND tag LIKE '%a%'",
	} {
		assertSameResults(t, db, q)
	}
}

// TestDifferentialOrderedRandom fuzzes the planned pipeline against the
// naive executor over the adversarial table, interleaving mutations so
// stale-index rebuilds are exercised mid-stream. Mutations alternate
// between literal SQL and prepared ?-bound inserts — the write path's
// ingestion route — so the incremental hash-index add and ordered-index
// staleness marking in noteInsert are fuzzed alongside the planner.
func TestDifferentialOrderedRandom(t *testing.T) {
	db := orderedObsDB(t)
	rng := rand.New(rand.NewSource(99))
	ins, err := db.Prepare("INSERT INTO obs VALUES (?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	insNeg, err := db.Prepare("INSERT INTO obs VALUES (-?, ?, -?)")
	if err != nil {
		t.Fatal(err)
	}
	cmp := []string{">=", ">", "<=", "<", "=", "!="}
	orders := []string{"", " ORDER BY k", " ORDER BY k DESC", " ORDER BY v", " ORDER BY v DESC"}
	for i := 0; i < 400; i++ {
		var q string
		switch rng.Intn(5) {
		case 0:
			q = fmt.Sprintf("SELECT k, tag, v FROM obs WHERE k %s %d", cmp[rng.Intn(len(cmp))], rng.Intn(11))
		case 1:
			lo := rng.Intn(10)
			q = fmt.Sprintf("SELECT k, v FROM obs WHERE k BETWEEN %d AND %d", lo, lo+rng.Intn(6)-1)
		case 2:
			q = fmt.Sprintf("SELECT k, v FROM obs WHERE v %s %g", cmp[rng.Intn(len(cmp))], rng.Float64()*10)
		case 3:
			q = fmt.Sprintf("SELECT tag, k FROM obs WHERE tag IN ('%c', '%c')", 'a'+rune(rng.Intn(8)), 'a'+rune(rng.Intn(8)))
		default:
			q = fmt.Sprintf("SELECT k, tag, v FROM obs WHERE k >= %d AND v <= %g", rng.Intn(8), rng.Float64()*10)
		}
		q += orders[rng.Intn(len(orders))]
		if rng.Intn(2) == 0 {
			q += fmt.Sprintf(" LIMIT %d", rng.Intn(8))
		}
		assertSameResults(t, db, q)

		// Every few queries, mutate: the next probe must rebuild.
		switch {
		case i%23 == 11:
			if i%2 == 0 {
				db.MustExec(fmt.Sprintf("INSERT INTO obs VALUES (%d, '%c', %g)", rng.Intn(12), 'a'+rune(rng.Intn(8)), rng.Float64()*10))
			} else if _, err := ins.Exec(minidb.Int(int64(rng.Intn(12))), minidb.Text(string(rune('a'+rng.Intn(8)))), minidb.Float(rng.Float64()*10)); err != nil {
				t.Fatalf("iter %d: prepared insert: %v", i, err)
			}
		case i%31 == 17:
			db.MustExec(fmt.Sprintf("DELETE FROM obs WHERE k = %d AND v > %g", rng.Intn(12), rng.Float64()*10))
		case i%41 == 29:
			db.MustExec(fmt.Sprintf("UPDATE obs SET v = %g WHERE k = %d", rng.Float64()*10, rng.Intn(12)))
		case i%37 == 19:
			// Negated params land negative keys: below every literal range
			// bound, so ordered walks must still place them first.
			if _, err := insNeg.Exec(minidb.Int(int64(1+rng.Intn(5))), minidb.Text("neg"), minidb.Float(rng.Float64()*4)); err != nil {
				t.Fatalf("iter %d: prepared negated insert: %v", i, err)
			}
		}
	}
}

// TestOrderedBatchParity drains ordered-walk and range-probe plans
// through NextBatch at random batch sizes and compares against the
// row-at-a-time stream of a fresh cursor.
func TestOrderedBatchParity(t *testing.T) {
	db := orderedObsDB(t)
	rng := rand.New(rand.NewSource(5))
	for _, q := range []string{
		"SELECT k, tag, v FROM obs ORDER BY k",
		"SELECT k, tag, v FROM obs ORDER BY k DESC",
		"SELECT k, v FROM obs WHERE k BETWEEN 2 AND 7 ORDER BY v LIMIT 6",
		"SELECT k, v FROM obs WHERE v >= 2.0",
	} {
		stmt, err := db.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		var viaNext [][]string
		rows, err := stmt.QueryStream()
		if err != nil {
			t.Fatal(err)
		}
		for rows.Next() {
			var r []string
			for _, v := range rows.Row() {
				r = append(r, v.String())
			}
			viaNext = append(viaNext, r)
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}

		var viaBatch [][]string
		rows2, err := stmt.QueryStream()
		if err != nil {
			t.Fatal(err)
		}
		b := minidb.NewBatch()
		for rows2.NextBatch(b, 1+rng.Intn(5)) {
			for i := 0; i < b.Rows(); i++ {
				var r []string
				for c := 0; c < b.Cols(); c++ {
					r = append(r, b.At(c, i).String())
				}
				viaBatch = append(viaBatch, r)
			}
		}
		b.Release()
		if err := rows2.Err(); err != nil {
			t.Fatal(err)
		}
		if len(viaNext) != len(viaBatch) {
			t.Fatalf("%q: Next %d rows, NextBatch %d", q, len(viaNext), len(viaBatch))
		}
		for i := range viaNext {
			for j := range viaNext[i] {
				if viaNext[i][j] != viaBatch[i][j] {
					t.Fatalf("%q row %d col %d: Next %q, NextBatch %q", q, i, j, viaNext[i][j], viaBatch[i][j])
				}
			}
		}
	}
}

// TestExplainAccessPaths asserts the planner's choices through the
// EXPLAIN introspection — the property the scale-star test and the
// benchmark rely on to prove queries go through their indexes.
func TestExplainAccessPaths(t *testing.T) {
	db := orderedObsDB(t)
	for _, tc := range []struct {
		sql    string
		access string
		column string
		check  func(*minidb.PlanInfo) error
	}{
		{sql: "SELECT v FROM obs WHERE tag = 'a'", access: "index-eq", column: "tag"},
		{sql: "SELECT v FROM obs WHERE tag IN ('a', 'b')", access: "index-in", column: "tag"},
		{sql: "SELECT v FROM obs WHERE k >= 3 AND k < 8", access: "index-range", column: "k"},
		{sql: "SELECT v FROM obs WHERE k BETWEEN 3 AND 8", access: "index-range", column: "k"},
		{sql: "SELECT tag FROM obs WHERE k IS NULL", access: "index-null", column: "k"},
		// No ordered index on tag: a range on it stays a seq scan.
		{sql: "SELECT v FROM obs WHERE tag >= 'c'", access: "seq-scan"},
		// NULL IN-item and NULL BETWEEN-lower-bound stand down to scans.
		{sql: "SELECT v FROM obs WHERE tag IN ('a', NULL)", access: "seq-scan"},
		{sql: "SELECT v FROM obs WHERE k BETWEEN NULL AND 5", access: "seq-scan"},
		{
			sql: "SELECT k, v FROM obs ORDER BY k", access: "ordered-walk", column: "k",
			check: func(pi *minidb.PlanInfo) error {
				if pi.OrderedDesc {
					return fmt.Errorf("want ascending walk")
				}
				return nil
			},
		},
		{
			sql: "SELECT k, v FROM obs ORDER BY k DESC LIMIT 3", access: "ordered-walk", column: "k",
			check: func(pi *minidb.PlanInfo) error {
				if !pi.OrderedDesc || !pi.StreamLimit {
					return fmt.Errorf("want descending walk with stream limit, got %s", pi)
				}
				return nil
			},
		},
		{
			// A probe narrows first; ORDER BY then runs through the
			// bounded heap instead of a full sort.
			sql: "SELECT k, v FROM obs WHERE k >= 2 ORDER BY v LIMIT 4", access: "index-range", column: "k",
			check: func(pi *minidb.PlanInfo) error {
				if !pi.TopK {
					return fmt.Errorf("want top-k, got %s", pi)
				}
				return nil
			},
		},
		{
			// DISTINCT forbids both the walk and the heap (the reference
			// semantics dedup before sorting, keeping first-in-table-order
			// representatives).
			sql: "SELECT DISTINCT k FROM obs ORDER BY k DESC LIMIT 3", access: "seq-scan",
			check: func(pi *minidb.PlanInfo) error {
				if pi.TopK {
					return fmt.Errorf("DISTINCT must not use top-k, got %s", pi)
				}
				return nil
			},
		},
		{
			// Unknown column in WHERE: routed to the naive executor.
			sql: "SELECT v FROM obs WHERE nosuch = 1", access: "seq-scan",
			check: func(pi *minidb.PlanInfo) error {
				if !pi.Naive {
					return fmt.Errorf("want naive routing, got %s", pi)
				}
				return nil
			},
		},
	} {
		pi, err := db.Explain(tc.sql)
		if err != nil {
			t.Fatalf("%q: %v", tc.sql, err)
		}
		if pi.Access != tc.access {
			t.Fatalf("%q: access %q, want %q (%s)", tc.sql, pi.Access, tc.access, pi)
		}
		if tc.column != "" && pi.AccessColumn != tc.column {
			t.Fatalf("%q: column %q, want %q (%s)", tc.sql, pi.AccessColumn, tc.column, pi)
		}
		if tc.check != nil {
			if err := tc.check(pi); err != nil {
				t.Fatalf("%q: %v (%s)", tc.sql, err, pi)
			}
		}
	}
}

// TestExplainWithParams asserts the prepared-statement Explain honors
// bindings: the same statement probes or stands down depending on the
// bound value.
func TestExplainWithParams(t *testing.T) {
	db := orderedObsDB(t)
	stmt, err := db.Prepare("SELECT k, v FROM obs WHERE k >= ? AND k <= ?")
	if err != nil {
		t.Fatal(err)
	}
	pi, err := stmt.Explain(minidb.Int(2), minidb.Int(7))
	if err != nil {
		t.Fatal(err)
	}
	if pi.Access != "index-range" || pi.AccessColumn != "k" {
		t.Fatalf("bound range: %s", pi)
	}
	if pi.Candidates < 0 {
		t.Fatalf("bound range did not report candidates: %s", pi)
	}
	if _, err := stmt.Explain(minidb.Int(2)); err == nil {
		t.Fatal("Explain with missing binding did not error")
	}
}

// TestOrderedIndexConcurrentLazyBuild invalidates the index, then lets
// many readers probe simultaneously: exactly the window where the lazy
// rebuild races. Run under -race this pins the per-index build lock.
func TestOrderedIndexConcurrentLazyBuild(t *testing.T) {
	db := orderedObsDB(t)
	want, err := db.Query("SELECT k, v FROM obs WHERE k BETWEEN 2 AND 7 ORDER BY k, v")
	if err != nil {
		t.Fatal(err)
	}
	wantRows := want.Strings()
	for round := 0; round < 5; round++ {
		// Mutation marks both ordered indexes stale.
		db.MustExec(fmt.Sprintf("INSERT INTO obs VALUES (100, 'zz', %d.5)", round))
		db.MustExec("DELETE FROM obs WHERE k = 100")
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rs, err := db.Query("SELECT k, v FROM obs WHERE k BETWEEN 2 AND 7 ORDER BY k, v")
				if err != nil {
					errs <- err
					return
				}
				got := rs.Strings()
				if len(got) != len(wantRows) {
					errs <- fmt.Errorf("concurrent probe: %d rows, want %d", len(got), len(wantRows))
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}

// TestRangeProbeAllocs pins the allocation budget of the range-probe hot
// path: a prepared statement probing an ordered index and draining
// through the pooled batch API must stay within a fixed per-query
// budget regardless of how many rows the range selects.
func TestRangeProbeAllocs(t *testing.T) {
	db := minidb.NewDatabase()
	db.MustExec("CREATE TABLE pts (ts FLOAT, v FLOAT)")
	rows := make([][]minidb.Value, 4096)
	for i := range rows {
		rows[i] = []minidb.Value{minidb.Float(float64(i)), minidb.Float(float64(i % 97))}
	}
	if err := db.InsertRows("pts", rows); err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE ORDERED INDEX pts_ts ON pts (ts)")
	stmt, err := db.Prepare("SELECT ts, v FROM pts WHERE ts >= ? AND ts < ?")
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := minidb.Float(1024), minidb.Float(1536) // 512 rows
	b := minidb.NewBatch()
	defer b.Release()
	drain := func() {
		rows, err := stmt.QueryStream(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for rows.NextBatch(b, 0) {
			n += b.Rows()
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		if n != 512 {
			t.Fatalf("drained %d rows, want 512", n)
		}
	}
	drain() // warm: plan cache, lazy index build, pooled arrays
	allocs := testing.AllocsPerRun(200, drain)
	// Budget: cursor + env + batch bookkeeping + the sorted copy of the
	// probed span. The span copy is O(selected rows) bytes but a handful
	// of allocations; anything per-row would blow this budget at once.
	if allocs > 24 {
		t.Fatalf("range-probe query allocated %.0f times, budget 24", allocs)
	}
}
