// Differential tests for the vectorized result path: every query runs
// once through the retained row-at-a-time iterator (Rows.Next — the
// oracle) and once through NextBatch with randomized batch sizes, and the
// delivered row streams must match exactly, terminal errors included.
package minidb_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pperfgrid/internal/minidb"
)

// drainNext collects a query's rows through the row-at-a-time oracle.
func drainNext(db *minidb.Database, q string) ([][]string, error) {
	st, err := db.Prepare(q)
	if err != nil {
		return nil, err
	}
	rows, err := st.QueryStream()
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var out [][]string
	for rows.Next() {
		row := rows.Row()
		s := make([]string, len(row))
		for i, v := range row {
			s[i] = v.String()
		}
		out = append(out, s)
	}
	return out, rows.Err()
}

// drainBatch collects the same rows through NextBatch.
func drainBatch(db *minidb.Database, q string, max int) ([][]string, error) {
	st, err := db.Prepare(q)
	if err != nil {
		return nil, err
	}
	rows, err := st.QueryStream()
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	b := minidb.NewBatch()
	defer b.Release()
	var out [][]string
	for rows.NextBatch(b, max) {
		for r := 0; r < b.Rows(); r++ {
			s := make([]string, b.Cols())
			for c := range s {
				s[c] = b.At(c, r).String()
			}
			out = append(out, s)
		}
	}
	return out, rows.Err()
}

func assertBatchMatchesNext(t *testing.T, db *minidb.Database, q string, max int) {
	t.Helper()
	want, wantErr := drainNext(db, q)
	got, gotErr := drainBatch(db, q, max)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("error divergence for %q (max=%d):\nbatch err: %v\nnext err:  %v", q, max, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("row divergence for %q (max=%d):\nbatch %v\nnext  %v", q, max, got, want)
	}
}

func TestNextBatchMatchesNext(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			db := starDB(t, seed)
			rng := rand.New(rand.NewSource(seed * 104729))
			for i := 0; i < 120; i++ {
				q := randStarQuery(rng)
				max := []int{0, 1, 2, 3, 7, 64, 10000}[rng.Intn(7)]
				assertBatchMatchesNext(t, db, q, max)
			}
		})
	}
}

// TestNextBatchErrorShapes pins stream-time error parity: a projection
// that errors per row must terminate both iterators with the same error,
// and a DISTINCT stream must dedup identically across batch boundaries.
func TestNextBatchErrorShapes(t *testing.T) {
	db := starDB(t, 1)
	for _, q := range []string{
		"SELECT nosuchcol FROM results",
		"SELECT COUNT(value) FROM results WHERE nosuch = 1",
		"SELECT DISTINCT metricid, execid FROM results",
		"SELECT DISTINCT metricid FROM results LIMIT 2",
		"SELECT value FROM results LIMIT 0",
		"SELECT value FROM results WHERE execid = 'absent'",
	} {
		for _, max := range []int{1, 3, 1000} {
			assertBatchMatchesNext(t, db, q, max)
		}
	}
}

// TestBatchScanAllocs pins the vectorized path's allocation profile: a
// warmed fact-join scan through NextBatch costs a small per-query
// constant, not one allocation per row as the oracle's projection does.
func TestBatchScanAllocs(t *testing.T) {
	db := starDB(t, 2)
	const q = "SELECT f.path, r.starttime, r.endtime, r.value, r.typeid " +
		"FROM results r JOIN foci f ON r.fociid = f.fociid WHERE r.execid = '1'"
	st, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	b := minidb.NewBatch()
	defer b.Release()
	nrows := 0
	drain := func() {
		rows, err := st.QueryStream()
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		nrows = 0
		for rows.NextBatch(b, 0) {
			nrows += b.Rows()
		}
		if rows.Err() != nil {
			t.Fatal(rows.Err())
		}
	}
	drain() // warm the plan cache and the batch's backing arrays
	if nrows == 0 {
		t.Fatal("scan returned no rows; the allocation pin would be vacuous")
	}
	allocs := testing.AllocsPerRun(20, drain)
	if allocs > 24 {
		t.Fatalf("warmed batch scan of %d rows allocates %.1f times per query, want a small constant (<= 24)", nrows, allocs)
	}
	t.Logf("warmed batch scan: %d rows, %.1f allocs/query", nrows, allocs)
}

// TestIndexProbeAllocs pins the satellite fix for the per-probe key
// garbage: a warmed indexed point query allocates no per-probe key
// strings on its scan side.
func TestIndexProbeAllocs(t *testing.T) {
	db := starDB(t, 3)
	st, err := db.Prepare("SELECT value FROM results WHERE execid = '2'")
	if err != nil {
		t.Fatal(err)
	}
	b := minidb.NewBatch()
	defer b.Release()
	drain := func() {
		rows, err := st.QueryStream()
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		for rows.NextBatch(b, 0) {
		}
		if rows.Err() != nil {
			t.Fatal(rows.Err())
		}
	}
	drain()
	before := testing.AllocsPerRun(50, drain)
	if before > 16 {
		t.Fatalf("warmed indexed probe allocates %.1f times per query, want a small constant (<= 16)", before)
	}
}

// TestQueryAllocsPerRow pins Query's drain through NextBatch: result rows
// are carved from one allocation per batch, so a warmed Query allocates
// far less than once per row — the row-at-a-time drain it replaced
// allocated one []Value per row (1.01-1.02 allocs/row on the streamed
// queries here). A materialized result (an ORDER BY no index serves)
// still builds its rows, and their sort keys, before the drain; it must
// stay at the old drain's 2.021 allocs/row, with 0.01 of slack because
// -race makes sync.Pool drop pooled batches at random.
func TestQueryAllocsPerRow(t *testing.T) {
	db := starDB(t, 4)
	for _, c := range []struct {
		q      string
		perRow float64
	}{
		{"SELECT * FROM results", 0.05},
		{"SELECT r.value, r.starttime FROM results r WHERE r.value > 1", 0.05},
		{"SELECT f.path, r.value FROM results r JOIN foci f ON r.fociid = f.fociid", 0.05},
		{"SELECT r.value, r.fociid FROM results r ORDER BY r.fociid, r.value DESC", 2.03},
	} {
		st, err := db.Prepare(c.q)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := st.Query()
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Rows) < 1000 {
			t.Fatalf("%q returned %d rows; too few for a per-row pin", c.q, len(rs.Rows))
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := st.Query(); err != nil {
				t.Fatal(err)
			}
		})
		if got := allocs / float64(len(rs.Rows)); got > c.perRow {
			t.Errorf("%q: %.3f allocs/row over %d rows, want <= %.2f", c.q, got, len(rs.Rows), c.perRow)
		}
	}
}
