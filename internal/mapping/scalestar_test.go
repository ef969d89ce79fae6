package mapping_test

import (
	"strconv"
	"strings"
	"testing"

	"pperfgrid/internal/datagen"
	"pperfgrid/internal/mapping"
	"pperfgrid/internal/minidb"
)

// fmtFloatLit renders a float as an exact SQL literal.
func fmtFloatLit(v float64) string {
	s := strconv.FormatFloat(v, 'f', -1, 64)
	if !strings.Contains(s, ".") {
		s += ".0"
	}
	return s
}

// TestScaleStarIndexedMatchesNaive loads the in-memory scale star with
// the production star indexes and holds the planned pipeline to the
// naive full-scan executor, cell by cell, on the hot and cold execid
// point queries, selective time windows across the execution axis, and
// the value top-k. Each statement must also take the access path the
// indexes exist for, both as literal SQL and as a prepared statement
// with the same values bound as parameters.
func TestScaleStarIndexedMatchesNaive(t *testing.T) {
	db := minidb.NewDatabase()
	cfg, err := datagen.LoadScaleStar(db, datagen.ScaleConfig{Executions: 50, ResultsPerExec: 1000, Seed: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := mapping.DeclareStarIndexes(db); err != nil {
		t.Fatal(err)
	}

	nExec := cfg.Executions
	pointSQL := "SELECT starttime, value FROM results WHERE execid = ?"
	rangeSQL := "SELECT execid, starttime, value FROM results WHERE starttime >= ? AND starttime <= ?"
	coldID := func(i int) string {
		return cfg.ExecID(int((uint64(i) * 2654435761) % uint64(nExec)))
	}
	// check is one statement: sql with args bound, and the same values
	// rendered into the literal SQL.
	type check struct {
		sql     string
		args    []minidb.Value
		literal string
		access  string
	}
	point := func(id string) check {
		return check{pointSQL, []minidb.Value{minidb.Text(id)}, strings.Replace(pointSQL, "?", "'"+id+"'", 1), "index-eq"}
	}
	checks := []check{point(cfg.ExecID(nExec / 2))}
	for _, i := range []int{0, 7, 131} {
		checks = append(checks, point(coldID(i)))
	}
	for _, i := range []int{0, nExec / 3, nExec - 1} {
		lo, hi := cfg.TimeWindow(i)
		s := strings.Replace(rangeSQL, "?", fmtFloatLit(lo), 1)
		checks = append(checks, check{rangeSQL, []minidb.Value{minidb.Float(lo), minidb.Float(hi)},
			strings.Replace(s, "?", fmtFloatLit(hi), 1), "index-range"})
	}
	topk := "SELECT execid, starttime, value FROM results ORDER BY value DESC LIMIT 10"
	checks = append(checks, check{topk, nil, topk, "ordered-walk"})

	sameCells := func(what string, got, want *minidb.ResultSet) {
		t.Helper()
		g, w := got.Strings(), want.Strings()
		if len(g) == 0 {
			t.Fatalf("%s selected no rows", what)
		}
		if len(g) != len(w) {
			t.Fatalf("%s: planned %d rows, naive %d", what, len(g), len(w))
		}
		for i := range g {
			if len(g[i]) != len(w[i]) {
				t.Fatalf("%s row %d: planned %d cells, naive %d", what, i, len(g[i]), len(w[i]))
			}
			for j := range g[i] {
				if g[i][j] != w[i][j] {
					t.Fatalf("%s row %d col %d: planned %q, naive %q", what, i, j, g[i][j], w[i][j])
				}
			}
		}
	}

	for _, c := range checks {
		want, err := db.QueryNaive(c.literal)
		if err != nil {
			t.Fatalf("naive %q: %v", c.literal, err)
		}
		got, err := db.Query(c.literal)
		if err != nil {
			t.Fatalf("planned %q: %v", c.literal, err)
		}
		sameCells(strconv.Quote(c.literal), got, want)
		info, err := db.Explain(c.literal)
		if err != nil {
			t.Fatal(err)
		}
		if info.Access != c.access {
			t.Fatalf("%q: access %q, want %q (%s)", c.literal, info.Access, c.access, info)
		}

		stmt, err := db.Prepare(c.sql)
		if err != nil {
			t.Fatalf("prepare %q: %v", c.sql, err)
		}
		what := strconv.Quote(c.sql) + " with " + c.literal
		got, err = stmt.Query(c.args...)
		if err != nil {
			t.Fatalf("prepared %s: %v", what, err)
		}
		sameCells(what, got, want)
		info, err = stmt.Explain(c.args...)
		if err != nil {
			t.Fatal(err)
		}
		if info.Access != c.access {
			t.Fatalf("prepared %s: access %q, want %q (%s)", what, info.Access, c.access, info)
		}
	}
}
