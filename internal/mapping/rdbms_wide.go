package mapping

import (
	"fmt"
	"sync"

	"pperfgrid/internal/minidb"
	"pperfgrid/internal/perfdata"
)

// WideTableWrapper maps a single-table relational store — the paper's HPL
// layout — onto the PPerfGrid interfaces. The table has one row per
// execution with the fixed columns (execid, starttime, endtime, collector)
// followed by one TEXT column per attribute and one FLOAT column per
// whole-run metric, the schema produced by datagen.LoadWideTable.
//
// Every operation is answered by a prepared statement, like the paper's
// JDBC wrapper of Figure 4 upgraded to PreparedStatement: the SQL
// template is parsed once (minidb.Database.Prepare caches by text) and
// values are bound per call, so only the plan/scan cost is paid per
// query. Identifiers (table, attribute, and metric column names) cannot
// be parameters; each composed text is built once under the identOK
// guard and cached on the wrapper (see wideSQLCache), so repeat queries
// hand Prepare the same interned string — one statement/plan cache entry
// per template, zero per-call SQL construction.
type WideTableWrapper struct {
	DB    *minidb.Database
	Table string
	// Meta is the application metadata returned by AppInfo.
	Meta []perfdata.KV
	// Attrs and Metrics partition the table's non-fixed columns.
	Attrs   []string
	Metrics []string

	sql wideSQLCache

	// pubMu serializes publishes: the NULL-cell and collector checks plus
	// the UPDATE are separate statements, and two concurrent publishes of
	// the same metric would otherwise both pass the duplicate check.
	pubMu sync.Mutex
}

// EngineStats reports the backing storage engine's counters (page cache,
// zone-map skipping, WAL) for service-data publication.
func (w *WideTableWrapper) EngineStats() minidb.EngineStats { return w.DB.EngineStats() }

// Close flushes and closes the backing store (a no-op for the in-memory
// engine).
func (w *WideTableWrapper) Close() error { return w.DB.Close() }

// wideSQLCache holds the wrapper's composed SQL texts: the fixed
// per-table statements (built once) and the identifier-parameterized
// templates, keyed by attribute or metric column name. Identifiers
// cannot be `?` binds, so this cache is what routes every wide-table
// query through the statement/plan cache instead of re-deriving SQL text
// (and re-keying the statement cache map) per call.
type wideSQLCache struct {
	once                                                          sync.Once
	numExecs, allExecIDs, hasExec, rowByExec, typesByID, timeByID string

	mu           sync.Mutex
	distinctAttr map[string]string // ExecQueryParams projection per attribute
	execIDsAttr  map[string]string // ExecIDs filter per attribute
	prByMetric   map[string]string // getPR projection per metric column
	pubCheck     map[string]string // publish pre-check per metric column
	pubSet       map[string]string // publish cell update per metric column
	pubSetColl   map[string]string // publish cell+collector update per metric column
}

// fixed returns the table-only statement texts, composing them on first
// use.
func (w *WideTableWrapper) fixed() *wideSQLCache {
	c := &w.sql
	c.once.Do(func() {
		t := w.Table
		c.numExecs = "SELECT COUNT(DISTINCT execid) FROM " + t
		c.allExecIDs = "SELECT execid FROM " + t + " ORDER BY execid"
		c.hasExec = "SELECT COUNT(*) FROM " + t + " WHERE execid = ?"
		c.rowByExec = "SELECT * FROM " + t + " WHERE execid = ?"
		c.typesByID = "SELECT DISTINCT collector FROM " + t + " WHERE execid = ?"
		c.timeByID = "SELECT starttime, endtime FROM " + t + " WHERE execid = ?"
	})
	return c
}

// identSQL returns the cached composed text for one identifier under one
// template map, building it on first use.
func (c *wideSQLCache) identSQL(m *map[string]string, ident string, build func(string) string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if *m == nil {
		*m = make(map[string]string)
	}
	if s, ok := (*m)[ident]; ok {
		return s
	}
	s := build(ident)
	(*m)[ident] = s
	return s
}

// prepQuery runs a prepared statement with bindings, materializing the
// result: the shared helper behind the relational wrappers' small
// discovery queries (only the getPR paths stream).
func prepQuery(db *minidb.Database, sql string, args ...minidb.Value) (*minidb.ResultSet, error) {
	st, err := db.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return st.Query(args...)
}

// identOK reports whether a string is usable as a column name, the guard
// that keeps attribute names from smuggling SQL into composed queries.
func identOK(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// AppInfo implements ApplicationWrapper.
func (w *WideTableWrapper) AppInfo() ([]perfdata.KV, error) {
	out := make([]perfdata.KV, len(w.Meta))
	copy(out, w.Meta)
	return out, nil
}

// query runs a prepared statement with bindings.
func (w *WideTableWrapper) query(sql string, args ...minidb.Value) (*minidb.ResultSet, error) {
	return prepQuery(w.DB, sql, args...)
}

// NumExecs implements ApplicationWrapper.
func (w *WideTableWrapper) NumExecs() (int, error) {
	rs, err := w.query(w.fixed().numExecs)
	if err != nil {
		return 0, err
	}
	return int(rs.Rows[0][0].Int), nil
}

// ExecQueryParams implements ApplicationWrapper: one DISTINCT projection
// per attribute column.
func (w *WideTableWrapper) ExecQueryParams() ([]perfdata.Attribute, error) {
	c := w.fixed()
	out := make([]perfdata.Attribute, 0, len(w.Attrs))
	for _, attr := range w.Attrs {
		if !identOK(attr) {
			return nil, fmt.Errorf("mapping: bad attribute column %q", attr)
		}
		sql := c.identSQL(&c.distinctAttr, attr, func(a string) string {
			return "SELECT DISTINCT " + a + " FROM " + w.Table + " WHERE " + a + " IS NOT NULL ORDER BY " + a
		})
		rs, err := w.query(sql)
		if err != nil {
			return nil, err
		}
		a := perfdata.Attribute{Name: attr}
		for _, row := range rs.Rows {
			a.Values = append(a.Values, row[0].String())
		}
		out = append(out, a)
	}
	return out, nil
}

// AllExecIDs implements ApplicationWrapper.
func (w *WideTableWrapper) AllExecIDs() ([]string, error) {
	rs, err := w.query(w.fixed().allExecIDs)
	if err != nil {
		return nil, err
	}
	return column0(rs), nil
}

// ExecIDs implements ApplicationWrapper.
func (w *WideTableWrapper) ExecIDs(attr, value string) ([]string, error) {
	if !identOK(attr) {
		return nil, fmt.Errorf("mapping: bad attribute %q", attr)
	}
	c := w.fixed()
	sql := c.identSQL(&c.execIDsAttr, attr, func(a string) string {
		return "SELECT execid FROM " + w.Table + " WHERE " + a + " = ? ORDER BY execid"
	})
	rs, err := w.query(sql, minidb.Text(value))
	if err != nil {
		return nil, err
	}
	return column0(rs), nil
}

func column0(rs *minidb.ResultSet) []string {
	out := make([]string, len(rs.Rows))
	for i, row := range rs.Rows {
		out[i] = row[0].String()
	}
	return out
}

// ExecutionWrapper implements ApplicationWrapper.
func (w *WideTableWrapper) ExecutionWrapper(id string) (ExecutionWrapper, error) {
	rs, err := w.query(w.fixed().hasExec, minidb.Text(id))
	if err != nil {
		return nil, err
	}
	if rs.Rows[0][0].Int == 0 {
		return nil, fmt.Errorf("%w: %q in table %s", ErrNoSuchExecution, id, w.Table)
	}
	return &wideExec{w: w, id: id}, nil
}

type wideExec struct {
	w  *WideTableWrapper
	id string
}

func (e *wideExec) row() (*minidb.ResultSet, error) {
	return e.w.query(e.w.fixed().rowByExec, minidb.Text(e.id))
}

// Info returns the execution's attributes as metadata pairs.
func (e *wideExec) Info() ([]perfdata.KV, error) {
	rs, err := e.row()
	if err != nil {
		return nil, err
	}
	if len(rs.Rows) == 0 {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchExecution, e.id)
	}
	out := []perfdata.KV{{Name: "id", Value: e.id}}
	for i, col := range rs.Columns {
		for _, attr := range e.w.Attrs {
			if col == attr && !rs.Rows[0][i].IsNull() {
				out = append(out, perfdata.KV{Name: col, Value: rs.Rows[0][i].String()})
			}
		}
	}
	return out, nil
}

// Foci: a wide table stores whole-run metrics, so the only focus is the
// root of the resource hierarchy.
func (e *wideExec) Foci() ([]string, error) { return []string{"/"}, nil }

// Metrics returns the metric columns that are non-NULL for this execution.
func (e *wideExec) Metrics() ([]string, error) {
	rs, err := e.row()
	if err != nil {
		return nil, err
	}
	if len(rs.Rows) == 0 {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchExecution, e.id)
	}
	var out []string
	for i, col := range rs.Columns {
		for _, m := range e.w.Metrics {
			if col == m && !rs.Rows[0][i].IsNull() {
				out = append(out, col)
			}
		}
	}
	return perfdata.UniqueSorted(out), nil
}

func (e *wideExec) Types() ([]string, error) {
	rs, err := e.w.query(e.w.fixed().typesByID, minidb.Text(e.id))
	if err != nil {
		return nil, err
	}
	return column0(rs), nil
}

func (e *wideExec) TimeStartEnd() (perfdata.TimeRange, error) {
	rs, err := e.w.query(e.w.fixed().timeByID, minidb.Text(e.id))
	if err != nil {
		return perfdata.TimeRange{}, err
	}
	if len(rs.Rows) == 0 {
		return perfdata.TimeRange{}, fmt.Errorf("%w: %q", ErrNoSuchExecution, e.id)
	}
	start, _ := rs.Rows[0][0].AsFloat()
	end, _ := rs.Rows[0][1].AsFloat()
	return perfdata.TimeRange{Start: start, End: end}, nil
}

func (e *wideExec) PerformanceResults(q perfdata.Query) ([]perfdata.Result, error) {
	return collect(e, q)
}

// prPlan resolves a getPR against the wide schema: metric and focus
// checks plus the prepared point-query statement. ok=false (nil error)
// means the query provably matches nothing.
func (e *wideExec) prPlan(q perfdata.Query) (st *minidb.Stmt, ok bool, err error) {
	metricOK := false
	for _, m := range e.w.Metrics {
		if m == q.Metric {
			metricOK = true
			break
		}
	}
	if !metricOK || !identOK(q.Metric) {
		return nil, false, nil // unknown metric: no results, not an error
	}
	// Whole-run results live at focus "/"; honor focus filters.
	if len(q.Foci) > 0 {
		rootOK := false
		for _, f := range q.Foci {
			if perfdata.FocusMatches(f, "/") {
				rootOK = true
				break
			}
		}
		if !rootOK {
			return nil, false, nil
		}
	}
	c := e.w.fixed()
	sql := c.identSQL(&c.prByMetric, q.Metric, func(m string) string {
		return "SELECT " + m + ", starttime, endtime, collector FROM " + e.w.Table +
			" WHERE execid = ? AND " + m + " IS NOT NULL"
	})
	st, err = e.w.DB.Prepare(sql)
	if err != nil {
		return nil, false, err
	}
	return st, true, nil
}

// PublishResults implements ResultWriter under the wide schema's
// constraints: an execution is one row holding at most one whole-run
// value per metric column, all collected by the table's single collector
// type over the execution's time range. A publish therefore must name an
// existing metric column whose cell is still NULL, carry the root focus,
// and match the row's collector; it lands as an UPDATE of that one cell.
// Those are exactly the datagen.LoadWideTable invariants, so a table
// rebuilt from the extended dataset is identical — readers stamp every
// result with the row's time range and focus "/" either way.
func (e *wideExec) PublishResults(rs []perfdata.Result) error {
	if len(rs) == 0 {
		return nil
	}
	w := e.w
	w.pubMu.Lock()
	defer w.pubMu.Unlock()
	c := w.fixed()
	for _, r := range rs {
		metricOK := false
		for _, m := range w.Metrics {
			if m == r.Metric {
				metricOK = true
				break
			}
		}
		if !metricOK || !identOK(r.Metric) {
			return fmt.Errorf("mapping: wide table %s has no metric column %q", w.Table, r.Metric)
		}
		if r.Focus != "" && r.Focus != "/" {
			return fmt.Errorf("mapping: wide table stores whole-run results at focus \"/\", not %q", r.Focus)
		}
		check := c.identSQL(&c.pubCheck, r.Metric, func(m string) string {
			return "SELECT collector, " + m + " FROM " + w.Table + " WHERE execid = ?"
		})
		row, err := w.query(check, minidb.Text(e.id))
		if err != nil {
			return err
		}
		if len(row.Rows) == 0 {
			return fmt.Errorf("%w: %q in table %s", ErrNoSuchExecution, e.id, w.Table)
		}
		if !row.Rows[0][1].IsNull() {
			return fmt.Errorf("mapping: execution %q already has a %q result (wide table holds whole-run metrics)", e.id, r.Metric)
		}
		collector := row.Rows[0][0].String()
		var sql string
		var args []minidb.Value
		switch {
		case collector == "":
			// First result for this execution: the collector column adopts
			// the result's type, as LoadWideTable would.
			sql = c.identSQL(&c.pubSetColl, r.Metric, func(m string) string {
				return "UPDATE " + w.Table + " SET " + m + " = ?, collector = ? WHERE execid = ?"
			})
			args = []minidb.Value{minidb.Float(r.Value), minidb.Text(r.Type), minidb.Text(e.id)}
		case r.Type == collector:
			sql = c.identSQL(&c.pubSet, r.Metric, func(m string) string {
				return "UPDATE " + w.Table + " SET " + m + " = ? WHERE execid = ?"
			})
			args = []minidb.Value{minidb.Float(r.Value), minidb.Text(e.id)}
		default:
			return fmt.Errorf("mapping: wide table collector is %q, result has type %q", collector, r.Type)
		}
		st, err := w.DB.Prepare(sql)
		if err != nil {
			return err
		}
		if _, err := st.Exec(args...); err != nil {
			return err
		}
	}
	return nil
}

// AppendPerformanceResults implements ResultAppender with a prepared
// projection of the requested metric column, consumed through minidb's
// vectorized NextBatch and decoded column-wise into dst.
func (e *wideExec) AppendPerformanceResults(q perfdata.Query, dst []perfdata.Result) ([]perfdata.Result, error) {
	st, ok, err := e.prPlan(q)
	if err != nil || !ok {
		return dst, err
	}
	rows, err := st.QueryStream(minidb.Text(e.id))
	if err != nil {
		return dst, err
	}
	defer rows.Close()
	b := minidb.NewBatch()
	defer b.Release()
	for rows.NextBatch(b, 0) {
		vals, starts, ends, collectors := b.Col(0), b.Col(1), b.Col(2), b.Col(3)
		for i := range vals {
			val, _ := vals[i].AsFloat()
			start, _ := starts[i].AsFloat()
			end, _ := ends[i].AsFloat()
			r := perfdata.Result{
				Metric: q.Metric, Focus: "/", Type: collectors[i].String(),
				Time:  perfdata.TimeRange{Start: start, End: end},
				Value: val,
			}
			if !q.Matches(r) {
				continue
			}
			dst = append(dst, r)
		}
	}
	return dst, rows.Err()
}
