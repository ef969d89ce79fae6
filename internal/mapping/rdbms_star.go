package mapping

import (
	"fmt"
	"strings"
	"sync"

	"pperfgrid/internal/minidb"
	"pperfgrid/internal/perfdata"
)

// StarWrapper maps the five-table relational star schema — the paper's
// SMG98 layout, produced by datagen.LoadStarSchema — onto the PPerfGrid
// interfaces.
//
// A getPR call performs the realistic multi-query dance of a star-schema
// client: resolve the metric (and type) in the dimension tables, resolve
// the queried foci with LIKE prefix scans, then run a fact-table join
// filtered by execution, metric, type, time overlap, and focus set. On a
// large fact table this is by far the slowest wrapper, which is exactly
// the SMG98 behaviour Table 4 and Table 5 of the paper report.
//
// All statements are prepared (parsed once, parameters bound per call —
// see minidb.Database.Prepare) and the fact-table join streams its rows,
// so the wrapper decodes each result straight into the output slice. The
// builders declare hash indexes on the join and filter columns (execid,
// metricid, fociid), which the prepared statements' plans probe.
type StarWrapper struct {
	DB   *minidb.Database
	Meta []perfdata.KV

	// pubMu serializes publishes: dimension interning is a read-then-
	// create sequence over several statements, and per-statement database
	// locking alone would let two concurrent publishes mint the same
	// dimension ID.
	pubMu sync.Mutex
}

// query runs a prepared statement with bindings, materializing the rows
// (the discovery queries are small; only the fact join streams).
func (w *StarWrapper) query(sql string, args ...minidb.Value) (*minidb.ResultSet, error) {
	return prepQuery(w.DB, sql, args...)
}

// EngineStats reports the backing storage engine's counters (page cache,
// zone-map skipping, WAL) for service-data publication.
func (w *StarWrapper) EngineStats() minidb.EngineStats { return w.DB.EngineStats() }

// Close flushes and closes the backing store (a no-op for the in-memory
// engine).
func (w *StarWrapper) Close() error { return w.DB.Close() }

// AppInfo implements ApplicationWrapper.
func (w *StarWrapper) AppInfo() ([]perfdata.KV, error) {
	out := make([]perfdata.KV, len(w.Meta))
	copy(out, w.Meta)
	return out, nil
}

// NumExecs implements ApplicationWrapper.
func (w *StarWrapper) NumExecs() (int, error) {
	rs, err := w.query("SELECT COUNT(DISTINCT execid) FROM executions")
	if err != nil {
		return 0, err
	}
	return int(rs.Rows[0][0].Int), nil
}

// ExecQueryParams implements ApplicationWrapper over the EAV executions
// table.
func (w *StarWrapper) ExecQueryParams() ([]perfdata.Attribute, error) {
	names, err := w.query("SELECT DISTINCT attrname FROM executions ORDER BY attrname")
	if err != nil {
		return nil, err
	}
	var out []perfdata.Attribute
	for _, row := range names.Rows {
		name := row[0].String()
		vals, err := w.query(
			"SELECT DISTINCT attrvalue FROM executions WHERE attrname = ? ORDER BY attrvalue",
			minidb.Text(name))
		if err != nil {
			return nil, err
		}
		out = append(out, perfdata.Attribute{Name: name, Values: column0(vals)})
	}
	return out, nil
}

// AllExecIDs implements ApplicationWrapper.
func (w *StarWrapper) AllExecIDs() ([]string, error) {
	rs, err := w.query("SELECT DISTINCT execid FROM executions ORDER BY execid")
	if err != nil {
		return nil, err
	}
	return column0(rs), nil
}

// ExecIDs implements ApplicationWrapper.
func (w *StarWrapper) ExecIDs(attr, value string) ([]string, error) {
	rs, err := w.query(
		"SELECT DISTINCT execid FROM executions WHERE attrname = ? AND attrvalue = ? ORDER BY execid",
		minidb.Text(attr), minidb.Text(value))
	if err != nil {
		return nil, err
	}
	return column0(rs), nil
}

// ExecutionWrapper implements ApplicationWrapper.
func (w *StarWrapper) ExecutionWrapper(id string) (ExecutionWrapper, error) {
	rs, err := w.query("SELECT COUNT(*) FROM executions WHERE execid = ?", minidb.Text(id))
	if err != nil {
		return nil, err
	}
	if rs.Rows[0][0].Int == 0 {
		return nil, fmt.Errorf("%w: %q in star schema", ErrNoSuchExecution, id)
	}
	return &starExec{w: w, id: id}, nil
}

type starExec struct {
	w  *StarWrapper
	id string
}

func (e *starExec) Info() ([]perfdata.KV, error) {
	rs, err := e.w.query(
		"SELECT attrname, attrvalue FROM executions WHERE execid = ? ORDER BY attrname",
		minidb.Text(e.id))
	if err != nil {
		return nil, err
	}
	out := []perfdata.KV{{Name: "id", Value: e.id}}
	for _, row := range rs.Rows {
		out = append(out, perfdata.KV{Name: row[0].String(), Value: row[1].String()})
	}
	return out, nil
}

func (e *starExec) Foci() ([]string, error) {
	rs, err := e.w.query(
		"SELECT DISTINCT f.path FROM results r JOIN foci f ON r.fociid = f.fociid WHERE r.execid = ? ORDER BY f.path",
		minidb.Text(e.id))
	if err != nil {
		return nil, err
	}
	return column0(rs), nil
}

func (e *starExec) Metrics() ([]string, error) {
	rs, err := e.w.query(
		"SELECT DISTINCT m.name FROM results r JOIN metrics m ON r.metricid = m.metricid WHERE r.execid = ? ORDER BY m.name",
		minidb.Text(e.id))
	if err != nil {
		return nil, err
	}
	return column0(rs), nil
}

func (e *starExec) Types() ([]string, error) {
	rs, err := e.w.query(
		"SELECT DISTINCT c.name FROM results r JOIN collectors c ON r.typeid = c.typeid WHERE r.execid = ? ORDER BY c.name",
		minidb.Text(e.id))
	if err != nil {
		return nil, err
	}
	return column0(rs), nil
}

func (e *starExec) TimeStartEnd() (perfdata.TimeRange, error) {
	rs, err := e.w.query(
		"SELECT MIN(starttime), MAX(endtime) FROM executions WHERE execid = ?", minidb.Text(e.id))
	if err != nil {
		return perfdata.TimeRange{}, err
	}
	if len(rs.Rows) == 0 || rs.Rows[0][0].IsNull() {
		return perfdata.TimeRange{}, fmt.Errorf("%w: %q", ErrNoSuchExecution, e.id)
	}
	start, _ := rs.Rows[0][0].AsFloat()
	end, _ := rs.Rows[0][1].AsFloat()
	return perfdata.TimeRange{Start: start, End: end}, nil
}

func (e *starExec) PerformanceResults(q perfdata.Query) ([]perfdata.Result, error) {
	return collect(e, q)
}

// starPRPlan is the resolved dimension half of one star-schema getPR:
// the prepared fact-join statement, its bindings, and the collector
// names needed to decode the joined rows.
type starPRPlan struct {
	st        *minidb.Stmt
	args      []minidb.Value
	typeNames map[int64]string
}

// planPR resolves the dimension lookups of a getPR (metric, collector
// type, foci prefix scans) and prepares the fact-table join. ok=false
// (with a nil error) means a dimension lookup proved the query matches
// nothing. The collector names resolve here too, before the join stream
// opens and takes the database's read lock.
func (e *starExec) planPR(q perfdata.Query) (plan starPRPlan, ok bool, err error) {
	// 1. Resolve the metric dimension.
	rs, err := e.w.query("SELECT metricid FROM metrics WHERE name = ?", minidb.Text(q.Metric))
	if err != nil {
		return plan, false, err
	}
	if len(rs.Rows) == 0 {
		return plan, false, nil
	}
	metricID := rs.Rows[0][0].Int

	// 2. Resolve the collector type, unless UNDEFINED matches all.
	typeFilter := ""
	var typeArg []minidb.Value
	if q.Type != perfdata.UndefinedType {
		rs, err = e.w.query("SELECT typeid FROM collectors WHERE name = ?", minidb.Text(q.Type))
		if err != nil {
			return plan, false, err
		}
		if len(rs.Rows) == 0 {
			return plan, false, nil
		}
		typeFilter = " AND r.typeid = ?"
		typeArg = []minidb.Value{minidb.Int(rs.Rows[0][0].Int)}
	}

	// 3. Resolve the queried foci to dimension IDs with prefix scans.
	fociFilter := ""
	var fociArgs []minidb.Value
	if len(q.Foci) > 0 {
		var conds []string
		var args []minidb.Value
		for _, f := range q.Foci {
			base := strings.TrimSuffix(f, "/")
			if base == "" {
				conds = nil // root focus matches everything
				break
			}
			conds = append(conds, "path = ? OR path LIKE ?")
			args = append(args, minidb.Text(base), minidb.Text(likeEscape(base)+"/%"))
		}
		if conds != nil {
			rs, err = e.w.query("SELECT fociid FROM foci WHERE "+strings.Join(conds, " OR "), args...)
			if err != nil {
				return plan, false, err
			}
			if len(rs.Rows) == 0 {
				return plan, false, nil
			}
			ph := make([]string, len(rs.Rows))
			for i, row := range rs.Rows {
				ph[i] = "?"
				fociArgs = append(fociArgs, row[0])
			}
			fociFilter = " AND r.fociid IN (" + strings.Join(ph, ", ") + ")"
		}
	}

	// 4. Resolve collector names before the streaming join opens: the
	// stream holds the database's read lock, so no further queries may
	// run until it closes.
	plan.typeNames, err = e.typeNames()
	if err != nil {
		return plan, false, err
	}

	// 5. Fact-table join filtered by execution, metric, type, time, foci.
	// The plan probes the results(execid) index, pushes the remaining
	// filters into the scan, and hash-joins the foci dimension.
	sql := "SELECT f.path, r.starttime, r.endtime, r.value, r.typeid FROM results r JOIN foci f ON r.fociid = f.fociid " +
		"WHERE r.execid = ? AND r.metricid = ? AND r.endtime > ? AND r.starttime < ?" + typeFilter + fociFilter
	plan.st, err = e.w.DB.Prepare(sql)
	if err != nil {
		return plan, false, err
	}
	plan.args = append([]minidb.Value{
		minidb.Text(e.id), minidb.Int(metricID),
		minidb.Float(q.Time.Start), minidb.Float(q.Time.End),
	}, append(typeArg, fociArgs...)...)
	return plan, true, nil
}

// AppendPerformanceResults implements ResultAppender: the dimension
// lookups resolve first (small materialized queries), then the fact-table
// join streams through minidb's vectorized NextBatch, decoding each
// column-oriented batch straight into dst. No per-row []Value and no
// intermediate copy of the (potentially huge) fact scan is materialized.
func (e *starExec) AppendPerformanceResults(q perfdata.Query, dst []perfdata.Result) ([]perfdata.Result, error) {
	plan, ok, err := e.planPR(q)
	if err != nil || !ok {
		return dst, err
	}
	rows, err := plan.st.QueryStream(plan.args...)
	if err != nil {
		return dst, err
	}
	defer rows.Close()
	b := minidb.NewBatch()
	defer b.Release()
	for rows.NextBatch(b, 0) {
		paths, starts, ends, vals, typeids := b.Col(0), b.Col(1), b.Col(2), b.Col(3), b.Col(4)
		for i := range paths {
			start, _ := starts[i].AsFloat()
			end, _ := ends[i].AsFloat()
			val, _ := vals[i].AsFloat()
			dst = append(dst, perfdata.Result{
				Metric: q.Metric,
				Focus:  paths[i].String(),
				Type:   plan.typeNames[typeids[i].Int],
				Time:   perfdata.TimeRange{Start: start, End: end},
				Value:  val,
			})
		}
	}
	return dst, rows.Err()
}

// starDims maps each dimension table to its lookup statements, fixed SQL
// texts so every publish reuses the same prepared statements.
var starDims = []struct{ table, sel, ins string }{
	{"foci", "SELECT fociid FROM foci WHERE path = ?", "INSERT INTO foci VALUES (?, ?)"},
	{"metrics", "SELECT metricid FROM metrics WHERE name = ?", "INSERT INTO metrics VALUES (?, ?)"},
	{"collectors", "SELECT typeid FROM collectors WHERE name = ?", "INSERT INTO collectors VALUES (?, ?)"},
}

// internDim resolves a dimension key to its ID, creating the row when it
// is new. IDs are dense 1..n in first-appearance order — exactly
// datagen.LoadStarSchema's interning, whose in-memory map always holds
// one entry per dimension row, so the next ID is the row count plus one.
// The caller must hold pubMu.
func (w *StarWrapper) internDim(dim int, key string) (int64, error) {
	d := starDims[dim]
	rs, err := w.query(d.sel, minidb.Text(key))
	if err != nil {
		return 0, err
	}
	if len(rs.Rows) > 0 {
		return rs.Rows[0][0].Int, nil
	}
	n, err := w.DB.NumRows(d.table)
	if err != nil {
		return 0, err
	}
	id := int64(n + 1)
	ins, err := w.DB.Prepare(d.ins)
	if err != nil {
		return 0, err
	}
	if _, err := ins.Exec(minidb.Int(id), minidb.Text(key)); err != nil {
		return 0, err
	}
	return id, nil
}

// starInsertResult is the prepared fact-table insert of the publish path.
// Inserting through the statement maintains the results table's hash
// indexes incrementally and marks its ordered indexes stale, per minidb's
// insert contract — the next range probe lazily rebuilds.
const starInsertResult = "INSERT INTO results VALUES (?, ?, ?, ?, ?, ?, ?)"

// PublishResults implements ResultWriter: each result interns its
// dimension values (focus, then metric, then collector — LoadStarSchema's
// order, so a store rebuilt from the extended dataset mints identical
// dimension IDs) and appends one fact row through the prepared insert.
func (e *starExec) PublishResults(rs []perfdata.Result) error {
	if len(rs) == 0 {
		return nil
	}
	w := e.w
	w.pubMu.Lock()
	defer w.pubMu.Unlock()
	ins, err := w.DB.Prepare(starInsertResult)
	if err != nil {
		return err
	}
	for _, r := range rs {
		fid, err := w.internDim(0, r.Focus)
		if err != nil {
			return err
		}
		mid, err := w.internDim(1, r.Metric)
		if err != nil {
			return err
		}
		tid, err := w.internDim(2, r.Type)
		if err != nil {
			return err
		}
		if _, err := ins.Exec(
			minidb.Text(e.id), minidb.Int(fid), minidb.Int(mid), minidb.Int(tid),
			minidb.Float(r.Time.Start), minidb.Float(r.Time.End), minidb.Float(r.Value)); err != nil {
			return err
		}
	}
	return nil
}

func (e *starExec) typeNames() (map[int64]string, error) {
	rs, err := e.w.query("SELECT typeid, name FROM collectors")
	if err != nil {
		return nil, err
	}
	out := make(map[int64]string, len(rs.Rows))
	for _, row := range rs.Rows {
		out[row[0].Int] = row[1].String()
	}
	return out, nil
}

// likeEscape escapes LIKE wildcards in a literal prefix. minidb's LIKE has
// no ESCAPE clause, so occurrences of % and _ in focus paths are treated
// as single-character wildcards by substituting _ (which matches them-
// selves too); focus paths in practice contain neither.
func likeEscape(s string) string {
	return strings.NewReplacer("%", "_", "_", "_").Replace(s)
}
