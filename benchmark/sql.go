package main

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"pperfgrid/internal/minidb"
)

// The store-analytic statements. winAggSQL is the workload's op; the
// others are the traced run's probes of the engine's other access paths
// (the statements BENCH_PR6 and BENCH_PR10 timed).
const (
	winAggSQL   = "SELECT COUNT(*), AVG(value), MIN(value), MAX(value) FROM results WHERE starttime >= ? AND starttime < ?"
	fullAggSQL  = "SELECT COUNT(*), AVG(value), MIN(value), MAX(value) FROM results"
	execAggSQL  = "SELECT COUNT(*), AVG(value) FROM results WHERE execid = ?"
	rangeSQL    = "SELECT execid, starttime, value FROM results WHERE starttime >= ? AND starttime <= ?"
	topkSQL     = "SELECT execid, starttime, value FROM results ORDER BY value DESC LIMIT 10"
	execRowsSQL = "SELECT starttime, value FROM results WHERE execid = ?"
)

// windowShare is the width of the aggregated window as a share of the
// time axis: 2%, about 20 executions or 20k candidate rows.
const windowShare = 0.02

// sqlEnv is store-analytic: the Data Layer's own consumer, no sockets.
type sqlEnv struct {
	*starEnv
	winAgg        *minidb.Stmt
	spacing, axis float64
}

func (e *sqlEnv) prepare() error {
	var err error
	if e.winAgg, err = e.db.Prepare(winAggSQL); err != nil {
		return err
	}
	e.spacing, _ = e.cfg.TimeWindow(1)
	e.axis, _ = e.cfg.TimeWindow(e.cfg.Executions)
	return nil
}

// bounds places an op's window on the time axis.
func (e *sqlEnv) bounds(op Op) (lo, hi float64) {
	width := windowShare * e.axis
	lo = op.Offset * (e.axis - width)
	return lo, lo + width
}

// do runs the windowed aggregate; rows is the number of rows aggregated.
func (e *sqlEnv) do(op Op) opOutcome {
	lo, hi := e.bounds(op)
	rs, err := e.winAgg.Query(minidb.Float(lo), minidb.Float(hi))
	if err != nil {
		return opOutcome{err: err}
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].Int <= 0 {
		return opOutcome{err: fmt.Errorf("windowed aggregate over [%g,%g): wrong answer %v", lo, hi, rs.Strings())}
	}
	return opOutcome{rows: int(rs.Rows[0][0].Int)}
}

// verifyWindow recomputes one windowed aggregate another way: fetch the
// rows of every execution that can overlap the window through the execid
// hash index and aggregate them here.
func (e *sqlEnv) verifyWindow(op Op) error {
	lo, hi := e.bounds(op)
	rs, err := e.winAgg.Query(minidb.Float(lo), minidb.Float(hi))
	if err != nil {
		return err
	}
	st, err := e.db.Prepare(execRowsSQL)
	if err != nil {
		return err
	}
	var (
		count    int64
		sum      float64
		minV     = math.Inf(1)
		maxV     = math.Inf(-1)
		first    = max(int(lo/e.spacing)-1, 0)
		lastExec = min(int(hi/e.spacing)+1, e.cfg.Executions-1)
	)
	for i := first; i <= lastExec; i++ {
		rows, err := st.Query(minidb.Text(e.cfg.ExecID(i)))
		if err != nil {
			return err
		}
		for _, row := range rows.Rows {
			start, _ := row[0].AsFloat()
			v, _ := row[1].AsFloat()
			if start >= lo && start < hi {
				count++
				sum += v
				minV, maxV = math.Min(minV, v), math.Max(maxV, v)
			}
		}
	}
	got := rs.Rows[0]
	avg, _ := got[1].AsFloat()
	gmin, _ := got[2].AsFloat()
	gmax, _ := got[3].AsFloat()
	if got[0].Int != count || gmin != minV || gmax != maxV || math.Abs(avg-sum/float64(count)) > 1e-9*math.Abs(avg) {
		return fmt.Errorf("windowed aggregate %v differs from per-execution recomputation (count %d avg %g min %g max %g)",
			rs.Strings(), count, sum/float64(count), minV, maxV)
	}
	return nil
}

func floatLit(v float64) string {
	s := strconv.FormatFloat(v, 'f', -1, 64)
	if math.Trunc(v) == v {
		s += ".0"
	}
	return s
}

// verifyNaive checks a literal statement against the engine's naive
// reference executor.
func (e *sqlEnv) verifyNaive(sql string) error {
	got, err := e.db.Query(sql)
	if err != nil {
		return err
	}
	want, err := e.db.QueryNaive(sql)
	if err != nil {
		return err
	}
	if fmt.Sprint(got.Strings()) != fmt.Sprint(want.Strings()) {
		return fmt.Errorf("%s: planned %v, naive %v", sql, got.Strings(), want.Strings())
	}
	return nil
}

func runAnalytic(cfg runCfg, res *Result) error {
	p := cfg.scale
	shape := genShape{workload: wlAnalytic}
	var e *sqlEnv
	star, setups, err := setupStar(p, cfg.dataRoot, cfg.setupRepeats(), func(s *starEnv) error {
		e = &sqlEnv{starEnv: s}
		if err := e.prepare(); err != nil {
			return err
		}
		// The first windowed query builds the ordered index it probes.
		return e.do(Op{Kind: opSQL, Offset: 0.5}).err
	})
	if err != nil {
		return err
	}
	defer star.Close()
	res.Metrics["setup_s"] = median(setups)
	res.Info["setup_runs_s"] = setups
	e.reportSetup(res)
	res.Info["statement"] = winAggSQL

	verifyOp := newGen(shape, cfg.seed, -1).Next()
	res.check("one windowed aggregate equals a recomputation from per-execution index fetches", e.verifyWindow(verifyOp))
	lo, hi := e.bounds(verifyOp)
	res.check("the same windowed aggregate equals the naive executor's", e.verifyNaive(
		"SELECT COUNT(*), AVG(value), MIN(value), MAX(value) FROM results WHERE starttime >= "+floatLit(lo)+" AND starttime < "+floatLit(hi)))

	if cfg.trace {
		if err := traceAnalytic(cfg, e, shape, res); err != nil {
			return err
		}
	} else {
		do := func(_ int, op Op) opOutcome { return e.do(op) }
		clients := cfg.clients
		warmGens, gens := make([]*Gen, clients), make([]*Gen, clients)
		for c := range gens {
			warmGens[c], gens[c] = newGen(shape, cfg.seed, 1000+c), newGen(shape, cfg.seed, c)
		}
		if warm := closedLoop(warmGens, secs(p.warmupSeconds), 1<<12, do); warm.firstErr != nil {
			return fmt.Errorf("warm-up: %w", warm.firstErr)
		}
		before := e.snapshot()
		w := closedLoop(gens, secs(cfg.seconds), 1<<14, do)
		after := e.snapshot()
		w.report(res)
		reportDelta(res, before, after, w.attempted, 0)
	}
	if err := reportPeakRSS(res); err != nil {
		return err
	}
	if cfg.trace {
		e.durability(res)
	}
	return nil
}

// traceAnalytic is the traced SQL run: a fixed number of windowed
// aggregates, then probes of the engine's other access paths.
func traceAnalytic(cfg runCfg, e *sqlEnv, shape genShape, res *Result) error {
	n := cfg.scale.traceOtherOps
	ops := newGen(shape, cfg.seed, 0).Take(n)
	base := make([]int64, n)
	for i, op := range ops {
		t0 := time.Now()
		if out := e.do(op); out.err != nil {
			return out.err
		}
		base[i] = time.Since(t0).Nanoseconds()
	}

	var rec Recorder
	traceT0 := time.Now()
	// timed runs fn n times, records one root span per call, and returns
	// the durations.
	opID := 0
	timed := func(name string, n int, fn func(i int) error) ([]int64, error) {
		out := make([]int64, n)
		for i := range out {
			t0 := time.Now()
			err := fn(i)
			out[i] = time.Since(t0).Nanoseconds()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			rec.AddTree(opID, &node{name: name, dur: out[i]}, t0.Sub(traceT0).Nanoseconds())
			opID++
		}
		return out, nil
	}

	var rowsAggregated, candidates float64
	before := e.snapshot()
	winNs, err := timed("minidb.winagg", n, func(i int) error {
		out := e.do(ops[i])
		rowsAggregated += float64(out.rows)
		return out.err
	})
	if err != nil {
		return err
	}
	after := e.snapshot()
	res.Attempted, res.Samples = int64(n), n
	reportDelta(res, before, after, int64(n), 0)
	for _, op := range ops {
		lo, hi := e.bounds(op)
		pi, err := e.winAgg.Explain(minidb.Float(lo), minidb.Float(hi))
		if err != nil {
			return err
		}
		candidates += float64(max(pi.Candidates, 0))
	}

	execAgg, err := e.db.Prepare(execAggSQL)
	if err != nil {
		return err
	}
	execNs, err := timed("minidb.execagg", n, func(i int) error {
		_, err := execAgg.Query(minidb.Text(e.cfg.ExecID((i * 613) % e.cfg.Executions)))
		return err
	})
	if err != nil {
		return err
	}
	rng, err := e.db.Prepare(rangeSQL)
	if err != nil {
		return err
	}
	rangeNs, err := timed("minidb.range", n, func(i int) error {
		lo, hi := e.cfg.TimeWindow((i * 613) % e.cfg.Executions)
		_, err := rng.Query(minidb.Float(lo), minidb.Float(hi))
		return err
	})
	if err != nil {
		return err
	}
	topk, err := e.db.Prepare(topkSQL)
	if err != nil {
		return err
	}
	topkNs, err := timed("minidb.topk", n, func(int) error { _, err := topk.Query(); return err })
	if err != nil {
		return err
	}
	full, err := e.db.Prepare(fullAggSQL)
	if err != nil {
		return err
	}
	fullNs, err := timed("minidb.fullscan_agg", cfg.scale.fullScanReps, func(int) error {
		rs, err := full.Query()
		if err == nil && rs.Rows[0][0].Int != int64(e.cfg.Rows()) {
			err = fmt.Errorf("full-scan aggregate counted %d rows, want %d", rs.Rows[0][0].Int, e.cfg.Rows())
		}
		return err
	})
	if err != nil {
		return err
	}
	res.check("the full-scan aggregate equals the naive executor's", e.verifyNaive(fullAggSQL))

	m := res.Metrics
	m["minidb.winagg_ms"] = median(nsToMs(winNs))
	m["minidb.execagg_us"] = median(nsToUs(execNs))
	m["minidb.range_us"] = median(nsToUs(rangeNs))
	m["minidb.topk_us"] = median(nsToUs(topkNs))
	m["minidb.fullscan_agg_ms"] = median(nsToMs(fullNs))
	m["minidb.candidates_per_row"] = ratio(candidates, rowsAggregated)
	m["trace.overhead_pct"] = 100 * ratio(median(nsToMs(winNs))-median(nsToMs(base)), median(nsToMs(base)))
	res.Info["trace"] = map[string]any{"ops": n, "untraced_p50_ms": median(nsToMs(base)), "traced_p50_ms": median(nsToMs(winNs))}
	return flushTrace(cfg, res, &rec)
}
