package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"pperfgrid/internal/client"
	"pperfgrid/internal/container"
	"pperfgrid/internal/core"
	"pperfgrid/internal/datagen"
	"pperfgrid/internal/mapping"
	"pperfgrid/internal/minidb"
	"pperfgrid/internal/perfdata"
)

// fullRange is the "full time range" of a getPR: it covers the loaded
// time axis and the fresh bins mixed-publish appends beyond it.
var fullRange = perfdata.TimeRange{Start: 0, End: 1e9}

// publishBase is where published time bins start: past the loaded axis
// (1000 executions × 100 s), so every published bin is fresh.
const publishBase = 2e6

// publishBatch is the number of results in one publishPR.
const publishBatch = 16

// starEnv is the shared large dataset, scale-star: 10^6 fact rows in the
// disk engine behind a StarWrapper, and (for the socket workloads) one
// site serving it over loopback TCP with one bound client session.
type starEnv struct {
	p    scaleParams
	cfg  datagen.ScaleConfig
	dir  string
	db   *minidb.Database
	w    *mapping.StarWrapper
	site *core.Site

	refs []*client.ExecutionRef     // by 0-based execution index
	svcs []*core.ExecutionService   // by 0-based execution index
	ews  []mapping.ExecutionWrapper // by 0-based execution index

	focus, collector string // an existing focus path and collector name
	pubSeq           atomic.Int64
	ackedRows        atomic.Int64

	loadDur, indexDur, discoveryDur, resolveDur time.Duration
	diskBytes                                   int64
}

// openStar loads scale-star into a fresh data directory under dataRoot.
func openStar(p scaleParams, dataRoot string) (*starEnv, error) {
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(dataRoot, "star-")
	if err != nil {
		return nil, err
	}
	e := &starEnv{p: p, dir: dir}
	t0 := time.Now()
	e.db, err = minidb.Open(minidb.Options{Dir: dir, PageCacheBytes: p.pageCacheBytes})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("open disk engine: %w", err)
	}
	if e.cfg, err = datagen.LoadScaleStar(e.db, p.star); err != nil {
		e.Close()
		return nil, fmt.Errorf("load scale-star: %w", err)
	}
	e.loadDur = time.Since(t0)
	t1 := time.Now()
	if err := mapping.DeclareStarIndexes(e.db); err != nil {
		e.Close()
		return nil, err
	}
	e.indexDur = time.Since(t1)
	if e.diskBytes, err = dirBytes(dir); err != nil {
		e.Close()
		return nil, err
	}
	e.w = &mapping.StarWrapper{DB: e.db, Meta: []perfdata.KV{{Name: "name", Value: "scale-star"}}}
	return e, nil
}

// serve starts the site over scale-star, binds a client session to it
// over the socket, and walks the discovery sequence an analyst's client
// performs before its first getPR.
func (e *starEnv) serve(cachingOff bool) error {
	var err error
	e.site, err = core.StartSite(core.SiteConfig{
		AppName:    "scale-star",
		Wrappers:   []mapping.ApplicationWrapper{e.w},
		CachingOff: cachingOff,
	})
	if err != nil {
		return fmt.Errorf("start site: %w", err)
	}
	t0 := time.Now()
	binding, err := client.NewWithoutRegistry().BindFactory("scale-star", e.site.ApplicationFactoryHandle())
	if err != nil {
		return fmt.Errorf("bind: %w", err)
	}
	n, err := binding.NumExecs()
	if err != nil {
		return err
	}
	if n != e.cfg.Executions {
		return fmt.Errorf("site reports %d executions, loaded %d", n, e.cfg.Executions)
	}
	if _, err := binding.ExecQueryParams(); err != nil {
		return err
	}
	t1 := time.Now()
	refs, err := binding.QueryExecutions(nil)
	if err != nil {
		return fmt.Errorf("resolve executions: %w", err)
	}
	e.resolveDur = time.Since(t1)
	if len(refs) != n {
		return fmt.Errorf("resolved %d executions, want %d", len(refs), n)
	}
	if _, err := refs[0].Metrics(); err != nil {
		return err
	}
	if _, err := refs[0].Foci(); err != nil {
		return err
	}
	if _, err := refs[0].Types(); err != nil {
		return err
	}
	if _, err := refs[0].TimeStartEnd(); err != nil {
		return err
	}
	e.discoveryDur = time.Since(t0)

	e.refs = make([]*client.ExecutionRef, n)
	e.svcs = make([]*core.ExecutionService, n)
	e.ews = make([]mapping.ExecutionWrapper, n)
	for _, ref := range refs {
		info, err := ref.Info()
		if err != nil {
			return err
		}
		idx := -1
		for _, kv := range info {
			if kv.Name == "id" {
				if v, err := strconv.Atoi(kv.Value); err == nil {
					idx = v - 1 // ScaleConfig.ExecID(i) is i+1
				}
			}
		}
		if idx < 0 || idx >= n || e.refs[idx] != nil {
			return fmt.Errorf("execution info %v names no unique loaded execution", info)
		}
		e.refs[idx] = ref
		svcs := e.site.ExecutionServices(e.cfg.ExecID(idx))
		if len(svcs) != 1 {
			return fmt.Errorf("execution %s has %d service instances, want 1", e.cfg.ExecID(idx), len(svcs))
		}
		e.svcs[idx] = svcs[0]
		if e.ews[idx], err = e.w.ExecutionWrapper(e.cfg.ExecID(idx)); err != nil {
			return err
		}
	}
	if e.focus, err = e.lookupText("SELECT path FROM foci WHERE fociid = 1"); err != nil {
		return err
	}
	e.collector, err = e.lookupText("SELECT name FROM collectors WHERE typeid = 1")
	return err
}

func (e *starEnv) lookupText(sql string) (string, error) {
	rs, err := e.db.Query(sql)
	if err != nil {
		return "", err
	}
	if len(rs.Rows) != 1 {
		return "", fmt.Errorf("%s: %d rows, want 1", sql, len(rs.Rows))
	}
	return rs.Rows[0][0].String(), nil
}

// Close stops the site, closes the engine and removes the data directory.
func (e *starEnv) Close() {
	if e.site != nil {
		e.site.Close()
	}
	if e.db != nil {
		_ = e.db.Close() // the directory is deleted next; nothing to recover
	}
	os.RemoveAll(e.dir)
}

// setupStar sets scale-star up (and serves it, for a socket workload)
// setupRepeats times, keeps the last set-up, and returns each set-up's
// duration: setup_s is their median, so one slow load does not decide it.
func setupStar(p scaleParams, dataRoot string, repeats int, ready func(*starEnv) error) (*starEnv, []float64, error) {
	var durs []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		e, err := openStar(p, dataRoot)
		if err != nil {
			return nil, nil, err
		}
		if err := ready(e); err != nil {
			e.Close()
			return nil, nil, err
		}
		durs = append(durs, time.Since(t0).Seconds())
		if i == repeats-1 {
			return e, durs, nil
		}
		e.Close()
		// Hand the discarded set-up's memory back before the next one, so
		// peak_rss_mb is one set-up's footprint, not the sum of three.
		runtime.GC()
	}
}

func query(metric int) perfdata.Query {
	return perfdata.Query{Metric: readMetrics[metric], Time: fullRange, Type: perfdata.UndefinedType}
}

// batch builds one publishPR's results for an op: an existing metric,
// focus and collector, and 16 time bins no earlier op has used.
func (e *starEnv) batch(op Op) []perfdata.Result {
	seq := e.pubSeq.Add(1)
	rs := make([]perfdata.Result, publishBatch)
	for k := range rs {
		start := publishBase + float64(seq*publishBatch+int64(k))
		rs[k] = perfdata.Result{
			Metric: readMetrics[op.Metric], Focus: e.focus, Type: e.collector,
			Time: perfdata.TimeRange{Start: start, End: start + 1}, Value: float64(k + 1),
		}
	}
	return rs
}

// do executes one op through the client session, over the socket.
func (e *starEnv) do(op Op) opOutcome {
	if op.Kind == opPublish {
		rs := e.batch(op)
		n, err := e.refs[op.Exec].PublishResults(rs)
		if err == nil && n != len(rs) {
			err = fmt.Errorf("publishPR acknowledged %d of %d results", n, len(rs))
		}
		if err == nil {
			e.ackedRows.Add(int64(n))
		}
		return opOutcome{write: true, err: err}
	}
	q := query(op.Metric)
	rs, err := e.refs[op.Exec].PerformanceResults(q)
	if err == nil && (len(rs) == 0 || rs[0].Metric != q.Metric) {
		err = fmt.Errorf("getPR(%s) on execution %d: wrong answer (%d results)", q.Metric, op.Exec, len(rs))
	}
	return opOutcome{rows: len(rs), err: err}
}

// encodeSorted renders a result set canonically: sorted wire encodings.
func encodeSorted(rs []perfdata.Result) string {
	enc := perfdata.EncodeResults(rs)
	sort.Strings(enc)
	return strings.Join(enc, "\n")
}

// verifyReplies compares the socket's reply to each op, byte for byte,
// with a direct in-process call to the same wrapper.
func (e *starEnv) verifyReplies(ops []Op) error {
	for _, op := range ops {
		q := query(op.Metric)
		got, err := e.refs[op.Exec].PerformanceResults(q)
		if err != nil {
			return err
		}
		want, err := e.ews[op.Exec].PerformanceResults(q)
		if err != nil {
			return err
		}
		if len(want) == 0 {
			return fmt.Errorf("execution %d has no %s results: the workload would measure empty replies", op.Exec, q.Metric)
		}
		if encodeSorted(got) != encodeSorted(want) {
			return fmt.Errorf("getPR(%s) on execution %d: socket reply differs from the wrapper's (%d vs %d results)",
				q.Metric, op.Exec, len(got), len(want))
		}
	}
	return nil
}

// counters is a snapshot of the public counters of every layer under a
// scale-star site.
type counters struct {
	eng                                      minidb.EngineStats
	cache                                    core.CacheStats
	coalesced, wireEncodes, invalidations    int64
	publishes                                int64
	requests, faults, sheds                  int64
	mallocs, allocBytes, gcCycles, gcPauseNs uint64
}

func (e *starEnv) snapshot() counters {
	c := counters{eng: e.db.EngineStats()}
	for _, svc := range e.svcs {
		s := svc.CacheStats()
		c.cache.Hits += s.Hits
		c.cache.Misses += s.Misses
		c.coalesced += svc.CoalescedQueries()
		c.wireEncodes += svc.WireEncodes()
		c.invalidations += svc.Invalidations()
		c.publishes += svc.Publishes()
	}
	if e.site != nil {
		c.requests, c.faults, c.sheds = containerCounts(e.site.Containers())
	}
	c.mallocs, c.allocBytes, c.gcCycles, c.gcPauseNs = memCounts()
	return c
}

func containerCounts(cs []*container.Container) (requests, faults, sheds int64) {
	for _, c := range cs {
		requests += c.Requests()
		faults += c.Faults()
		sheds += c.Sheds()
	}
	return
}

func memCounts() (mallocs, allocBytes, gcCycles, gcPauseNs uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc, uint64(m.NumGC), m.PauseTotalNs
}

// reportDelta turns the counter movement over ops operations (of which
// pubs were publishes) into per-layer metrics.
func reportDelta(res *Result, a, b counters, ops, pubs int64) {
	n := float64(ops)
	m := res.Metrics
	hits := float64(b.eng.PageCacheHits - a.eng.PageCacheHits)
	misses := float64(b.eng.PageCacheMisses - a.eng.PageCacheMisses)
	m["minidb.pagecache_hit_ratio"] = ratio(hits, hits+misses)
	m["minidb.pagecache_misses_per_op"] = ratio(misses, n)
	m["minidb.pagecache_evictions_per_op"] = ratio(float64(b.eng.PageCacheEvictions-a.eng.PageCacheEvictions), n)
	m["minidb.blocks_scanned_per_op"] = ratio(float64(b.eng.BlocksScanned-a.eng.BlocksScanned), n)
	m["minidb.blocks_skipped_per_op"] = ratio(float64(b.eng.BlocksSkipped-a.eng.BlocksSkipped), n)
	commits := float64(b.eng.Commits - a.eng.Commits)
	fsyncs := float64(b.eng.WALFsyncs - a.eng.WALFsyncs)
	m["minidb.commits"] = commits
	m["minidb.wal_fsyncs"] = fsyncs
	m["minidb.wal_fsyncs_per_commit"] = ratio(fsyncs, commits)
	// The WAL size restarts at a checkpoint, so a window with a checkpoint
	// in it undercounts; a negative movement reads 0.
	m["minidb.wal_bytes_per_row"] = ratio(max(float64(b.eng.WALBytes-a.eng.WALBytes), 0), commits)
	m["minidb.seals"] = float64(b.eng.Seals - a.eng.Seals)
	m["minidb.merges"] = float64(b.eng.Merges - a.eng.Merges)
	m["minidb.checkpoints"] = float64(b.eng.Checkpoints - a.eng.Checkpoints)

	chits := float64(b.cache.Hits - a.cache.Hits)
	cmisses := float64(b.cache.Misses - a.cache.Misses)
	m["core.cache_hit_ratio"] = ratio(chits, chits+cmisses)
	m["core.coalesced_per_op"] = ratio(float64(b.coalesced-a.coalesced), n)
	m["core.wire_encodes_per_op"] = ratio(float64(b.wireEncodes-a.wireEncodes), n)
	m["core.invalidations_per_publish"] = ratio(float64(b.invalidations-a.invalidations), float64(pubs))
	reportShared(res, a, b, ops)
}

// reportShared reports the counters every socket workload has.
func reportShared(res *Result, a, b counters, ops int64) {
	n := float64(ops)
	m := res.Metrics
	m["container.requests_per_op"] = ratio(float64(b.requests-a.requests), n)
	m["container.faults"] = float64(b.faults - a.faults)
	m["container.sheds"] = float64(b.sheds - a.sheds)
	m["runtime.allocs_per_op"] = ratio(float64(b.mallocs-a.mallocs), n)
	m["runtime.alloc_kb_per_op"] = ratio(float64(b.allocBytes-a.allocBytes)/1024, n)
	m["runtime.gc_cycles"] = float64(b.gcCycles - a.gcCycles)
	m["runtime.gc_pause_ms"] = float64(b.gcPauseNs-a.gcPauseNs) / 1e6
}

// reportSetup reports what the set-up measured about scale-star.
func (e *starEnv) reportSetup(res *Result) {
	rows := float64(e.cfg.Rows())
	res.Metrics["minidb.load_rows_per_s"] = ratio(rows, e.loadDur.Seconds())
	res.Metrics["minidb.disk_bytes_per_row"] = ratio(float64(e.diskBytes), rows)
	if e.site != nil {
		res.Metrics["core.discovery_ms"] = float64(e.discoveryDur.Nanoseconds()) / 1e6
		res.Metrics["core.resolve_us_per_exec"] = ratio(float64(e.resolveDur.Nanoseconds())/1e3, float64(e.cfg.Executions))
	}
	res.Info["dataset"] = map[string]any{
		"name": "scale-star", "fact_rows": e.cfg.Rows(), "executions": e.cfg.Executions,
		"engine": "disk", "disk_bytes": e.diskBytes, "page_cache_bytes": e.p.pageCacheBytes,
		"load_s": e.loadDur.Seconds(), "index_s": e.indexDur.Seconds(),
	}
}

// durability checks that every acknowledged publish is on disk: with no
// ops in flight and the engine still open, copy the data directory, open
// the copy, and count the fact rows. The copy is retried once if
// background compaction moved files under it.
func (e *starEnv) durability(res *Result) {
	want := e.cfg.Rows() + int(e.ackedRows.Load())
	var err error
	for attempt := 0; attempt < 2; attempt++ {
		if err = e.reopenCopy(res, want); err == nil {
			break
		}
	}
	res.check(fmt.Sprintf("durability: a copy of the data directory reopens with %d fact rows (%d acknowledged published rows)",
		want, e.ackedRows.Load()), err)
}

func (e *starEnv) reopenCopy(res *Result, want int) error {
	dst := e.dir + "-copy"
	defer os.RemoveAll(dst)
	before := e.db.EngineStats()
	if err := copyDir(e.dir, dst); err != nil {
		return err
	}
	after := e.db.EngineStats()
	if before.Seals != after.Seals || before.Merges != after.Merges || before.Checkpoints != after.Checkpoints {
		return fmt.Errorf("compaction ran during the copy")
	}
	t0 := time.Now()
	db, err := minidb.Open(minidb.Options{Dir: dst, PageCacheBytes: e.p.pageCacheBytes})
	if err != nil {
		return fmt.Errorf("reopen copy: %w", err)
	}
	res.Metrics["minidb.reopen_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	defer db.Close()
	got, err := db.NumRows("results")
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("reopened copy holds %d fact rows, want %d", got, want)
	}
	return nil
}

// runStar runs one of the three getPR workloads.
func runStar(cfg runCfg, res *Result) error {
	p := cfg.scale
	clients := cfg.clients
	if cfg.trace || cfg.workload == wlMixed {
		// mixed-publish has one caller. On the seed code the first getPR
		// to miss the cache after a publish stalls ~0.4 s rebuilding the
		// fact table's ordered indexes; where a second caller stands
		// relative to those stalls is a coin-toss per op, and ops_per_s
		// with it. One caller makes the stall count a function of the
		// seeded sequence alone.
		clients = 1
	}
	shape := genShape{workload: cfg.workload, execs: p.star.Executions, hotSet: p.hotSet, clients: clients}
	e, setups, err := setupStar(p, cfg.dataRoot, cfg.setupRepeats(), func(e *starEnv) error {
		if err := e.serve(cfg.workload == wlCold); err != nil {
			return err
		}
		out := e.do(Op{Kind: opGetPR, Exec: shape.hotExec(0)})
		return out.err
	})
	if err != nil {
		return err
	}
	defer e.Close()
	res.Metrics["setup_s"] = median(setups)
	res.Info["setup_runs_s"] = setups
	e.reportSetup(res)

	// Warm-up, untimed: touch every query of the hot working set once so
	// the caches hold it, verify replies against the wrapper, then run the
	// workload's own mix until lazy work has finished.
	if cfg.workload != wlCold {
		for slot := 0; slot < p.hotSet; slot++ {
			for m := range readMetrics {
				if out := e.do(Op{Kind: opGetPR, Exec: shape.hotExec(slot), Metric: m}); out.err != nil {
					return out.err
				}
			}
		}
	}
	verifyShape := shape
	if cfg.workload == wlMixed {
		verifyShape.workload = wlHot // verification reads; it must not publish
	}
	verifyOps := newGen(verifyShape, cfg.seed, -1).Take(32)
	res.check("32 seeded getPR replies over the socket equal the wrapper's, byte for byte", e.verifyReplies(verifyOps))

	if cfg.trace {
		if err := traceStar(cfg, e, shape, res); err != nil {
			return err
		}
	} else {
		warmGens := make([]*Gen, clients)
		gens := make([]*Gen, clients)
		for c := range gens {
			warmGens[c] = newGen(shape, cfg.seed, 1000+c)
			gens[c] = newGen(shape, cfg.seed, c)
		}
		do := func(_ int, op Op) opOutcome { return e.do(op) }
		warm := closedLoop(warmGens, secs(p.warmupSeconds), 1<<16, do)
		if warm.firstErr != nil {
			return fmt.Errorf("warm-up: %w", warm.firstErr)
		}
		expect := int(float64(warm.attempted)/float64(clients)*cfg.seconds/p.warmupSeconds*1.5) + 1024
		before := e.snapshot()
		w := closedLoop(gens, secs(cfg.seconds), expect, do)
		after := e.snapshot()
		w.report(res)
		write := latencies(w.samples, true)
		res.Metrics["write_p50_ms"] = percentile(write, 50)
		res.Metrics["write_p99_ms"] = percentile(write, 99)
		res.Info["write_samples"] = len(write)
		reportDelta(res, before, after, w.attempted, int64(len(write)))
	}
	if err := reportPeakRSS(res); err != nil {
		return err
	}
	if cfg.workload == wlMixed || cfg.trace {
		e.durability(res)
	}
	return nil
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// ctx is the context of every measured call: no deadline, so no deadline
// header travels and nothing in the measured path times out.
var ctx = context.Background()
