package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"pperfgrid/internal/client"
	"pperfgrid/internal/container"
	"pperfgrid/internal/core"
	"pperfgrid/internal/datagen"
	"pperfgrid/internal/federation"
	"pperfgrid/internal/mapping"
	"pperfgrid/internal/perfdata"
)

// fedSite is one small in-memory site of the heterogeneous fleet.
type fedSite struct {
	name  string // also the suffix of its federation.site_<name>_ms metric
	shape string // wide, star, flatfile or xml
	w     mapping.ApplicationWrapper
	site  *core.Site
	ews   []mapping.ExecutionWrapper
	// storeQuery is the store's own query under the wrapper, where the
	// store is a package of its own (store names it: flatfile, xmlstore).
	store      string
	storeQuery func(id string, q perfdata.Query) ([]perfdata.Result, error)
	ids        []string
}

// fedEnv is the paper's title workload: four stores of four shapes
// behind one interface, queried through the federation engine.
type fedEnv struct {
	sites []*fedSite
	names []string
	eng   *federation.Engine
	execs int
	timer *timingTransport // traced runs only
}

// timingTransport times each site's successful attempt from outside the
// engine. (The engine's own SiteOutcome.Elapsed reads zero on the seed
// code: querySite sets it in a defer, after the outcome has been copied
// to the caller.) A hedged attempt that loses is cancelled and fails, so
// the last success per site is the attempt that answered the query.
type timingTransport struct {
	federation.Transport
	mu   sync.Mutex
	last map[string]time.Duration
}

func (t *timingTransport) Do(ctx context.Context, site string, q perfdata.Query) (*federation.SiteData, error) {
	t0 := time.Now()
	data, err := t.Transport.Do(ctx, site, q)
	if err == nil {
		d := time.Since(t0)
		t.mu.Lock()
		t.last[site] = d
		t.mu.Unlock()
	}
	return data, err
}

func (t *timingTransport) elapsed(site string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.last[site]
}

func openFed(p scaleParams, timed bool) (*fedEnv, error) {
	e := &fedEnv{}
	add := func(name, shape string, w mapping.ApplicationWrapper, err error) error {
		if err != nil {
			return fmt.Errorf("build %s store: %w", name, err)
		}
		e.sites = append(e.sites, &fedSite{name: name, shape: shape, w: w})
		return nil
	}
	wide, err := mapping.NewWideTable(datagen.HPL(p.hpl))
	if err := add("hpl", "wide", wide, err); err != nil {
		return nil, err
	}
	star, err := mapping.NewStar(datagen.SMG98(p.smg98))
	if err := add("smg98", "star", star, err); err != nil {
		return nil, err
	}
	flat, err := mapping.NewFlatFile(datagen.PrestaRMA(p.rma))
	if err := add("rma", "flatfile", flat, err); err != nil {
		return nil, err
	}
	e.sites[2].store, e.sites[2].storeQuery = "flatfile", flat.Store.Query
	xml, err := mapping.NewXML(datagen.HPL(p.hplxml))
	if err := add("hplxml", "xml", xml, err); err != nil {
		return nil, err
	}
	e.sites[3].store, e.sites[3].storeQuery = "xmlstore", xml.Store.Query

	tr := federation.NewBindingTransport()
	session := client.NewWithoutRegistry()
	for _, s := range e.sites {
		s.site, err = core.StartSite(core.SiteConfig{AppName: s.name, Wrappers: []mapping.ApplicationWrapper{s.w}, CachingOff: true})
		if err != nil {
			e.Close()
			return nil, fmt.Errorf("start site %s: %w", s.name, err)
		}
		b, err := session.BindFactory(s.name, s.site.ApplicationFactoryHandle())
		if err != nil {
			e.Close()
			return nil, fmt.Errorf("bind %s: %w", s.name, err)
		}
		tr.AddSite(s.name, b)
		e.names = append(e.names, s.name)
		if s.ids, err = s.w.AllExecIDs(); err != nil {
			e.Close()
			return nil, err
		}
		for _, id := range s.ids {
			ew, err := s.w.ExecutionWrapper(id)
			if err != nil {
				e.Close()
				return nil, err
			}
			s.ews = append(s.ews, ew)
		}
		e.execs += len(s.ids)
	}
	if timed {
		e.timer = &timingTransport{Transport: tr, last: map[string]time.Duration{}}
		e.eng = federation.New(e.timer, federation.Config{})
	} else {
		e.eng = federation.New(tr, federation.Config{})
	}
	return e, nil
}

func (e *fedEnv) Close() {
	for _, s := range e.sites {
		if s.site != nil {
			s.site.Close()
		}
	}
}

func fedQuery(metric int) perfdata.Query {
	return perfdata.Query{Metric: fedMetrics[metric], Time: fullRange, Type: perfdata.UndefinedType}
}

// do runs one federated query and requires every site to answer.
func (e *fedEnv) do(op Op) (*federation.Report, opOutcome) {
	rep := e.eng.Query(ctx, e.names, fedQuery(op.Metric))
	if rep.Answered != len(e.names) {
		return rep, opOutcome{err: fmt.Errorf("federated query: %s", rep.Summary())}
	}
	rows := 0
	for _, o := range rep.Outcomes {
		for _, obs := range o.Data.Observations {
			rows += len(obs.Results)
		}
	}
	if rows == 0 {
		return rep, opOutcome{err: fmt.Errorf("federated %s query returned no results", fedMetrics[op.Metric])}
	}
	return rep, opOutcome{rows: rows}
}

func renderSite(b *strings.Builder, site string, obs []federation.Observation) {
	fmt.Fprintf(b, "site %s\n", site)
	for _, o := range obs {
		fmt.Fprintf(b, " exec %s", o.ExecID)
		for _, kv := range o.Attrs {
			fmt.Fprintf(b, " %s=%s", kv.Name, kv.Value)
		}
		b.WriteByte('\n')
		for _, r := range o.Results {
			fmt.Fprintf(b, "  %s\n", r.Encode())
		}
	}
}

// verify compares a fault-free federated answer, for each metric of the
// cycle, with plain sequential collection: one site after another, one
// execution at a time, over a session of its own.
func (e *fedEnv) verify() error {
	session := client.NewWithoutRegistry()
	for m := range fedMetrics {
		q := fedQuery(m)
		rep, out := e.do(Op{Kind: opFederated, Metric: m})
		if out.err != nil {
			return out.err
		}
		var got, want strings.Builder
		for _, o := range rep.Outcomes {
			renderSite(&got, o.Site, o.Data.Observations)
		}
		for _, s := range e.sites {
			b, err := session.BindFactory(s.name, s.site.ApplicationFactoryHandle())
			if err != nil {
				return err
			}
			refs, err := b.QueryExecutions(nil)
			if err != nil {
				return err
			}
			obs := make([]federation.Observation, len(refs))
			for i, ref := range refs {
				attrs, err := ref.Info()
				if err != nil {
					return err
				}
				rs, err := ref.PerformanceResults(q)
				if err != nil {
					return err
				}
				obs[i] = federation.Observation{Attrs: attrs, Results: rs}
				for _, kv := range attrs {
					if kv.Name == "id" {
						obs[i].ExecID = kv.Value
					}
				}
			}
			renderSite(&want, s.name, obs)
		}
		if got.String() != want.String() {
			return fmt.Errorf("federated %s answer differs from sequential per-site collection", q.Metric)
		}
	}
	return nil
}

func (e *fedEnv) snapshot() counters {
	var c counters
	var cs []*container.Container
	for _, s := range e.sites {
		cs = append(cs, s.site.Containers()...)
	}
	c.requests, c.faults, c.sheds = containerCounts(cs)
	c.mallocs, c.allocBytes, c.gcCycles, c.gcPauseNs = memCounts()
	return c
}

func reportFedStats(res *Result, a, b federation.Stats) {
	q := float64(b.Queries - a.Queries)
	res.Metrics["federation.attempts_per_query"] = ratio(float64(b.Attempts-a.Attempts), q)
	res.Metrics["federation.hedges_per_query"] = ratio(float64(b.Hedges-a.Hedges), q)
	res.Metrics["federation.retries_per_query"] = ratio(float64(b.Retries-a.Retries), q)
}

func runFederated(cfg runCfg, res *Result) error {
	p := cfg.scale
	var (
		e      *fedEnv
		setups []float64
	)
	for i := 0; i < cfg.setupRepeats(); i++ {
		if e != nil {
			e.Close()
		}
		t0 := time.Now()
		var err error
		if e, err = openFed(p, cfg.trace); err != nil {
			return err
		}
		if _, out := e.do(Op{Kind: opFederated}); out.err != nil {
			e.Close()
			return out.err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.Close()
	res.Metrics["setup_s"] = median(setups)
	res.Info["setup_runs_s"] = setups
	res.Info["dataset"] = map[string]any{"name": "four in-memory sites", "sites": e.names, "executions": e.execs,
		"shapes": "hpl=wide table, smg98=star schema, rma=flat files, hplxml=XML document"}
	res.check("a fault-free federated answer equals sequential per-site collection, for each metric of the cycle", e.verify())

	shape := genShape{workload: wlFederated}
	do := func(_ int, op Op) opOutcome { _, out := e.do(op); return out }
	if cfg.trace {
		if err := traceFederated(cfg, e, shape, res); err != nil {
			return err
		}
	} else {
		warm := closedLoop([]*Gen{newGen(shape, cfg.seed, 1000)}, secs(p.warmupSeconds), 1<<12, do)
		if warm.firstErr != nil {
			return fmt.Errorf("warm-up: %w", warm.firstErr)
		}
		before, statsBefore := e.snapshot(), e.eng.Stats()
		// One caller: the system itself fans each op out to every execution.
		w := closedLoop([]*Gen{newGen(shape, cfg.seed, 0)}, secs(cfg.seconds), 1<<14, do)
		after, statsAfter := e.snapshot(), e.eng.Stats()
		w.report(res)
		reportShared(res, before, after, w.attempted)
		reportFedStats(res, statsBefore, statsAfter)
	}
	if err := reportPeakRSS(res); err != nil {
		return err
	}
	return nil
}

// traceFederated is the traced federated run: a fixed number of queries,
// each followed by a replay of its per-execution getPRs on every site's
// wrapper (and on the store under it, for the file stores).
func traceFederated(cfg runCfg, e *fedEnv, shape genShape, res *Result) error {
	n := cfg.scale.traceOtherOps
	ops := newGen(shape, cfg.seed, 0).Take(n)
	base := make([]int64, n)
	for i, op := range ops {
		t0 := time.Now()
		if _, out := e.do(op); out.err != nil {
			return out.err
		}
		base[i] = time.Since(t0).Nanoseconds()
	}

	var (
		rec             Recorder
		queryNs, selfNs []int64
		siteNs          = map[string][]int64{}
		getprNs         = map[string][]int64{} // per execution, by store shape
		storeNs         = map[string][]int64{} // per execution, by store package
		arena           []perfdata.Result
	)
	before, statsBefore := e.snapshot(), e.eng.Stats()
	traceT0 := time.Now()
	for i, op := range ops {
		t0 := time.Now()
		rep, out := e.do(op)
		dur := time.Since(t0).Nanoseconds()
		if out.err != nil {
			return out.err
		}
		queryNs = append(queryNs, dur)
		root := &node{name: "federation.query", dur: dur, parallel: true}
		var slowest int64
		q := fedQuery(op.Metric)
		for si := range rep.Outcomes {
			s := e.sites[si]
			el := e.timer.elapsed(s.name).Nanoseconds()
			slowest = max(slowest, el)
			siteNs[s.name] = append(siteNs[s.name], el)
			var mapTotal, storeTotal int64
			for xi, ew := range s.ews {
				t1 := time.Now()
				rs, err := mappingGetPR(ew, q, arena[:0])
				d := time.Since(t1).Nanoseconds()
				if err != nil {
					return err
				}
				arena = rs
				// A site asked for a metric it does not hold answers at once
				// with nothing; only answers with results say what a store's
				// getPR costs.
				answered := len(rs) > 0
				if answered {
					getprNs[s.shape] = append(getprNs[s.shape], d)
				}
				mapTotal += d
				if s.storeQuery != nil {
					t1 = time.Now()
					_, err := s.storeQuery(s.ids[xi], q)
					d = time.Since(t1).Nanoseconds()
					if err != nil {
						return err
					}
					if answered {
						storeNs[s.store] = append(storeNs[s.store], d)
					}
					storeTotal += d
				}
			}
			mapNode := &node{name: "mapping." + s.shape + "_getpr", dur: mapTotal}
			if s.storeQuery != nil {
				mapNode.children = []*node{{name: s.store + ".query", dur: storeTotal}}
			}
			root.children = append(root.children, &node{name: "federation.site_" + s.name, dur: el, children: []*node{mapNode}})
		}
		selfNs = append(selfNs, dur-slowest)
		rec.AddTree(i, root, t0.Sub(traceT0).Nanoseconds())
	}
	// The replays above ran between the queries, so the counters below
	// cover queries and replays; the replays make no wire requests and no
	// federation attempts.
	after, statsAfter := e.snapshot(), e.eng.Stats()
	res.Attempted, res.Samples = int64(n), n
	reportShared(res, before, after, int64(n))
	reportFedStats(res, statsBefore, statsAfter)

	m := res.Metrics
	medMs := func(ns []int64) float64 { return median(nsToMs(ns)) }
	medUs := func(ns []int64) float64 { return median(nsToUs(ns)) }
	m["federation.query_ms"] = medMs(queryNs)
	m["federation.self_ms"] = medMs(selfNs)
	for _, s := range e.sites {
		m["federation.site_"+s.name+"_ms"] = medMs(siteNs[s.name])
		m["mapping."+s.shape+"_getpr_us"] = medUs(getprNs[s.shape])
	}
	m["flatfile.query_us"] = medUs(storeNs["flatfile"])
	m["xmlstore.query_us"] = medUs(storeNs["xmlstore"])
	m["trace.overhead_pct"] = 100 * ratio(medMs(queryNs)-medMs(base), medMs(base))
	res.Info["trace"] = map[string]any{"ops": n, "untraced_p50_ms": medMs(base), "traced_p50_ms": medMs(queryNs), "clamped_spans": rec.clamped}
	return flushTrace(cfg, res, &rec)
}
