package experiment

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pperfgrid/internal/client"
	"pperfgrid/internal/container"
	"pperfgrid/internal/core"
	"pperfgrid/internal/datagen"
	"pperfgrid/internal/gsh"
	"pperfgrid/internal/mapping"
	"pperfgrid/internal/perfdata"
	"pperfgrid/internal/soap"
	"pperfgrid/internal/viz"
)

// This file is the C10k front-door evaluation: an open-loop soak over
// real loopback sockets against one admission-controlled site.
//
// Every request crosses a real TCP connection: each simulated client
// owns one persistent socket (its own http.Transport, capped at one
// connection), so the measurement includes the whole front door — HTTP,
// SOAP decode, the ppg-deadline header, admission control, the worker
// pool, and the typed overload shed. The load is open-loop, not
// closed-loop: request i has an intended send time fixed before the run,
// and latency is measured from that intended time, so saturation shows
// up as latency and sheds instead of silently stretching the
// inter-arrival gaps (the coordinated-omission error a closed loop
// makes).
//
// The connection axis extends to thousands of sockets; the acceptance
// criteria are the overload-behavior ones: goodput past the saturation
// knee holds near the peak (shedding degrades, never collapses), the
// shed fast path answers in microseconds (measured server-side, where
// client scheduling noise cannot confound it), and after a graceful
// drain nothing leaks — no goroutines, no live paging cursors.
//
// A slice of the traffic (every PagedEvery-th request) opens a paged
// getPR and abandons its cursor after the first page, so the soak
// continuously churns the cursor table the byte/entry/TTL budgets bound.
//
// pperfgrid-bench -soak-bench drives it and emits BENCH_PR9.json.

// SoakBenchConfig tunes the soak evaluation.
type SoakBenchConfig struct {
	// Conns is the connection axis: how many persistent loopback sockets
	// offer load concurrently. Nil uses DefaultSoakConns.
	Conns []int
	// Rates is the offered-load sweep in requests/sec, swept per
	// connection count until two points past the saturation knee. Nil
	// uses DefaultSoakRates.
	Rates []float64
	// Duration is the window each rate point schedules requests over.
	// Zero means 2s.
	Duration time.Duration
	// Workers is the container worker-pool size; <= 0 means 1 (the
	// paper's single-CPU host, and the easiest knee to find).
	Workers int
	// QueueDepth and QueueWait configure admission control; zero values
	// default to 4 and 10ms — a deliberately tight front door, so the
	// sweep saturates it within the rate axis even on small hosts. A
	// full queue (4 x the calibrated 2ms fetch = 8ms) drains inside the
	// wait budget, so the budget is the backstop and nearly all sheds
	// happen at admission, where they cost microseconds instead of
	// holding the socket for the wait.
	QueueDepth int
	QueueWait  time.Duration
	// RequestTimeout is each request's client-side deadline, which the
	// stub propagates to the server as the ppg-deadline header. Zero
	// means 1s.
	RequestTimeout time.Duration
	// Burst quantizes intended send times to this granularity, so
	// arrivals land in bursts (the timer-wheel granularity of real load
	// generators, and of real traffic) instead of a perfectly smooth
	// fluid schedule no client fleet produces. The schedule stays
	// open-loop: intended times are fixed before the run and latency is
	// measured from them. Zero means 10ms; negative disables.
	Burst time.Duration
	// PagedEvery makes every n-th request a paged getPR whose cursor is
	// abandoned after the first page (cursor-table churn); 0 means 16,
	// negative disables.
	PagedEvery int
	// MissEvery makes every n-th request a unique never-cached query
	// that holds the worker for a full Mapping-Layer fetch. 0 means 1 —
	// every non-paged request is cold — so the knee is set by Mapping
	// capacity, the paper's regime: an all-hits workload is answered
	// from the raw-envelope cache faster than any in-process client
	// fleet can offer load, so its queue never builds, and the ms-scale
	// sleeps keep the CPU free for the client fleet, which keeps the
	// measured curve about the server rather than about scheduler
	// contention. Negative disables (all requests hot).
	MissEvery int
	// MappingLatency is the calibrated per-query Mapping-Layer delay
	// (the same mapping.WithLatency decorator the paper-table
	// experiments use — the paper's Mapping Layer is ms-scale, this
	// stack's in-memory store is not). 0 means 2ms, negative disables.
	MappingLatency time.Duration
	// Seed seeds the dataset generator.
	Seed int64
}

// DefaultSoakConns is the default connection axis: well past the
// worker-pool size, up into the thousands of sockets the front door must
// keep answering.
var DefaultSoakConns = []int{256, 1024, 4096}

// DefaultSoakRates is the default offered-load sweep. It climbs past
// single-worker capacity; the knee cutoff stops each sweep.
var DefaultSoakRates = []float64{250, 500, 1000, 2000, 4000, 8000, 16000}

// kneeFraction: a rate point whose goodput is below this fraction of the
// offered rate is past the saturation knee.
const kneeFraction = 0.7

// soakPastKneePoints is how many points past the saturation knee each
// sweep records: the acceptance criterion is about behavior *past* the
// knee, so stopping at the first past-knee point would leave no
// degradation evidence.
const soakPastKneePoints = 2

// SoakPoint is one (connections, offered-rate) measurement.
type SoakPoint struct {
	Conns    int     `json:"conns"`
	Offered  float64 `json:"offeredPerSec"`
	Requests int     `json:"requests"`
	// Goodput counts only successful responses; sheds and timeouts are
	// excluded by construction.
	GoodputPerSec float64 `json:"goodputPerSec"`
	OK            int     `json:"ok"`
	Sheds         int     `json:"sheds"`
	Timeouts      int     `json:"timeouts"`
	Errors        int     `json:"errors"`
	ShedRate      float64 `json:"shedRate"`
	// Latency percentiles of successful requests, from intended send
	// time, in ms.
	P50ms  float64 `json:"p50ms"`
	P99ms  float64 `json:"p99ms"`
	P999ms float64 `json:"p999ms"`
	// ServerSheds cross-checks the client-side shed count against the
	// container's own counter delta for the point.
	ServerSheds int64 `json:"serverSheds"`
}

// SoakCurve is one connection count's sweep to (and past) the knee.
type SoakCurve struct {
	Conns       int         `json:"conns"`
	Points      []SoakPoint `json:"points"`
	PeakGoodput float64     `json:"peakGoodputPerSec"`
	// Server-side shed-decision latency percentiles (µs) sampled from
	// the container's lock-free ring at the end of the sweep. Zero when
	// the sweep shed nothing.
	ShedSamples int     `json:"shedSamples"`
	ShedP50us   float64 `json:"shedP50us"`
	ShedP99us   float64 `json:"shedP99us"`
}

// SoakReport is the full soak evaluation.
type SoakReport struct {
	Workers        int         `json:"workers"`
	QueueDepth     int         `json:"queueDepth"`
	QueueWait      string      `json:"queueWait"`
	RequestTimeout string      `json:"requestTimeout"`
	PagedEvery     int         `json:"pagedEvery"`
	Curves         []SoakCurve `json:"curves"`

	// Cursor-table accounting: budget/TTL evictions accumulated during
	// the soak (the backpressure working), live cursors just before the
	// drain, and live cursors after (must be zero).
	CursorEvictions          int64 `json:"cursorEvictions"`
	CursorEntriesBeforeDrain int   `json:"cursorEntriesBeforeDrain"`
	CursorEntriesAfterDrain  int   `json:"cursorEntriesAfterDrain"`

	// Drain/leak accounting: goroutine count before the site existed vs
	// after the graceful drain settled.
	DrainMs              float64 `json:"drainMs"`
	GoroutinesBaseline   int     `json:"goroutinesBaseline"`
	GoroutinesAfterDrain int     `json:"goroutinesAfterDrain"`
}

// soakQueries is the warm/paged query set: a handful of distinct getPR
// shapes that establish every socket and exercise the paged path.
const soakQueries = 8

// soakWorkload holds the running site and everything a connection needs
// to offer load at it.
type soakWorkload struct {
	site   *core.Site
	cont   *container.Container
	svc    *core.ExecutionService
	handle gsh.Handle
	params [][]string // warm/paged-query wire params, indexed by request hash
	// missBase is the template for the unique never-cached queries: a
	// narrow time slice over a single focus, so the query's own scan and
	// encode cost stays small next to the calibrated Mapping latency and
	// the knee reflects the Mapping Layer, not the store. missSeq makes
	// each derived query globally unique across every point of the sweep
	// (a per-point index would repeat and start hitting the cache).
	missBase perfdata.Query
	missSeq  atomic.Int64
}

// missParams builds request i's unique cold-query wire params.
func (w *soakWorkload) missParams(i int) []string {
	uniq := w.missSeq.Add(1)
	q := w.missBase
	q.Foci = []string{fmt.Sprintf("/Process/%d", int(uniq)%soakQueries)}
	q.Time.Start += float64(uniq) * 1e-9
	return q.WireParams()
}

// startSoakSite stands up the admission-controlled site: one SMG98 star
// store, one execution, Workers/QueueDepth/QueueWait from the config.
func startSoakSite(cfg SoakBenchConfig) (*soakWorkload, error) {
	d := datagen.SMG98(datagen.SMG98Config{
		Executions: 1, Processes: soakQueries, TimeBins: 32, Seed: cfg.Seed,
	})
	var w0 mapping.ApplicationWrapper
	w0, err := mapping.NewStar(d)
	if err != nil {
		return nil, err
	}
	if cfg.MappingLatency > 0 {
		w0 = mapping.WithLatency(w0, cfg.MappingLatency, 0)
	}
	site, err := core.StartSite(core.SiteConfig{
		AppName:    "SMG98-soak",
		Wrappers:   []mapping.ApplicationWrapper{w0},
		Workers:    cfg.Workers,
		QueueDepth: cfg.QueueDepth,
		QueueWait:  cfg.QueueWait,
		// Bounded cache: the miss slice manufactures unique queries, and
		// unbounded retention of their entries would be a leak of its own.
		CacheCapacity: 1024,
	})
	if err != nil {
		return nil, err
	}
	w := &soakWorkload{site: site, cont: site.Containers()[0]}

	c := client.NewWithoutRegistry()
	b, err := c.BindFactory("SMG98-soak", site.ApplicationFactoryHandle())
	if err != nil {
		site.Close()
		return nil, err
	}
	refs, err := b.QueryExecutions(nil)
	if err != nil || len(refs) == 0 {
		site.Close()
		return nil, fmt.Errorf("experiment: soak: resolve execution: %v", err)
	}
	w.handle = refs[0].Handle

	execID := d.Execs[0].ID
	svcs := site.ExecutionServices(execID)
	if len(svcs) == 0 {
		site.Close()
		return nil, fmt.Errorf("experiment: soak: no live ExecutionService for %s", execID)
	}
	w.svc = svcs[0]

	tr := d.Execs[0].Time
	w.params = make([][]string, soakQueries)
	for i := range w.params {
		q := perfdata.Query{
			Metric: "func_calls",
			Foci:   []string{fmt.Sprintf("/Process/%d", i)},
			Time:   tr,
			Type:   "vampir",
		}
		w.params[i] = q.WireParams()
	}
	w.missBase = perfdata.Query{
		Metric: "func_calls",
		Time:   perfdata.TimeRange{Start: tr.Start, End: tr.Start + (tr.End-tr.Start)/32},
		Type:   "vampir",
	}
	return w, nil
}

// soakConn is one simulated client: a stub over its own single-socket
// transport, so the connection is persistent and exclusively its own.
type soakConn struct {
	stub *container.Stub
	tr   *http.Transport
}

func dialSoakConns(handle gsh.Handle, n int) []soakConn {
	conns := make([]soakConn, n)
	for i := range conns {
		tr := &http.Transport{
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			IdleConnTimeout:     5 * time.Minute,
		}
		st := container.Dial(handle)
		st.SetHTTPClient(&http.Client{Transport: tr})
		conns[i] = soakConn{stub: st, tr: tr}
	}
	return conns
}

func closeSoakConns(conns []soakConn) {
	for _, c := range conns {
		c.tr.CloseIdleConnections()
	}
}

// warmSoakConns establishes every socket (and warms the server-side
// cache) before measurement, at bounded concurrency so the warm wave
// itself is not shed wholesale. Individual overload sheds during the
// warm are retried after the server's hint.
func warmSoakConns(conns []soakConn, params [][]string, timeout time.Duration) error {
	sem := make(chan struct{}, 16)
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			for attempt := 0; ; attempt++ {
				ctx, cancel := context.WithTimeout(context.Background(), timeout)
				_, err := conns[i].stub.CallContext(ctx, core.OpGetPR, params[i%len(params)]...)
				cancel()
				if err == nil {
					return
				}
				hint, overloaded := soap.AsOverload(err)
				if !overloaded || attempt >= 50 {
					errs[i] = err
					return
				}
				if hint <= 0 || hint > 50*time.Millisecond {
					hint = 2 * time.Millisecond
				}
				time.Sleep(hint)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("experiment: soak warm: %w", err)
		}
	}
	return nil
}

// runSoakPoint executes one (conns, rate) open-loop point. Request i is
// assigned to connection i%len(conns); each connection works its own
// requests in intended-time order, so requests on one socket serialize —
// the connection-level backpressure a real client experiences.
func runSoakPoint(w *soakWorkload, conns []soakConn, cfg SoakBenchConfig, rate float64) (*SoakPoint, error) {
	n := int(rate * cfg.Duration.Seconds())
	if n < 1 {
		n = 1
	}
	const (
		outcomeOK = 1 + iota
		outcomeShed
		outcomeTimeout
		outcomeError
	)
	outcomes := make([]uint8, n)
	lats := make([]float64, n) // ms from intended send, successes only
	ends := make([]time.Time, len(conns))
	var firstErr atomic.Value
	shedsBefore := w.cont.Sheds()

	start := time.Now()
	var wg sync.WaitGroup
	for c := range conns {
		if c >= n {
			break
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += len(conns) {
				step := time.Duration(float64(i) / rate * float64(time.Second))
				if cfg.Burst > 0 {
					step = step / cfg.Burst * cfg.Burst
				}
				intended := start.Add(step)
				if d := time.Until(intended); d > 0 {
					time.Sleep(d)
				}
				ctx, cancel := context.WithTimeout(context.Background(), cfg.RequestTimeout)
				var err error
				switch {
				case cfg.PagedEvery > 0 && i%cfg.PagedEvery == 0:
					// Open a paged result set and abandon the cursor after
					// the first page: the cursor-table churn the budgets
					// must bound and the drain must clean up.
					_, _, err = conns[c].stub.CallPagedContext(ctx, core.OpGetPR, "", 1, w.params[i%len(w.params)]...)
				case cfg.MissEvery > 0 && i%cfg.MissEvery == cfg.MissEvery/2:
					// A unique cold query: the worker holds its slot for the
					// (calibrated) Mapping-Layer fetch, and the requests
					// arriving behind it build the queue admission control
					// guards. At the default MissEvery=1 this is every
					// non-paged request.
					_, err = conns[c].stub.CallContext(ctx, core.OpGetPR, w.missParams(i)...)
				default:
					_, err = conns[c].stub.CallContext(ctx, core.OpGetPR, w.params[i%len(w.params)]...)
				}
				cancel()
				done := time.Now()
				switch {
				case err == nil:
					outcomes[i] = outcomeOK
					lats[i] = float64(done.Sub(intended)) / float64(time.Millisecond)
				default:
					if _, ok := soap.AsOverload(err); ok {
						outcomes[i] = outcomeShed
					} else if errors.Is(err, context.DeadlineExceeded) {
						outcomes[i] = outcomeTimeout
					} else {
						outcomes[i] = outcomeError
						firstErr.CompareAndSwap(nil, err)
					}
				}
				ends[c] = done
			}
		}(c)
	}
	wg.Wait()

	pt := &SoakPoint{Conns: len(conns), Offered: rate, Requests: n}
	var s Sample
	for i, o := range outcomes {
		switch o {
		case outcomeOK:
			pt.OK++
			s.Add(lats[i])
		case outcomeShed:
			pt.Sheds++
		case outcomeTimeout:
			pt.Timeouts++
		case outcomeError:
			pt.Errors++
		}
	}
	end := start
	for _, e := range ends {
		if e.After(end) {
			end = e
		}
	}
	if elapsed := end.Sub(start).Seconds(); elapsed > 0 {
		pt.GoodputPerSec = float64(pt.OK) / elapsed
	}
	pt.ShedRate = float64(pt.Sheds) / float64(n)
	pt.P50ms = s.Percentile(50)
	pt.P99ms = s.Percentile(99)
	pt.P999ms = s.Percentile(99.9)
	pt.ServerSheds = w.cont.Sheds() - shedsBefore
	// An occasional transport-level error under thousands of sockets on
	// a loaded host is tolerable; a systematic one is not.
	if err, ok := firstErr.Load().(error); ok && pt.Errors > n/20 {
		return nil, fmt.Errorf("experiment: soak point conns=%d rate=%.0f: %d/%d errors, first: %w",
			len(conns), rate, pt.Errors, n, err)
	}
	return pt, nil
}

// runSoakCurve sweeps one connection count across the offered rates,
// continuing soakPastKneePoints past the saturation knee so the report
// shows how goodput holds up when shedding starts.
func runSoakCurve(w *soakWorkload, cfg SoakBenchConfig, nConns int, rates []float64) (*SoakCurve, error) {
	conns := dialSoakConns(w.handle, nConns)
	defer closeSoakConns(conns)
	if err := warmSoakConns(conns, w.params, cfg.RequestTimeout); err != nil {
		return nil, err
	}
	curve := &SoakCurve{Conns: nConns}
	pastKnee := 0
	for _, rate := range rates {
		pt, err := runSoakPoint(w, conns, cfg, rate)
		if err != nil {
			return nil, err
		}
		curve.Points = append(curve.Points, *pt)
		if pt.GoodputPerSec > curve.PeakGoodput {
			curve.PeakGoodput = pt.GoodputPerSec
		}
		if pt.GoodputPerSec < kneeFraction*pt.Offered {
			if pastKnee++; pastKnee >= soakPastKneePoints {
				break
			}
		}
	}
	var shed Sample
	for _, ns := range w.cont.ShedLatenciesNs() {
		shed.Add(float64(ns) / float64(time.Microsecond))
	}
	curve.ShedSamples = shed.N()
	curve.ShedP50us = shed.Percentile(50)
	curve.ShedP99us = shed.Percentile(99)
	return curve, nil
}

// RunSoakBench stands the admission-controlled site up, sweeps every
// connection count, then gracefully drains and accounts for leaks.
func RunSoakBench(cfg SoakBenchConfig) (*SoakReport, error) {
	if cfg.Conns == nil {
		cfg.Conns = DefaultSoakConns
	}
	if cfg.Rates == nil {
		cfg.Rates = DefaultSoakRates
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 4
	}
	if cfg.QueueWait == 0 {
		// One burst bucket's worth of queueing: a hot request queued
		// behind a burst tail or a couple of Mapping-Layer misses still
		// gets served, but one behind a deeper backlog sheds instead of
		// holding its socket — admitted-then-shed requests are the
		// expensive kind of rejection, so the budget stays tight.
		cfg.QueueWait = 10 * time.Millisecond
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = time.Second
	}
	if cfg.Burst == 0 {
		cfg.Burst = 10 * time.Millisecond
	}
	if cfg.PagedEvery == 0 {
		cfg.PagedEvery = 16
	}
	if cfg.MissEvery == 0 {
		cfg.MissEvery = 1
	}
	if cfg.MappingLatency == 0 {
		cfg.MappingLatency = 2 * time.Millisecond
	}

	// The goroutine baseline is taken before the site exists, so the
	// after-drain count proves the whole soak topology (listener, worker
	// pool, per-request handlers) unwound.
	runtime.GC()
	baseline := runtime.NumGoroutine()

	w, err := startSoakSite(cfg)
	if err != nil {
		return nil, err
	}
	report := &SoakReport{
		Workers:            cfg.Workers,
		QueueDepth:         cfg.QueueDepth,
		QueueWait:          cfg.QueueWait.String(),
		RequestTimeout:     cfg.RequestTimeout.String(),
		PagedEvery:         cfg.PagedEvery,
		GoroutinesBaseline: baseline,
	}
	for _, n := range cfg.Conns {
		curve, err := runSoakCurve(w, cfg, n, cfg.Rates)
		if err != nil {
			w.site.Close()
			return nil, err
		}
		report.Curves = append(report.Curves, *curve)
	}

	entries, _, evictions := w.svc.CursorStats()
	report.CursorEntriesBeforeDrain = entries
	report.CursorEvictions = evictions

	drainStart := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	err = w.site.Drain(ctx)
	cancel()
	report.DrainMs = float64(time.Since(drainStart)) / float64(time.Millisecond)
	if err != nil {
		return nil, fmt.Errorf("experiment: soak drain: %w", err)
	}

	entries, _, _ = w.svc.CursorStats()
	report.CursorEntriesAfterDrain = entries
	// Idle-timeout goroutines (transport readers, timer wheels) unwind
	// asynchronously; poll briefly before recording the final count.
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		report.GoroutinesAfterDrain = runtime.NumGoroutine()
		if report.GoroutinesAfterDrain <= baseline || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	return report, nil
}

// Render prints the curves and the shape checks.
func (r *SoakReport) Render() string {
	header := []string{"Conns", "Offered/s", "Goodput/s", "Requests", "OK", "Sheds", "Shed rate", "Timeouts", "p50 ms", "p99 ms", "p999 ms"}
	var rows [][]string
	for _, c := range r.Curves {
		for _, p := range c.Points {
			rows = append(rows, []string{
				fmt.Sprint(p.Conns), Fmt(p.Offered), Fmt(p.GoodputPerSec), fmt.Sprint(p.Requests),
				fmt.Sprint(p.OK), fmt.Sprint(p.Sheds), fmt.Sprintf("%.3f", p.ShedRate),
				fmt.Sprint(p.Timeouts), Fmt(p.P50ms), Fmt(p.P99ms), Fmt(p.P999ms),
			})
		}
	}
	title := fmt.Sprintf("Open-loop soak over real loopback sockets (workers=%d, queue depth=%d, queue wait=%s, request timeout=%s)",
		r.Workers, r.QueueDepth, r.QueueWait, r.RequestTimeout)
	out := viz.Table(title, header, rows)
	out += "\nServer-side shed fast path (decision to rejection written):\n"
	for _, c := range r.Curves {
		if c.ShedSamples == 0 {
			out += fmt.Sprintf("  %5d conns: no sheds\n", c.Conns)
			continue
		}
		out += fmt.Sprintf("  %5d conns: p50 %.1f µs, p99 %.1f µs (%d samples)\n",
			c.Conns, c.ShedP50us, c.ShedP99us, c.ShedSamples)
	}
	out += fmt.Sprintf("\nCursor table: %d budget/TTL evictions during the soak, %d live before drain, %d after\n",
		r.CursorEvictions, r.CursorEntriesBeforeDrain, r.CursorEntriesAfterDrain)
	out += fmt.Sprintf("Drain: %.0f ms; goroutines %d baseline -> %d after drain\n",
		r.DrainMs, r.GoroutinesBaseline, r.GoroutinesAfterDrain)
	out += "\nShape checks:\n"
	for _, c := range r.CheckShape() {
		out += "  " + c + "\n"
	}
	return out
}

// soakGoroutineSlack tolerates runtime-owned goroutines (GC workers,
// netpoll, timer maintenance) that come and go around the baseline.
const soakGoroutineSlack = 16

// CheckShape evaluates the front-door acceptance criteria: each curve
// sustains its lowest offered rate, goodput past the knee holds at
// >= 0.8x the curve's peak (shedding degrades instead of collapsing),
// the largest connection count actually shed (the admission control
// engaged), the server-side shed fast path stays under 1ms at p99, and
// nothing leaks across the drain.
func (r *SoakReport) CheckShape() []string {
	var out []string
	check := func(name string, ok bool) {
		status := "ok      "
		if !ok {
			status = "MISMATCH"
		}
		out = append(out, fmt.Sprintf("%s  %s", status, name))
	}
	for _, c := range r.Curves {
		name := fmt.Sprintf("%d conns", c.Conns)
		check(fmt.Sprintf("%s: measured %d rate points", name, len(c.Points)), len(c.Points) >= 1)
		if len(c.Points) == 0 {
			continue
		}
		coherent := true
		for _, p := range c.Points {
			if p.OK > 0 && (p.P50ms > p.P99ms || p.P99ms > p.P999ms) {
				coherent = false
			}
		}
		check(fmt.Sprintf("%s: percentiles coherent (p50<=p99<=p999)", name), coherent)
		first := c.Points[0]
		check(fmt.Sprintf("%s: lowest offered rate sustained (%.0f/s offered, %.0f/s goodput; peak %.0f/s)",
			name, first.Offered, first.GoodputPerSec, c.PeakGoodput),
			first.GoodputPerSec >= kneeFraction*first.Offered)
		held := true
		pastKnee := false
		for _, p := range c.Points {
			if p.GoodputPerSec < kneeFraction*p.Offered {
				pastKnee = true
				if p.GoodputPerSec < 0.8*c.PeakGoodput {
					held = false
				}
			}
		}
		if pastKnee {
			check(fmt.Sprintf("%s: goodput past the knee held >= 0.8x peak", name), held)
		} else {
			check(fmt.Sprintf("%s: sweep never found the knee (capacity above the rate axis)", name), true)
		}
		if c.ShedSamples > 0 {
			check(fmt.Sprintf("%s: server-side shed p99 %.1f µs < 1 ms", name, c.ShedP99us), c.ShedP99us < 1000)
		}
	}
	if len(r.Curves) > 0 {
		last := r.Curves[len(r.Curves)-1]
		shed := 0
		for _, p := range last.Points {
			shed += p.Sheds
		}
		check(fmt.Sprintf("%d conns: admission control engaged (%d sheds)", last.Conns, shed), shed > 0)
	}
	check(fmt.Sprintf("cursor table empty after drain (%d live, %d evictions during soak)",
		r.CursorEntriesAfterDrain, r.CursorEvictions), r.CursorEntriesAfterDrain == 0)
	check(fmt.Sprintf("no goroutine leak across drain (%d baseline, %d after)",
		r.GoroutinesBaseline, r.GoroutinesAfterDrain),
		r.GoroutinesAfterDrain <= r.GoroutinesBaseline+soakGoroutineSlack)
	return out
}

// ShapeOK reports whether every shape check passed.
func (r *SoakReport) ShapeOK() bool {
	for _, line := range r.CheckShape() {
		if len(line) >= 8 && line[:8] == "MISMATCH" {
			return false
		}
	}
	return true
}
