package experiment

import (
	"fmt"
	"math/rand"
	"time"

	"pperfgrid/internal/client"
	"pperfgrid/internal/container"
	"pperfgrid/internal/core"
	"pperfgrid/internal/datagen"
	"pperfgrid/internal/mapping"
	"pperfgrid/internal/ogsi"
	"pperfgrid/internal/perfdata"
	"pperfgrid/internal/soap"
	"pperfgrid/internal/viz"
)

// This file holds ablation studies beyond the paper's evaluation,
// isolating the design choices DESIGN.md calls out:
//
//   - SOAP marshalling cost vs payload size (where Table 4's overhead
//     comes from).
//   - A byte-budgeted cache under a skewed query mix.
//   - Local bypass vs Services-Layer access (future-work optimization).

// SOAPOverheadPoint is one payload size's marshalling cost.
type SOAPOverheadPoint struct {
	Items        int
	PayloadBytes int
	EncodeDecode time.Duration // round-trip encode request + decode request + encode response + decode response
}

// RunSOAPOverheadSweep measures pure marshalling/demarshalling cost as the
// result array grows, isolating the payload-proportional component of the
// Table 4 overhead (no sockets involved).
func RunSOAPOverheadSweep(itemCounts []int, itemBytes, rounds int) ([]SOAPOverheadPoint, error) {
	if itemBytes <= 0 {
		itemBytes = 64
	}
	if rounds <= 0 {
		rounds = 50
	}
	var out []SOAPOverheadPoint
	for _, n := range itemCounts {
		items := make([]string, n)
		for i := range items {
			items[i] = fmt.Sprintf("%0*d", itemBytes, i)
		}
		payload := 0
		for _, s := range items {
			payload += len(s)
		}
		var total time.Duration
		for r := 0; r < rounds; r++ {
			start := time.Now()
			req, err := soap.EncodeRequest("getPR", nil, items)
			if err != nil {
				return nil, err
			}
			if _, err := soap.DecodeRequest(req); err != nil {
				return nil, err
			}
			resp, err := soap.EncodeResponse("getPR", nil, items)
			if err != nil {
				return nil, err
			}
			if _, err := soap.DecodeResponse(resp); err != nil {
				return nil, err
			}
			total += time.Since(start)
		}
		out = append(out, SOAPOverheadPoint{
			Items:        n,
			PayloadBytes: payload,
			EncodeDecode: total / time.Duration(rounds),
		})
	}
	return out, nil
}

// RenderSOAPOverhead formats the sweep as a table.
func RenderSOAPOverhead(points []SOAPOverheadPoint) string {
	header := []string{"Items", "Payload (B)", "Marshal+demarshal (µs)"}
	var rows [][]string
	for _, p := range points {
		rows = append(rows, []string{
			fmt.Sprint(p.Items), fmt.Sprint(p.PayloadBytes),
			Fmt(float64(p.EncodeDecode) / float64(time.Microsecond)),
		})
	}
	return viz.Table("Ablation — SOAP marshalling cost vs payload", header, rows)
}

// CacheBytesRow is the byte-budgeted cache's outcome.
type CacheBytesRow struct {
	Budget    int64   `json:"budgetBytes"`
	HitRate   float64 `json:"hitRate"`
	MeanMs    float64 `json:"meanMs"`
	Evictions int64   `json:"evictions"`
	PeakBytes int64   `json:"peakBytes"`
	EndBytes  int64   `json:"endBytes"`
}

// RunCacheBytesAblation drives a byte-budgeted Performance Results cache
// with a Zipf-like query mix over an SMG98-shaped execution: a few hot
// queries, a long tail of per-function windows, and one expensive
// whole-trace query that recurs every tenth query. Capacity is accounted
// in result+wire bytes instead of entries, so the whole-trace result set
// competes against many small tail windows for the same budget.
// PeakBytes is sampled after every query; it never exceeds the budget
// (the invariant the byte accounting guarantees).
func RunCacheBytesAblation(cfg Config, budget int64, queries int) (CacheBytesRow, error) {
	cfg = cfg.withDefaults()
	if budget <= 0 {
		budget = 64 << 10
	}
	if queries <= 0 {
		queries = 300
	}
	d := datagen.SMG98(cfg.SMG98)
	star, err := mapping.NewStar(d)
	if err != nil {
		return CacheBytesRow{}, err
	}
	delay := time.Duration(paperMappingMs("SMG98") * cfg.Scale / 50 * float64(time.Millisecond))
	slowed := mapping.WithLatency(star, delay, 0)
	ew, err := slowed.ExecutionWrapper(d.Execs[0].ID)
	if err != nil {
		return CacheBytesRow{}, err
	}
	cache := core.NewCacheFromConfig(core.CacheConfig{MaxBytes: budget})
	svc := core.NewExecutionService(d.Execs[0].ID, ew, cache, nil)

	tr := d.Execs[0].Time
	rng := rand.New(rand.NewSource(cfg.Seed))
	var sample Sample
	var peak int64
	for i := 0; i < queries; i++ {
		var q perfdata.Query
		switch {
		case i%10 == 0:
			// The recurring expensive query: whole trace, all foci.
			q = perfdata.Query{Metric: "func_calls", Time: tr, Type: "vampir"}
		case rng.Float64() < 0.5:
			// Hot set: per-process func_calls.
			p := rng.Intn(2)
			q = perfdata.Query{Metric: "func_calls", Foci: []string{fmt.Sprintf("/Process/%d", p)}, Time: tr, Type: "vampir"}
		default:
			// Long tail: per-function windows.
			fn := datagen.SMG98Functions[rng.Intn(len(datagen.SMG98Functions))]
			q = perfdata.Query{
				Metric: "excl_time",
				Foci:   []string{fmt.Sprintf("/Process/%d/Code/MPI/%s", rng.Intn(2), fn)},
				Time:   perfdata.TimeRange{Start: tr.End * rng.Float64() / 2, End: tr.End},
				Type:   "vampir",
			}
		}
		start := time.Now()
		if _, err := svc.PerformanceResults(q); err != nil {
			return CacheBytesRow{}, err
		}
		sample.Add(float64(time.Since(start)) / float64(time.Millisecond))
		if b := cache.SizeBytes(); b > peak {
			peak = b
		}
	}
	stats := cache.Stats()
	return CacheBytesRow{
		Budget:    budget,
		HitRate:   stats.HitRate(),
		MeanMs:    sample.Mean(),
		Evictions: stats.Evictions,
		PeakBytes: peak,
		EndBytes:  cache.SizeBytes(),
	}, nil
}

// RenderCacheBytesAblation formats the outcome.
func RenderCacheBytesAblation(r CacheBytesRow) string {
	header := []string{"Budget (B)", "Hit rate", "Mean query (ms)", "Evictions", "Peak bytes", "End bytes"}
	cells := [][]string{{
		fmt.Sprint(r.Budget), Fmt(r.HitRate), Fmt(r.MeanMs),
		fmt.Sprint(r.Evictions), fmt.Sprint(r.PeakBytes), fmt.Sprint(r.EndBytes),
	}}
	return viz.Table("Ablation — byte-budgeted LRU cache under a skewed SMG98 mix", header, cells)
}

// LocalBypassRow is one access path's median getPR time and the SOAP
// requests the site's containers served for it.
type LocalBypassRow struct {
	Path     string
	MedianMs float64
	Requests int64
}

// RunLocalBypass measures the future-work local-bypass optimization: the
// same getPR query through the full SOAP stack versus in-process through
// the co-located site. The two paths alternate query by query, so drift
// (GC, scheduling, warm-up) falls on both alike, and each path reports its
// median. The difference is the per-query Services-Layer cost a
// co-located client can avoid.
func RunLocalBypass(cfg Config, queries int) ([]LocalBypassRow, error) {
	cfg = cfg.withDefaults()
	cfg.CachingOff = true
	cfg.Replicas = 1
	if queries <= 0 {
		queries = 50
	}
	src, err := NewRMASource(cfg) // payload-heavy source shows the gap best
	if err != nil {
		return nil, err
	}
	defer src.Close()

	remoteClient := client.NewWithoutRegistry()
	rb, err := remoteClient.BindFactory(src.Name, src.Site.ApplicationFactoryHandle())
	if err != nil {
		return nil, err
	}
	localClient := client.NewWithoutRegistry()
	lb, err := localClient.BindLocal(src.Name, src.Site)
	if err != nil {
		return nil, err
	}
	rows := []LocalBypassRow{{Path: "services layer (SOAP)"}, {Path: "local bypass (in-process)"}}
	refs := make([][]*client.ExecutionRef, len(rows))
	for p, b := range []*client.Binding{rb, lb} {
		if refs[p], err = b.QueryExecutions(nil); err != nil {
			return nil, err
		}
	}
	served := func() (n int64) {
		for _, c := range src.Site.Containers() {
			n += c.Requests()
		}
		return n
	}

	_, q := src.QueryFor(0)
	samples := make([]Sample, len(rows))
	for i := 0; i < queries; i++ {
		for p := range rows {
			ref := refs[p][i%len(refs[p])]
			before := served()
			start := time.Now()
			if _, err := ref.PerformanceResults(q); err != nil {
				return nil, err
			}
			samples[p].Add(float64(time.Since(start)) / float64(time.Millisecond))
			rows[p].Requests += served() - before
		}
	}
	for p := range rows {
		rows[p].MedianMs = samples[p].Percentile(50)
	}
	return rows, nil
}

// RenderLocalBypass formats the comparison.
func RenderLocalBypass(rows []LocalBypassRow) string {
	header := []string{"Access path", "Median getPR (ms)", "SOAP requests"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{r.Path, Fmt(r.MedianMs), fmt.Sprint(r.Requests)})
	}
	out := viz.Table("Ablation — local bypass vs Services Layer (RMA source)", header, cells)
	if len(rows) == 2 && rows[1].MedianMs > 0 {
		out += fmt.Sprintf("Bypass speedup: %s\n", Fmt(rows[0].MedianMs/rows[1].MedianMs))
	}
	return out
}

// NotificationFanoutPoint is one fan-out size's delivery latency.
type NotificationFanoutPoint struct {
	Sinks        int
	AllDelivered time.Duration
}

// RunNotificationFanout measures push-notification delivery: one Execution
// update fanned out to N SOAP sinks hosted in a client container.
func RunNotificationFanout(sinkCounts []int) ([]NotificationFanoutPoint, error) {
	clientCont := container.New(ogsi.NewHosting("x:0"), container.Options{})
	if err := clientCont.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	defer clientCont.Close()

	var out []NotificationFanoutPoint
	for _, n := range sinkCounts {
		hub := ogsi.NewNotificationHub(container.SOAPSinkDialer())
		done := make(chan struct{}, n)
		for i := 0; i < n; i++ {
			in, err := container.DeploySink(clientCont.Hosting(), ogsi.SinkFunc(func(string, string) error {
				done <- struct{}{}
				return nil
			}))
			if err != nil {
				return nil, err
			}
			if err := hub.SubscribeHandle("updates", in.Handle()); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		hub.Notify("updates", "data changed")
		for i := 0; i < n; i++ {
			<-done
		}
		out = append(out, NotificationFanoutPoint{Sinks: n, AllDelivered: time.Since(start)})
		hub.Flush()
	}
	return out, nil
}

// RenderNotificationFanout formats the sweep.
func RenderNotificationFanout(points []NotificationFanoutPoint) string {
	header := []string{"Sinks", "All delivered (ms)"}
	var cells [][]string
	for _, p := range points {
		cells = append(cells, []string{fmt.Sprint(p.Sinks), Fmt(float64(p.AllDelivered) / float64(time.Millisecond))})
	}
	return viz.Table("Ablation — notification fan-out latency", header, cells)
}
