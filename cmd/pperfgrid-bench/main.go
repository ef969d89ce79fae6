// Command pperfgrid-bench regenerates the paper's evaluation: Table 4
// (grid services overhead), Table 5 (Performance Results caching), and
// Figure 12 (scalability), plus the ablation studies DESIGN.md lists. Each
// report prints the measured values next to the paper's and runs shape
// checks on the qualitative relationships.
//
// Usage:
//
//	pperfgrid-bench -all            # every table, figure, and ablation
//	pperfgrid-bench -table 4        # just Table 4
//	pperfgrid-bench -table 5
//	pperfgrid-bench -figure 12
//	pperfgrid-bench -ablations
//	pperfgrid-bench -all -quick     # reduced sample sizes for smoke runs
//	pperfgrid-bench -all -scale 0.02  # heavier Mapping-Layer calibration
//
// The scale-out ablation is runnable standalone through the flag pair:
//
//	pperfgrid-bench -figure 12 -policy interleave,least-loaded -replicas 1,2,4,8
//
// The federated scatter-gather evaluation — the Figure 12 successor for
// the federation layer: live heterogeneous fleets of 2/4/8 sites under
// an emulated WAN (seeded per-site latency, jitter, and failure
// injection), measuring completeness, goodput, and the p50/p99 tail the
// hedging/retry/breaker machinery delivers — runs via:
//
//	pperfgrid-bench -federation-bench -bench-json BENCH_PR8.json
//	pperfgrid-bench -federation-bench -quick  # reduced cells, for CI smoke
//
// The C10k front-door evaluation — an open-loop soak over real loopback
// sockets against one admission-controlled site, sweeping the
// connection axis into the thousands and reporting goodput, shed rate,
// latency percentiles, server-side shed fast-path latency, and the
// post-drain leak accounting — runs via:
//
//	pperfgrid-bench -soak-bench -bench-json BENCH_PR9.json
//	pperfgrid-bench -soak-bench -quick      # 256 sockets, for CI smoke
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"pperfgrid/internal/core"
	"pperfgrid/internal/datagen"
	"pperfgrid/internal/experiment"
)

func main() {
	var (
		table     = flag.Int("table", 0, "reproduce one table: 4 or 5 (anything else is a usage error)")
		figure    = flag.Int("figure", 0, "reproduce one figure: 12 (anything else is a usage error)")
		ablations = flag.Bool("ablations", false, "run the ablation studies")
		all       = flag.Bool("all", false, "run everything")
		quick     = flag.Bool("quick", false, "reduced sample sizes")
		scale     = flag.Float64("scale", 0.01, "Mapping-Layer calibration scale (fraction of the paper's latencies)")
		seed      = flag.Int64("seed", 1, "dataset generator seed")
		policy    = flag.String("policy", "", "comma-separated replica policies for Figure 12 and the policy ablation ("+strings.Join(core.AllPolicyNames, ", ")+"); unset means interleave for Figure 12 and every policy for the ablation")
		replicas  = flag.String("replicas", "1,2,4,8", "comma-separated replica host counts: Figure 12's scale-out axis; the policy ablation uses the largest")

		fedBench   = flag.Bool("federation-bench", false, "run only the federated scatter-gather evaluation (sites x WAN latency x failure rate; completeness, goodput, tail latency)")
		durBench   = flag.Bool("durability-bench", false, "run only the durable-engine evaluation (disk vs memory query sweep, zone-map + group-commit ablations, recovery curve)")
		soakBench  = flag.Bool("soak-bench", false, "run only the C10k front-door soak (real loopback sockets x offered load; goodput, shed rate, shed fast-path latency, drain leak check)")
		cacheBytes = flag.Int64("cache-bytes", 0, "byte budget for the cache byte-budget ablation; 0 picks its default")
		benchJSON  = flag.String("bench-json", "", "write a standalone evaluation's results as machine-readable JSON to this path")
	)
	flag.Parse()

	if err := checkSelection(*table, *figure); err != nil {
		fmt.Fprintf(flag.CommandLine.Output(), "pperfgrid-bench: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if !*all && *table == 0 && *figure == 0 && !*ablations && !*fedBench && !*soakBench && !*durBench {
		flag.Usage()
		os.Exit(2)
	}

	policies := splitList(*policy)
	for _, p := range policies {
		if _, err := core.PolicyByName(p); err != nil {
			log.Fatalf("pperfgrid-bench: %v", err)
		}
	}
	hostCounts, err := parseInts(*replicas)
	if err != nil {
		log.Fatalf("pperfgrid-bench: -replicas: %v", err)
	}

	cfg := experiment.Config{Scale: *scale, Seed: *seed}
	if *quick {
		cfg.SMG98 = datagen.SMG98Config{Executions: 2, Processes: 2, TimeBins: 8}
	}

	if *fedBench {
		runFederationBench(*seed, *quick, *benchJSON)
		return
	}
	if *soakBench {
		runSoakBench(*seed, *quick, *benchJSON)
		return
	}
	if *durBench {
		runDurabilityBench(*seed, *quick, *benchJSON)
		return
	}
	failed := false

	if *all || *table == 4 {
		runStep("Table 4 (grid services overhead)", func() (shaped, error) {
			t4 := experiment.Table4Config{Config: cfg}
			if *quick {
				t4.QueriesPerSource = 10
			}
			return experiment.RunTable4(t4)
		}, &failed)
	}
	if *all || *table == 5 {
		runStep("Table 5 (Performance Results caching)", func() (shaped, error) {
			t5 := experiment.Table5Config{Config: cfg}
			if *quick {
				t5.QueriesPerRun = 10
			}
			return experiment.RunTable5(t5)
		}, &failed)
	}
	if *all || *figure == 12 {
		runStep("Figure 12 (scalability)", func() (shaped, error) {
			f12 := experiment.Figure12Config{Config: cfg, HostCounts: hostCounts}
			if *quick {
				f12.ExecutionCounts = []int{2, 8, 32}
				f12.Repeats = 5
				f12.BatchRuns = 2
			}
			return experiment.RunFigure12Sweep(f12, policies)
		}, &failed)
	}
	if *all || *ablations {
		runAblations(cfg, *quick, policies, maxInt(hostCounts, 2), *cacheBytes)
	}
	if failed {
		log.Fatal("pperfgrid-bench: one or more shape checks FAILED")
	}
}

// federationBenchRecord is the BENCH_PR8.json schema: the emulated-WAN
// federation sweep plus the derived graceful-degradation tail ratios the
// acceptance criteria pin.
type federationBenchRecord struct {
	Record             string                            `json:"record"`
	Workload           string                            `json:"workload"`
	Federation         *experiment.FederationBenchReport `json:"federationSweep"`
	TailRatioByLatency map[string]float64                `json:"p99Ratio4Sites10pctByLatencyMs"`
}

// runFederationBench runs the federated scatter-gather evaluation
// standalone. Shape checks print but never fail the process (quick mode
// is the CI smoke step; the committed full-run BENCH_PR8.json records
// the reference numbers).
func runFederationBench(seed int64, quick bool, jsonPath string) {
	fmt.Println("=== Federated scatter-gather evaluation (emulated WAN) ===")
	cfg := experiment.FederationBenchConfig{Seed: seed}
	if quick {
		// Keep the 4-site/10%-failure acceptance cell, trim everything
		// else: exercises fleets, chaos, hedging, and the tail-ratio
		// check in seconds.
		cfg.SiteCounts = []int{2, 4}
		cfg.LatenciesMs = []int{2, 6}
		cfg.FailureRates = []float64{0, 0.10}
		cfg.QueriesPerCell = 120
	}
	report, err := experiment.RunFederationBench(cfg)
	if err != nil {
		log.Fatalf("pperfgrid-bench: federation bench: %v", err)
	}
	fmt.Print(report.Render())

	if jsonPath == "" {
		return
	}
	rec := federationBenchRecord{
		Record:             "PR8 federation robustness trajectory",
		Workload:           "live heterogeneous fleets (wide/star/flatfile) over the wire; seeded chaos WAN (latency+jitter, per-site failure rates); engine defaults (hedging, budgeted retries, breakers)",
		Federation:         report,
		TailRatioByLatency: map[string]float64{},
	}
	for _, latMs := range report.LatencyAxis() {
		if ratio := report.TailRatioAt(4, latMs, 0.10); ratio > 0 {
			rec.TailRatioByLatency[strconv.Itoa(latMs)] = ratio
		}
	}
	writeBenchJSON(jsonPath, rec)
}

// soakBenchRecord is the BENCH_PR9.json schema: the C10k front-door
// soak curves plus the derived overload-behavior figures the acceptance
// criteria pin.
type soakBenchRecord struct {
	Record            string                 `json:"record"`
	Workload          string                 `json:"workload"`
	Soak              *experiment.SoakReport `json:"soak"`
	PastKneeRetention map[string]float64     `json:"pastKneeGoodputRatioByConns"`
	ShedP99usByConns  map[string]float64     `json:"serverShedP99usByConns"`
	GoroutineLeak     int                    `json:"goroutineDeltaAfterDrain"`
	CursorsAfterDrain int                    `json:"cursorEntriesAfterDrain"`
}

// runSoakBench runs the C10k front-door evaluation standalone. Shape
// checks print but never fail the process (quick mode is the CI smoke
// step; the committed full-run BENCH_PR9.json records the reference
// numbers).
func runSoakBench(seed int64, quick bool, jsonPath string) {
	fmt.Println("=== C10k front-door soak (real loopback sockets) ===")
	cfg := experiment.SoakBenchConfig{Seed: seed}
	if quick {
		// One connection level and a short truncated sweep: exercises
		// sockets, admission control, shedding, cursor churn, and the
		// drain leak check in seconds.
		cfg.Conns = []int{256}
		cfg.Rates = []float64{250, 1000, 4000}
		cfg.Duration = 300 * time.Millisecond
	}
	report, err := experiment.RunSoakBench(cfg)
	if err != nil {
		log.Fatalf("pperfgrid-bench: soak bench: %v", err)
	}
	fmt.Print(report.Render())

	if jsonPath == "" {
		return
	}
	rec := soakBenchRecord{
		Record:            "PR9 C10k front-door trajectory",
		Workload:          "SMG98 star store behind one admission-controlled worker and a calibrated ms-scale Mapping Layer; distinct cold getPR per request over persistent loopback sockets, 1/16 paged-and-abandoned; open-loop sweep past the knee; graceful drain",
		Soak:              report,
		PastKneeRetention: map[string]float64{},
		ShedP99usByConns:  map[string]float64{},
		GoroutineLeak:     report.GoroutinesAfterDrain - report.GoroutinesBaseline,
		CursorsAfterDrain: report.CursorEntriesAfterDrain,
	}
	for _, c := range report.Curves {
		key := strconv.Itoa(c.Conns)
		if c.ShedSamples > 0 {
			rec.ShedP99usByConns[key] = c.ShedP99us
		}
		// Worst past-knee goodput relative to the curve's peak — the
		// "degrade, don't collapse" ratio.
		worst := 0.0
		for _, p := range c.Points {
			if p.GoodputPerSec < 0.7*p.Offered && c.PeakGoodput > 0 {
				ratio := p.GoodputPerSec / c.PeakGoodput
				if worst == 0 || ratio < worst {
					worst = ratio
				}
			}
		}
		if worst > 0 {
			rec.PastKneeRetention[key] = worst
		}
	}
	writeBenchJSON(jsonPath, rec)
}

// durabilityBenchRecord is the BENCH_PR10.json schema: the disk-vs-
// memory query sweep, the zone-map and group-commit ablations, and the
// recovery-time curve the acceptance criteria pin.
type durabilityBenchRecord struct {
	Record             string                       `json:"record"`
	Workload           string                       `json:"workload"`
	Durability         *experiment.DurabilityReport `json:"durability"`
	RangeDiskOverMem   float64                      `json:"rangeDiskOverMemory"`
	ZoneMapSpeedup     float64                      `json:"zoneMapSpeedup"`
	GroupCommitSpeedup float64                      `json:"groupCommitSpeedup"`
}

// runDurabilityBench runs the durable-engine evaluation standalone.
// Shape checks print but never fail the process (quick mode is the CI
// smoke step; the committed full-run BENCH_PR10.json records the
// reference numbers). Differential mismatches are hard errors regardless
// of mode.
func runDurabilityBench(seed int64, quick bool, jsonPath string) {
	fmt.Println("=== Durable engine evaluation (segment store) ===")
	cfg := experiment.DurabilityBenchConfig{Seed: seed}
	rowsLabel := "10^6"
	if quick {
		// ~50k rows and a light committer pool: exercises sealing,
		// checkpointing, pruning, group commit, and recovery in seconds.
		cfg.Rows = 50_000
		cfg.CommitsPerWriter = 10
		rowsLabel = "5*10^4 (quick)"
	}
	report, err := experiment.RunDurabilityBench(cfg)
	if err != nil {
		log.Fatalf("pperfgrid-bench: durability bench: %v", err)
	}
	fmt.Print(report.Render())
	for _, msg := range report.CheckShape() {
		fmt.Printf("shape check: %s\n", msg)
	}

	if jsonPath == "" {
		return
	}
	rec := durabilityBenchRecord{
		Record:             "PR10 durable-engine perf trajectory",
		Workload:           "monotone-ts samples table, " + rowsLabel + " rows sealed into columnar segments; hot/selective/cold query sweep vs in-memory engine, zone-map + group-commit ablations, recovery curve",
		Durability:         report,
		ZoneMapSpeedup:     report.ZoneMap.Speedup,
		GroupCommitSpeedup: report.GroupCommitSpeedup,
	}
	for _, q := range report.Queries {
		if strings.HasPrefix(q.Scenario, "selective range") {
			rec.RangeDiskOverMem = q.Ratio
		}
	}
	writeBenchJSON(jsonPath, rec)
}

// writeBenchJSON writes one standalone evaluation's record as indented
// JSON with a trailing newline.
func writeBenchJSON(path string, rec any) {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		log.Fatalf("pperfgrid-bench: marshal bench json: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatalf("pperfgrid-bench: write %s: %v", path, err)
	}
	fmt.Printf("\nwrote %s\n", path)
}

// shaped is any report that can render itself and check the paper's shape.
type shaped interface {
	Render() string
	ShapeOK() bool
}

func runStep(name string, run func() (shaped, error), failed *bool) {
	fmt.Printf("=== %s ===\n", name)
	start := time.Now()
	report, err := run()
	if err != nil {
		log.Fatalf("pperfgrid-bench: %s: %v", name, err)
	}
	fmt.Print(report.Render())
	fmt.Printf("(completed in %v)\n\n", time.Since(start).Round(time.Millisecond))
	if !report.ShapeOK() {
		*failed = true
	}
}

// splitList parses a comma-separated flag value, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// checkSelection rejects a -table or -figure this command does not
// reproduce (0 means none selected), so a typo fails instead of running
// nothing and exiting 0.
func checkSelection(table, figure int) error {
	if table != 0 && table != 4 && table != 5 {
		return fmt.Errorf("-table %d: only tables 4 and 5 are reproduced", table)
	}
	if figure != 0 && figure != 12 {
		return fmt.Errorf("-figure %d: only figure 12 is reproduced", figure)
	}
	return nil
}

// parseInts parses a comma-separated list of positive integers.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad count %q: want a positive integer", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// maxInt returns the largest element, or fallback for an empty list.
func maxInt(xs []int, fallback int) int {
	out := fallback
	for _, x := range xs {
		if x > out {
			out = x
		}
	}
	return out
}

func runAblations(cfg experiment.Config, quick bool, policies []string, replicas int, cacheBytes int64) {
	fmt.Println("=== Ablations ===")

	counts := []int{1, 10, 100, 1000}
	rounds := 50
	if quick {
		counts = []int{1, 10, 100}
		rounds = 10
	}
	points, err := experiment.RunSOAPOverheadSweep(counts, 64, rounds)
	if err != nil {
		log.Fatalf("pperfgrid-bench: soap sweep: %v", err)
	}
	fmt.Print(experiment.RenderSOAPOverhead(points))
	fmt.Println()

	execs, repeats := 32, 5
	if quick {
		execs, repeats = 8, 2
	}
	policyRows, err := experiment.RunPolicyAblation(cfg, policies, replicas, execs, repeats)
	if err != nil {
		log.Fatalf("pperfgrid-bench: policy ablation: %v", err)
	}
	fmt.Print(experiment.RenderPolicyAblation(policyRows, replicas))
	fmt.Println()

	capacity, queries := 8, 300
	if quick {
		capacity, queries = 4, 60
	}
	cacheRows, err := experiment.RunCachePolicyAblation(cfg, capacity, queries)
	if err != nil {
		log.Fatalf("pperfgrid-bench: cache ablation: %v", err)
	}
	fmt.Print(experiment.RenderCachePolicyAblation(cacheRows))
	fmt.Println()

	bytesRows, err := experiment.RunCacheBytesAblation(cfg, cacheBytes, queries)
	if err != nil {
		log.Fatalf("pperfgrid-bench: cache bytes ablation: %v", err)
	}
	fmt.Print(experiment.RenderCacheBytesAblation(bytesRows))
	fmt.Println()

	nq := 50
	if quick {
		nq = 10
	}
	bypassRows, err := experiment.RunLocalBypass(cfg, nq)
	if err != nil {
		log.Fatalf("pperfgrid-bench: local bypass: %v", err)
	}
	fmt.Print(experiment.RenderLocalBypass(bypassRows))
	fmt.Println()

	fan := []int{1, 8, 32}
	if quick {
		fan = []int{1, 8}
	}
	fanPoints, err := experiment.RunNotificationFanout(fan)
	if err != nil {
		log.Fatalf("pperfgrid-bench: fanout: %v", err)
	}
	fmt.Print(experiment.RenderNotificationFanout(fanPoints))
	fmt.Println()

	fq := 50
	if quick {
		fq = 10
	}
	formatRows, err := experiment.RunStoreFormatComparison(cfg, fq)
	if err != nil {
		log.Fatalf("pperfgrid-bench: store formats: %v", err)
	}
	fmt.Print(experiment.RenderStoreFormats(formatRows))
	fmt.Println()

	qmExecs, qmRounds := 64, 3
	if quick {
		qmExecs, qmRounds = 8, 2
	}
	qmRows, err := experiment.RunQueryModels(cfg, qmExecs, qmRounds)
	if err != nil {
		log.Fatalf("pperfgrid-bench: query models: %v", err)
	}
	fmt.Print(experiment.RenderQueryModels(qmRows, qmExecs))
	fmt.Println()
}
