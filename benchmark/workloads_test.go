package main

import (
	"encoding/json"
	"path/filepath"
	"testing"
)

func testCfg(t *testing.T, workload string, trace bool) runCfg {
	dir := t.TempDir()
	return runCfg{workload: workload, seed: 1, seconds: 0.4, trace: trace, scale: scales["small"],
		clients: 2, outDir: filepath.Join(dir, "out"), dataRoot: filepath.Join(dir, "data")}
}

func testSpec(t *testing.T) *Spec {
	t.Helper()
	spec, err := loadSpec(findRoot())
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// Every workload reports every end-to-end metric, non-zero and with a
// unit, makes no errors, and passes its correctness checks.
func TestWorkloadsReportEveryEndToEndMetric(t *testing.T) {
	spec := testSpec(t)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program %d", len(spec.Workloads), len(workloadNames))
	}
	for i, wl := range workloadNames {
		if spec.Workloads[i].Name != wl {
			t.Fatalf("BENCHMARK.json workload %d is %q, the program's is %q", i, spec.Workloads[i].Name, wl)
		}
		res, err := runWorkload(testCfg(t, wl, false))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 || len(res.Checks) == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d checks=%v errors=%v", wl, res.Correct, res.Attempted, res.Failed, res.Checks, res.Errors)
		}
		if unknown := res.unknownMetrics(spec); len(unknown) > 0 {
			t.Errorf("%s reports metrics BENCHMARK.json does not declare: %v", wl, unknown)
		}
		line, err := res.lastLine(spec)
		if err != nil {
			t.Fatal(err)
		}
		var wire struct {
			Correct   bool
			Attempted int64
			Failed    int64
			Metrics   map[string]wireMetric
		}
		if err := json.Unmarshal(line, &wire); err != nil {
			t.Fatal(err)
		}
		if len(wire.Metrics) != len(spec.EndToEnd) {
			t.Errorf("%s: last line has %d metrics, want the %d end-to-end ones", wl, len(wire.Metrics), len(spec.EndToEnd))
		}
		for _, m := range spec.EndToEnd {
			got, ok := wire.Metrics[m.Name]
			if !ok || got.Value <= 0 || got.Unit != m.Unit || m.Unit == "" {
				t.Errorf("%s: %s = %+v (present %v), want a positive value in %q", wl, m.Name, got, ok, m.Unit)
			}
		}
	}
}

// The traced run reports every per-layer metric by name, the ones its
// workload exercises non-zero, and writes a well-formed span file; the
// workloads separate the layers as designed; and a second traced run with
// the same seed moves the counters identically.
func TestTracedRuns(t *testing.T) {
	spec := testSpec(t)
	exercised := map[string][]string{
		wlHot:       {"client.getpr_us", "core.getpr_us", "container.wire_self_us", "soap.decode_us", "perfdata.parse_us", "soap.bytes_per_op", "core.cache_hit_ratio", "container.requests_per_op", "core.discovery_ms", "minidb.load_rows_per_s", "minidb.reopen_ms"},
		wlCold:      {"client.getpr_us", "core.getpr_us", "mapping.getpr_us", "minidb.factjoin_us", "soap.encode_us", "container.paged_getpr_us", "core.wire_encodes_per_op", "minidb.pagecache_misses_per_op", "runtime.allocs_per_op"},
		wlMixed:     {"write_p50_ms", "write_p99_ms", "core.publish_us", "mapping.publish_us", "minidb.insert_commit_us", "minidb.commits", "minidb.wal_fsyncs", "minidb.wal_fsyncs_per_commit", "minidb.wal_bytes_per_row", "core.invalidations_per_publish", "mapping.getpr_us"},
		wlFederated: {"federation.query_ms", "federation.site_hpl_ms", "federation.site_smg98_ms", "federation.site_rma_ms", "federation.site_hplxml_ms", "federation.attempts_per_query", "mapping.wide_getpr_us", "mapping.star_getpr_us", "mapping.flatfile_getpr_us", "mapping.xml_getpr_us", "flatfile.query_us", "xmlstore.query_us", "container.requests_per_op"},
		wlAnalytic:  {"minidb.winagg_ms", "minidb.execagg_us", "minidb.range_us", "minidb.topk_us", "minidb.fullscan_agg_ms", "minidb.candidates_per_row", "minidb.disk_bytes_per_row"},
	}
	results := map[string]*Result{}
	for _, wl := range workloadNames {
		cfg := testCfg(t, wl, true)
		res, err := runWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		results[wl] = res
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: traced run incorrect: %v", wl, res.Errors)
		}
		if unknown := res.unknownMetrics(spec); len(unknown) > 0 {
			t.Errorf("%s reports metrics BENCHMARK.json does not declare: %v", wl, unknown)
		}
		line, err := res.lastLine(spec)
		if err != nil {
			t.Fatal(err)
		}
		var wire struct{ Metrics map[string]wireMetric }
		if err := json.Unmarshal(line, &wire); err != nil {
			t.Fatal(err)
		}
		for _, m := range spec.PerLayer {
			if got, ok := wire.Metrics[m.Name]; !ok || got.Unit != m.Unit || m.Unit == "" {
				t.Errorf("%s: per-layer metric %s missing or without its unit: %+v", wl, m.Name, got)
			}
		}
		for _, name := range exercised[wl] {
			if res.Metrics[name] <= 0 {
				t.Errorf("%s: %s = %v, want it exercised", wl, name, res.Metrics[name])
			}
		}
		trace := readTrace(t, filepath.Join(cfg.outDir, "trace-"+wl+".json"))
		if trace.Workload != wl {
			t.Errorf("trace file names workload %q, want %q", trace.Workload, wl)
		}
		checkSpans(t, trace.Spans)
	}

	hot, cold := results[wlHot].Metrics, results[wlCold].Metrics
	if hot["core.cache_hit_ratio"] < 0.99 {
		t.Errorf("hot-getpr cache hit ratio %v, want >= 0.99", hot["core.cache_hit_ratio"])
	}
	if hot["mapping.getpr_us"] != 0 || hot["minidb.pagecache_misses_per_op"] != 0 {
		t.Errorf("hot-getpr reached the Mapping Layer or the page cache: %v us, %v misses/op",
			hot["mapping.getpr_us"], hot["minidb.pagecache_misses_per_op"])
	}
	if cold["core.cache_hit_ratio"] != 0 || cold["minidb.pagecache_misses_per_op"] <= 0 {
		t.Errorf("cold-getpr: cache hit ratio %v (want 0), page-cache misses per op %v (want > 0)",
			cold["core.cache_hit_ratio"], cold["minidb.pagecache_misses_per_op"])
	}
	for _, wl := range []string{wlHot, wlCold, wlFederated, wlAnalytic} {
		if m := results[wl].Metrics; m["minidb.commits"] != 0 || m["minidb.wal_fsyncs"] != 0 {
			t.Errorf("%s wrote to the WAL: %v commits, %v fsyncs", wl, m["minidb.commits"], m["minidb.wal_fsyncs"])
		}
	}
	for _, wl := range []string{wlHot, wlCold, wlMixed} {
		if got := results[wl].Metrics["container.requests_per_op"]; got != 1 {
			t.Errorf("%s: %v wire requests per op, want 1", wl, got)
		}
	}

	again, err := runWorkload(testCfg(t, wlCold, true))
	if err != nil {
		t.Fatal(err)
	}
	// (The page-cache counters repeat only to within a percent: the load's
	// background compaction is time-triggered, so segment files, and with
	// them the cache's eviction order, differ a little from run to run.)
	for _, name := range []string{"minidb.blocks_scanned_per_op", "minidb.commits", "core.wire_encodes_per_op", "core.cache_hit_ratio",
		"container.requests_per_op", "soap.bytes_per_op"} {
		if cold[name] != again.Metrics[name] {
			t.Errorf("cold-getpr %s: %v then %v with the same seed", name, cold[name], again.Metrics[name])
		}
	}
}
