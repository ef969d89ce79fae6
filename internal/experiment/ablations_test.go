package experiment

import (
	"strings"
	"testing"

	"pperfgrid/internal/datagen"
)

func TestRunSOAPOverheadSweep(t *testing.T) {
	points, err := RunSOAPOverheadSweep([]int{1, 10, 100}, 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	// Cost grows with payload.
	if points[2].EncodeDecode <= points[0].EncodeDecode {
		t.Errorf("marshalling cost flat: %v vs %v", points[0].EncodeDecode, points[2].EncodeDecode)
	}
	if points[1].PayloadBytes != 10*64 {
		t.Errorf("payload = %d", points[1].PayloadBytes)
	}
	if out := RenderSOAPOverhead(points); !strings.Contains(out, "SOAP marshalling") {
		t.Error("render incomplete")
	}
}

func TestRunCacheBytesAblation(t *testing.T) {
	cfg := Config{Scale: 0.001, Seed: 9, SMG98: datagen.SMG98Config{Executions: 1, Processes: 2, TimeBins: 4}}
	const budget = 12 << 10
	r, err := RunCacheBytesAblation(cfg, budget, 60)
	if err != nil {
		t.Fatal(err)
	}
	// The invariant the byte accounting guarantees: cached bytes (results
	// + wire) never exceed the configured budget.
	if r.PeakBytes > budget {
		t.Errorf("peak bytes %d exceed budget %d", r.PeakBytes, budget)
	}
	if r.EndBytes > budget {
		t.Errorf("end bytes %d exceed budget %d", r.EndBytes, budget)
	}
	if r.PeakBytes == 0 {
		t.Error("workload never filled the cache")
	}
	if r.Evictions == 0 {
		t.Error("workload never evicted; budget untested")
	}
	if r.HitRate < 0 || r.HitRate > 1 {
		t.Errorf("hit rate %v", r.HitRate)
	}
	if out := RenderCacheBytesAblation(r); !strings.Contains(out, "byte-budgeted") {
		t.Error("render incomplete")
	}
}

func TestRunLocalBypass(t *testing.T) {
	const queries = 60
	rows, err := RunLocalBypass(Config{Scale: 0.0005, Seed: 9}, queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	remote, local := rows[0], rows[1]
	if remote.MedianMs <= 0 || local.MedianMs <= 0 {
		t.Fatalf("nonpositive medians: %+v", rows)
	}
	// The bypass never reaches a container; every remote getPR does.
	if local.Requests != 0 {
		t.Errorf("local bypass made %d container requests, want 0", local.Requests)
	}
	if remote.Requests < queries {
		t.Errorf("SOAP path made %d container requests for %d queries", remote.Requests, queries)
	}
	// The bypass must not be slower: it does strictly less work.
	if local.MedianMs > remote.MedianMs {
		t.Errorf("bypass slower than SOAP path: median %v vs %v ms", local.MedianMs, remote.MedianMs)
	}
	if out := RenderLocalBypass(rows); !strings.Contains(out, "Bypass speedup") {
		t.Error("render incomplete")
	}
}

func TestRunNotificationFanout(t *testing.T) {
	points, err := RunNotificationFanout([]int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.AllDelivered <= 0 {
			t.Errorf("fanout %d: zero latency", p.Sinks)
		}
	}
	if out := RenderNotificationFanout(points); !strings.Contains(out, "fan-out") {
		t.Error("render incomplete")
	}
}

func TestRunStoreFormatComparison(t *testing.T) {
	rows, err := RunStoreFormatComparison(Config{Seed: 9}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MeanTotalMs <= 0 || r.MeanMappingMs <= 0 {
			t.Errorf("%s: nonpositive means %+v", r.Format, r)
		}
		if r.MeanTotalMs < r.MeanMappingMs {
			t.Errorf("%s: total below mapping: %+v", r.Format, r)
		}
	}
	if out := RenderStoreFormats(rows); !strings.Contains(out, "three store formats") {
		t.Error("render incomplete")
	}
}

func TestRunQueryModels(t *testing.T) {
	rows, err := RunQueryModels(Config{Scale: 0.001, Seed: 9}, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.WallMs <= 0 {
			t.Errorf("%s: wall = %v", r.Model, r.WallMs)
		}
	}
	if out := RenderQueryModels(rows, 8); !strings.Contains(out, "registry-callback") {
		t.Error("render incomplete")
	}
}
