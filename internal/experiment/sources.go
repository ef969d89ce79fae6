package experiment

import (
	"fmt"
	"time"

	"pperfgrid/internal/core"
	"pperfgrid/internal/datagen"
	"pperfgrid/internal/mapping"
	"pperfgrid/internal/perfdata"
)

// Config tunes the calibrated experiment environment.
type Config struct {
	// Scale multiplies the paper's measured Mapping-Layer latencies to
	// produce the injected per-query delay (see the package comment).
	// The default 0.01 makes the full evaluation run in tens of seconds.
	Scale float64
	// Seed feeds the dataset generators.
	Seed int64
	// SMG98 sizes the trace-shaped dataset; the zero value uses a
	// bench-appropriate size.
	SMG98 datagen.SMG98Config
	// Workers bounds per-host concurrency in the sites (0 = unbounded);
	// Figure 12 uses 1 to model single-CPU hosts.
	Workers int
	// Replicas is the number of replica hosts per site (>= 1).
	Replicas int
	// CachingOff disables the Performance Results cache.
	CachingOff bool
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 0.01
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.SMG98.Executions == 0 {
		c.SMG98 = datagen.SMG98Config{Executions: 4, Processes: 4, TimeBins: 16, Seed: c.Seed}
	}
	if c.Replicas == 0 {
		c.Replicas = 1
	}
	return c
}

// Source is one calibrated data source: its dataset, the site serving it,
// and the Mapping-Layer recorder behind the primary wrapper.
type Source struct {
	Name    string
	Dataset *datagen.Dataset
	Site    *core.Site
	Rec     *Recorder
	// MetricType pairs the representative query's metric and collector.
	Metric string
	Type   string
}

// Close shuts the source's site down.
func (s *Source) Close() { s.Site.Close() }

// ExecIDs returns the dataset's execution IDs.
func (s *Source) ExecIDs() []string {
	out := make([]string, len(s.Dataset.Execs))
	for i, e := range s.Dataset.Execs {
		out[i] = e.ID
	}
	return out
}

// QueryFor builds the i-th representative getPR query, cycling through
// executions so consecutive queries hit different instances.
func (s *Source) QueryFor(i int) (execID string, q perfdata.Query) {
	e := s.Dataset.Execs[i%len(s.Dataset.Execs)]
	return e.ID, perfdata.Query{
		Metric: s.Metric,
		Time:   e.Time,
		Type:   s.Type,
	}
}

// paperMappingMs returns the paper's Mapping-Layer time for a source.
func paperMappingMs(name string) float64 {
	for _, row := range PaperTable4 {
		if row.Source == name {
			return row.MeanMappingMs
		}
	}
	return 0
}

// NewHPLSource builds the HPL source: 124 executions in a single-table
// relational store, calibrated to the paper's 81.8 ms mapping time.
func NewHPLSource(cfg Config) (*Source, error) {
	cfg = cfg.withDefaults()
	d := datagen.HPL(datagen.HPLConfig{Executions: 124, Seed: cfg.Seed})
	build := func() (mapping.ApplicationWrapper, *Recorder, error) {
		w, err := mapping.NewWideTable(d)
		if err != nil {
			return nil, nil, err
		}
		return calibrate(w, "HPL", cfg)
	}
	return newSource("HPL", d, "gflops", "hpl", cfg, build)
}

// NewRMASource builds the Presta RMA source: flat ASCII text files,
// calibrated to the paper's 97.65 ms mapping time. Its representative
// query returns the multi-kilobyte bandwidth series.
func NewRMASource(cfg Config) (*Source, error) {
	cfg = cfg.withDefaults()
	d := datagen.PrestaRMA(datagen.RMAConfig{Executions: 12, MessageSizes: 20, Seed: cfg.Seed})
	build := func() (mapping.ApplicationWrapper, *Recorder, error) {
		w, err := mapping.NewFlatFile(d)
		if err != nil {
			return nil, nil, err
		}
		return calibrate(w, "RMA", cfg)
	}
	return newSource("RMA", d, "bandwidth", "presta", cfg, build)
}

// NewSMG98Source builds the SMG98 source: a five-table star schema whose
// fact-table scans dominate query time, calibrated to the paper's
// 66,037 ms mapping time (scaled).
func NewSMG98Source(cfg Config) (*Source, error) {
	cfg = cfg.withDefaults()
	smgCfg := cfg.SMG98
	smgCfg.Seed = cfg.Seed
	d := datagen.SMG98(smgCfg)
	build := func() (mapping.ApplicationWrapper, *Recorder, error) {
		w, err := mapping.NewStar(d)
		if err != nil {
			return nil, nil, err
		}
		return calibrate(w, "SMG98", cfg)
	}
	return newSource("SMG98", d, "func_calls", "vampir", cfg, build)
}

// calibrate injects the scaled paper latency and adds timing.
func calibrate(w mapping.ApplicationWrapper, name string, cfg Config) (mapping.ApplicationWrapper, *Recorder, error) {
	delay := time.Duration(paperMappingMs(name) * cfg.Scale * float64(time.Millisecond))
	slowed := mapping.WithLatency(w, delay, 0)
	timed := NewTimedWrapper(slowed)
	return timed, timed.Rec, nil
}

func newSource(name string, d *datagen.Dataset, metric, typ string, cfg Config,
	build func() (mapping.ApplicationWrapper, *Recorder, error)) (*Source, error) {
	wrappers := make([]mapping.ApplicationWrapper, cfg.Replicas)
	var rec *Recorder
	for i := range wrappers {
		w, r, err := build()
		if err != nil {
			return nil, fmt.Errorf("experiment: build %s wrapper: %w", name, err)
		}
		wrappers[i] = w
		if i == 0 {
			rec = r
		}
	}
	site, err := core.StartSite(core.SiteConfig{
		AppName:    name,
		Wrappers:   wrappers,
		Workers:    cfg.Workers,
		CachingOff: cfg.CachingOff,
	})
	if err != nil {
		return nil, fmt.Errorf("experiment: start %s site: %w", name, err)
	}
	return &Source{Name: name, Dataset: d, Site: site, Rec: rec, Metric: metric, Type: typ}, nil
}

// NewSource builds a source by name ("HPL", "RMA", "SMG98").
func NewSource(name string, cfg Config) (*Source, error) {
	switch name {
	case "HPL":
		return NewHPLSource(cfg)
	case "RMA":
		return NewRMASource(cfg)
	case "SMG98":
		return NewSMG98Source(cfg)
	}
	return nil, fmt.Errorf("experiment: unknown source %q", name)
}

// AllSourceNames lists the paper's three data sources.
var AllSourceNames = []string{"HPL", "RMA", "SMG98"}
