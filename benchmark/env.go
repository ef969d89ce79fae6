package main

import (
	"bufio"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"pperfgrid/internal/datagen"
)

// scaleParams sizes the datasets and the traced runs. "full" is the
// benchmark; "small" keeps the benchmark's own tests fast.
type scaleParams struct {
	name           string
	star           datagen.ScaleConfig
	hotSet         int
	pageCacheBytes int64
	hpl            datagen.HPLConfig
	smg98          datagen.SMG98Config
	rma            datagen.RMAConfig
	hplxml         datagen.HPLConfig
	traceGetPROps  int // ops of a traced getPR run
	traceMixedOps  int // ops of a traced mixed-publish run: each publish costs ~0.4 s per pass on the seed code
	traceOtherOps  int // ops of a traced federated or SQL run
	fullScanReps   int
	warmupSeconds  float64
	setupRepeats   int
}

var scales = map[string]scaleParams{
	"full": {
		name:           "full",
		star:           datagen.ScaleConfig{Executions: 1000, ResultsPerExec: 1000, Seed: 7},
		hotSet:         64,
		pageCacheBytes: 16 << 20,
		hpl:            datagen.HPLConfig{Executions: 32, Seed: 1},
		smg98:          datagen.SMG98Config{Executions: 8, Processes: 8, TimeBins: 16, Seed: 2},
		rma:            datagen.RMAConfig{Executions: 8, MessageSizes: 16, Seed: 3},
		hplxml:         datagen.HPLConfig{Executions: 8, Seed: 4},
		traceGetPROps:  2000,
		traceMixedOps:  400,
		traceOtherOps:  200,
		fullScanReps:   3,
		warmupSeconds:  3,
		setupRepeats:   3,
	},
	"small": {
		name:           "small",
		star:           datagen.ScaleConfig{Executions: 100, ResultsPerExec: 200, Seed: 7},
		hotSet:         16,
		pageCacheBytes: 256 << 10,
		hpl:            datagen.HPLConfig{Executions: 4, Seed: 1},
		smg98:          datagen.SMG98Config{Executions: 2, Processes: 2, TimeBins: 4, Seed: 2},
		rma:            datagen.RMAConfig{Executions: 2, MessageSizes: 4, Seed: 3},
		hplxml:         datagen.HPLConfig{Executions: 2, Seed: 4},
		traceGetPROps:  200,
		traceMixedOps:  100,
		traceOtherOps:  20,
		fullScanReps:   1,
		warmupSeconds:  0.2,
		setupRepeats:   1,
	},
}

// commit is the commit the binary was built from; run.sh sets it.
var commit = "unknown"

// defaultClients is the closed loop's caller count: min(nproc, 4).
func defaultClients() int { return min(runtime.NumCPU(), 4) }

// envInfo describes where and how a run was made.
func envInfo(p scaleParams, seconds float64) map[string]any {
	return map[string]any{
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"go":               runtime.Version(),
		"commit":           commit,
		"scale":            p.name,
		"load":             "closed loop: each client sends its next op when the previous one has been answered",
		"clients":          defaultClients(),
		"single_caller":    []string{wlMixed, wlFederated},
		"network":          "loopback TCP, server and load generator in one process",
		"flush_policy":     "engine default: group commit on (DisableGroupCommit=false)",
		"warmup_s":         p.warmupSeconds,
		"window_s":         seconds,
		"star_rows":        p.star.Executions * p.star.ResultsPerExec,
		"page_cache_bytes": p.pageCacheBytes,
	}
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func reportPeakRSS(res *Result) error {
	rss, err := peakRSSMiB()
	res.Metrics["peak_rss_mb"] = rss
	return err
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// copyDir copies the regular files of the flat directory src into dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
