// Command benchmark is the repository's one benchmark: five named
// workloads over real loopback sockets and the disk engine, end-to-end
// metrics with regression bounds, and a traced run that breaks one op down
// by layer the way the paper's Table 4 does. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// runCfg is everything one run of one workload needs.
type runCfg struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    scaleParams
	clients  int
	outDir   string // traces and result files
	dataRoot string // temporary data directories
}

// setupRepeats is how many times a run sets up: several for an untraced
// run, whose setup_s is their median; once for a traced one.
func (c runCfg) setupRepeats() int {
	if c.trace {
		return 1
	}
	return c.scale.setupRepeats
}

// minSamples is the fewest primary-op latency samples a full-scale window
// of the designed length may yield: p99_ms needs ten samples beyond it.
const (
	minSamples     = 1000
	designedWindow = 20.0 // seconds
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload in this process (one of: "+strings.Join(workloadNames, ", ")+"); default: run every workload, each in a fresh process")
		seed     = flag.Int64("seed", 1, "seed of the op generator")
		seconds  = flag.Float64("seconds", designedWindow, "length of the measured window in seconds")
		trace    = flag.Int("trace", 0, "1: make the traced run (single caller, fixed op count, per-layer metrics); with no -workload, make it after each untraced run")
		out      = flag.String("out", "", "write the full JSON result to this file")
		scale    = flag.String("scale", "full", "dataset scale: full, or small for the benchmark's own tests")
		runs     = flag.Int("runs", 1, "with no -workload: how many times to run each workload")
		compare  = flag.String("compare", "", "compare this result file (old) with the one named by the next argument (new)")
		aa       = flag.Int("aa", 0, "run two interleaved sets of N full runs of this binary and check that they agree within the bounds")
	)
	flag.Parse()
	root := findRoot()
	spec, err := loadSpec(root)
	if err != nil {
		fatal(err)
	}
	p, ok := scales[*scale]
	if !ok {
		fatal(fmt.Errorf("unknown -scale %q", *scale))
	}
	outDir := filepath.Join(root, "benchmark", "out")

	switch {
	case *compare != "":
		if flag.NArg() != 1 {
			fatal(fmt.Errorf("usage: -compare <old.json> <new.json>"))
		}
		os.Exit(compareFiles(os.Stdout, spec, *compare, flag.Arg(0)))
	case *aa > 0:
		os.Exit(runAA(spec, *aa, *seed, *seconds, *scale, outDir))
	case *workload == "":
		file, err := runAll(spec, p, *seed, *seconds, *trace == 1, *runs, outDir)
		if err != nil {
			fatal(err)
		}
		if *out != "" {
			if err := writeJSON(*out, file); err != nil {
				fatal(err)
			}
		}
		if failures := file.failures(p); len(failures) > 0 {
			fatal(fmt.Errorf("%s", strings.Join(failures, "; ")))
		}
	default:
		cfg := runCfg{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, scale: p,
			clients: defaultClients(), outDir: outDir, dataRoot: filepath.Join(outDir, "data")}
		res, err := runWorkload(cfg)
		if err != nil {
			fatal(err)
		}
		if unknown := res.unknownMetrics(spec); len(unknown) > 0 {
			fatal(fmt.Errorf("metrics not declared in BENCHMARK.json: %v", unknown))
		}
		if *out != "" {
			if err := writeJSON(*out, &RunFile{Env: envInfo(p, *seconds), Runs: []*Result{res}}); err != nil {
				fatal(err)
			}
		}
		res.print(os.Stdout, spec)
		line, err := res.lastLine(spec)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// runWorkload runs one workload in this process.
func runWorkload(cfg runCfg) (*Result, error) {
	res := newResult(cfg.workload, cfg.trace, cfg.seed, cfg.seconds)
	var err error
	switch cfg.workload {
	case wlHot, wlCold, wlMixed:
		err = runStar(cfg, res)
	case wlFederated:
		err = runFederated(cfg, res)
	case wlAnalytic:
		err = runAnalytic(cfg, res)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	return res, nil
}

// runChild runs one workload in a fresh process of this binary, so heap,
// page cache and peak_rss_mb are that workload's alone, and returns the
// child's full result.
func runChild(workload string, seed int64, seconds float64, trace bool, scale, outDir string) (*Result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp(outDir, "run-*.json")
	if err != nil {
		return nil, err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", t, "-scale", scale, "-out", tmp.Name())
	cmd.Stdout = os.Stderr // progress; the parent prints the summary
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	file, err := readRunFile(tmp.Name())
	if err != nil {
		return nil, err
	}
	if len(file.Runs) != 1 {
		return nil, fmt.Errorf("%s: child wrote %d runs", workload, len(file.Runs))
	}
	return file.Runs[0], nil
}

// runAll runs every workload, each in a fresh process: untraced, and then
// traced when asked. It prints every metric by name with its unit.
func runAll(spec *Spec, p scaleParams, seed int64, seconds float64, trace bool, runs int, outDir string) (*RunFile, error) {
	file := &RunFile{Env: envInfo(p, seconds)}
	for r := 0; r < runs; r++ {
		for _, name := range workloadNames {
			res, err := runChild(name, seed+int64(r), seconds, false, p.name, outDir)
			if err != nil {
				return nil, err
			}
			file.Runs = append(file.Runs, res)
			if !trace {
				continue
			}
			traced, err := runChild(name, seed+int64(r), seconds, true, p.name, outDir)
			if err != nil {
				return nil, err
			}
			file.Runs = append(file.Runs, traced)
		}
	}
	env, _ := json.Marshal(file.Env)
	fmt.Printf("env: %s\n", env)
	for _, res := range file.Runs {
		res.print(os.Stdout, spec)
	}
	return file, nil
}

// failures lists what makes a full run unacceptable: a failed
// correctness check, or too few samples behind the percentiles.
func (f *RunFile) failures(p scaleParams) []string {
	var out []string
	for _, r := range f.Runs {
		if !r.Correct {
			out = append(out, fmt.Sprintf("%s: %s", r.Workload, strings.Join(r.Errors, ", ")))
		}
		if !r.Trace && p.name == "full" && r.Seconds >= designedWindow && r.Samples < minSamples {
			out = append(out, fmt.Sprintf("%s: %d primary-op samples, want at least %d", r.Workload, r.Samples, minSamples))
		}
	}
	return out
}
