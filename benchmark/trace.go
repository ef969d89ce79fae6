package main

import (
	"encoding/json"
	"os"
	"path/filepath"
)

// Span is one timed call into a layer. Spans of one op share Op; Parent
// is the ID of the span that caused this one (0 for an op's root span).
//
// The benchmark measures every layer from outside by replaying the op at
// that layer's boundary, so a child's wall-clock interval is not inside
// its parent's. DurNs is always the replay's measured duration. StartNs
// and EndNs place the span inside its parent so that one op reads as one
// request: a child starts after half of its parent's self time, and a
// child measured longer than the room its parent leaves is cut to that
// room and counted in the file's "clamped" field.
type Span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// node is a span being assembled: a measured duration plus the children
// to place inside it.
type node struct {
	name     string
	dur      int64
	children []*node
	// parallel children all start with the parent (a fan-out); otherwise
	// they run one after another.
	parallel bool
}

// Recorder keeps spans in memory until Flush writes them out once, at
// the end of the run.
type Recorder struct {
	spans   []Span
	clamped int
}

// AddTree records one op's span tree. start is the root's measured start,
// in nanoseconds since the trace began.
func (r *Recorder) AddTree(op int, root *node, start int64) {
	r.place(op, root, 0, start, start+root.dur)
}

func (r *Recorder) place(op int, n *node, parent, start, end int64) {
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Op: op, Name: n.name, StartNs: start, EndNs: end, DurNs: n.dur})
	if len(n.children) == 0 {
		return
	}
	room := end - start
	var covered int64
	for _, c := range n.children {
		if n.parallel {
			covered = max(covered, c.dur)
		} else {
			covered += c.dur
		}
	}
	at := start + max(room-covered, 0)/2
	for _, c := range n.children {
		cs := at
		ce := cs + c.dur
		if ce > end {
			ce = end
			r.clamped++
		}
		r.place(op, c, id, cs, ce)
		if !n.parallel {
			at = ce
		}
	}
}

// flushTrace writes a traced run's spans to its trace file and names the
// file in the result.
func flushTrace(cfg runCfg, res *Result, rec *Recorder) error {
	path := filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
	res.Info["trace_file"] = path
	return rec.Flush(path, cfg.workload, cfg.seed)
}

// traceFile is the on-disk form of a trace.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Note     string `json:"note"`
	Clamped  int    `json:"clamped"`
	Spans    []Span `json:"spans"`
}

// Flush writes the recorded spans to path.
func (r *Recorder) Flush(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(traceFile{
		Workload: workload,
		Seed:     seed,
		Note:     "layers are replayed from outside: dur_ns is measured, start_ns/end_ns place a span inside its parent",
		Clamped:  r.clamped,
		Spans:    r.spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
