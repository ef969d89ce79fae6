package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// checkSpans is the span-file invariant: every span's parent exists and
// belongs to the same op, children lie inside their parents, and no self
// time (a span's duration minus what its children cover) is negative.
func checkSpans(t *testing.T, spans []Span) {
	t.Helper()
	byID := map[int64]Span{}
	for _, s := range spans {
		if s.EndNs < s.StartNs || s.DurNs < 0 {
			t.Fatalf("span %+v runs backwards", s)
		}
		byID[s.ID] = s
	}
	children := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %+v has no parent", s)
		}
		if p.Op != s.Op {
			t.Fatalf("span %+v and its parent %+v belong to different ops", s, p)
		}
		if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			t.Fatalf("span %+v lies outside its parent %+v", s, p)
		}
		children[s.Parent] = append(children[s.Parent], s)
	}
	for id, cs := range children {
		sort.Slice(cs, func(i, j int) bool { return cs[i].StartNs < cs[j].StartNs })
		var covered, until int64
		for _, c := range cs {
			from := max(c.StartNs, until)
			if c.EndNs > from {
				covered += c.EndNs - from
				until = c.EndNs
			}
		}
		p := byID[id]
		if self := (p.EndNs - p.StartNs) - covered; self < 0 {
			t.Fatalf("span %+v has self time %d ns", p, self)
		}
	}
}

func TestRecorderPlacesChildrenInsideParents(t *testing.T) {
	var rec Recorder
	// A well-nested sequential tree.
	rec.AddTree(0, &node{name: "client", dur: 1000, children: []*node{
		{name: "core", dur: 600, children: []*node{{name: "mapping", dur: 400, children: []*node{{name: "minidb", dur: 390}}}, {name: "encode", dur: 100}}},
		{name: "decode", dur: 50},
	}}, 5000)
	// A fan-out: parallel children all start together.
	rec.AddTree(1, &node{name: "query", dur: 900, parallel: true, children: []*node{
		{name: "site-a", dur: 800}, {name: "site-b", dur: 300},
	}}, 7000)
	if rec.clamped != 0 {
		t.Fatalf("%d spans clamped in trees that fit", rec.clamped)
	}
	// A child measured longer than its parent (the replays are separate
	// calls, so noise can do this) is cut to fit, and counted.
	rec.AddTree(2, &node{name: "client", dur: 100, children: []*node{{name: "core", dur: 140}}}, 9000)
	if rec.clamped != 1 {
		t.Fatalf("clamped = %d, want 1", rec.clamped)
	}
	checkSpans(t, rec.spans)
	last := rec.spans[len(rec.spans)-1]
	if last.DurNs != 140 || last.EndNs-last.StartNs != 100 {
		t.Errorf("clamped span %+v: want measured 140 ns kept and 100 ns placed", last)
	}
	if got := rec.spans[0]; got.StartNs != 5000 || got.EndNs != 6000 || got.Parent != 0 {
		t.Errorf("root span %+v: want [5000,6000] with no parent", got)
	}

	path := filepath.Join(t.TempDir(), "out", "trace.json")
	if err := rec.Flush(path, "unit", 7); err != nil {
		t.Fatal(err)
	}
	checkSpans(t, readTrace(t, path).Spans)
}

func readTrace(t *testing.T, path string) traceFile {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f traceFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Spans) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	return f
}
