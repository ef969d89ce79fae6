package core

import (
	"reflect"
	"testing"

	"pperfgrid/internal/perfdata"
)

// streamExec is an ExecutionWrapper that only answers through the
// streaming interface, to prove the Semantic Layer consumes it.
type streamExec struct {
	results  []perfdata.Result
	streamed int
	direct   int
}

func (s *streamExec) Info() ([]perfdata.KV, error)              { return nil, nil }
func (s *streamExec) Foci() ([]string, error)                   { return nil, nil }
func (s *streamExec) Metrics() ([]string, error)                { return nil, nil }
func (s *streamExec) Types() ([]string, error)                  { return nil, nil }
func (s *streamExec) TimeStartEnd() (perfdata.TimeRange, error) { return perfdata.TimeRange{}, nil }
func (s *streamExec) PerformanceResults(q perfdata.Query) ([]perfdata.Result, error) {
	s.direct++
	return s.results, nil
}

func (s *streamExec) StreamPerformanceResults(q perfdata.Query, yield func(perfdata.Result) error) error {
	s.streamed++
	for _, r := range s.results {
		if err := yield(r); err != nil {
			return err
		}
	}
	return nil
}

func TestPerformanceResultsConsumesStream(t *testing.T) {
	want := []perfdata.Result{
		{Metric: "m", Focus: "/", Type: "t", Time: perfdata.TimeRange{Start: 0, End: 1}, Value: 1.5},
		{Metric: "m", Focus: "/a", Type: "t", Time: perfdata.TimeRange{Start: 1, End: 2}, Value: 2.5},
	}
	w := &streamExec{results: want}
	svc := NewExecutionService("e1", w, NewCache("lru", 8), nil)
	q := perfdata.Query{Metric: "m", Time: perfdata.TimeRange{Start: 0, End: 10}}

	got, err := svc.PerformanceResults(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
	if w.streamed != 1 || w.direct != 0 {
		t.Errorf("streamed=%d direct=%d, want the streaming path", w.streamed, w.direct)
	}
	// Second call is a cache hit: no further mapping-layer traffic.
	if _, err := svc.PerformanceResults(q); err != nil {
		t.Fatal(err)
	}
	if w.streamed != 1 {
		t.Errorf("cache miss on repeat query: streamed=%d", w.streamed)
	}
}
