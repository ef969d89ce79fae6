package experiment

import (
	"sync"
	"time"

	"pperfgrid/internal/mapping"
	"pperfgrid/internal/perfdata"
)

// Recorder accumulates per-call Mapping-Layer durations, the paper's
// "Mapping Layer class call to getPR was timed" instrumentation point.
type Recorder struct {
	mu        sync.Mutex
	durations []time.Duration
	bytes     []int
}

// Record stores one observation: the mapping-layer duration and the
// result payload size in bytes.
func (r *Recorder) Record(d time.Duration, payloadBytes int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.durations = append(r.durations, d)
	r.bytes = append(r.bytes, payloadBytes)
}

// Reset clears all observations.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.durations = r.durations[:0]
	r.bytes = r.bytes[:0]
}

// Durations returns a copy of the recorded durations.
func (r *Recorder) Durations() []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]time.Duration, len(r.durations))
	copy(out, r.durations)
	return out
}

// MeanMillis returns the mean duration in milliseconds.
func (r *Recorder) MeanMillis() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.durations) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range r.durations {
		sum += d
	}
	return float64(sum) / float64(len(r.durations)) / float64(time.Millisecond)
}

// MeanBytes returns the mean result payload size.
func (r *Recorder) MeanBytes() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.bytes) == 0 {
		return 0
	}
	sum := 0
	for _, b := range r.bytes {
		sum += b
	}
	return float64(sum) / float64(len(r.bytes))
}

// payloadBytes approximates the wire size of a result list the way the
// paper approximated Java object sizes: the sum of the encoded strings.
func payloadBytes(rs []perfdata.Result) int {
	n := 0
	for _, s := range perfdata.EncodeResults(rs) {
		n += len(s)
	}
	return n
}

// TimedWrapper decorates an ApplicationWrapper so every getPR through it
// (AppendPerformanceResults, the Semantic Layer's one read) records its
// Mapping-Layer duration and payload size into a Recorder.
type TimedWrapper struct {
	mapping.ApplicationWrapper
	Rec *Recorder
}

// NewTimedWrapper wraps w with recording.
func NewTimedWrapper(w mapping.ApplicationWrapper) *TimedWrapper {
	return &TimedWrapper{ApplicationWrapper: w, Rec: &Recorder{}}
}

// ExecutionWrapper implements mapping.ApplicationWrapper.
func (t *TimedWrapper) ExecutionWrapper(id string) (mapping.ExecutionWrapper, error) {
	ew, err := t.ApplicationWrapper.ExecutionWrapper(id)
	if err != nil {
		return nil, err
	}
	return &timedExec{ExecutionWrapper: ew, rec: t.Rec}, nil
}

type timedExec struct {
	mapping.ExecutionWrapper
	rec *Recorder
}

// AppendPerformanceResults records each Mapping-Layer getPR — the one
// read the Semantic Layer makes — with its duration and payload size.
func (e *timedExec) AppendPerformanceResults(q perfdata.Query, dst []perfdata.Result) ([]perfdata.Result, error) {
	before := len(dst)
	start := time.Now()
	out, err := e.ExecutionWrapper.AppendPerformanceResults(q, dst)
	if err != nil {
		return out, err
	}
	e.rec.Record(time.Since(start), payloadBytes(out[before:]))
	return out, nil
}
