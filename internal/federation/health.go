package federation

import (
	"sync"
	"time"
)

// latencyEWMA tracks a site's success latency as two exponential moving
// averages — the mean and the mean absolute deviation — the same
// cheap-to-update signal the container keeps for its Retry-After hint,
// used here to time hedges. For roughly bell-shaped
// latency, mean + 3*MAD sits near the 99th percentile (MAD ≈ 0.8σ, and
// p99 ≈ mean + 2.33σ), which is exactly when a hedge is worth firing:
// the outstanding attempt is already slower than ~99% of its peers.
type latencyEWMA struct {
	mu   sync.Mutex
	mean float64 // milliseconds
	dev  float64 // mean absolute deviation, milliseconds
	n    int64
}

// ewmaAlpha matches the container-side service-time EWMA.
const ewmaAlpha = 0.2

// Observe folds one successful attempt's latency in.
func (l *latencyEWMA) Observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n == 0 {
		l.mean = ms
		l.dev = 0
	} else {
		diff := ms - l.mean
		if diff < 0 {
			diff = -diff
		}
		l.mean = (1-ewmaAlpha)*l.mean + ewmaAlpha*ms
		l.dev = (1-ewmaAlpha)*l.dev + ewmaAlpha*diff
	}
	l.n++
}

// Samples returns how many latencies have been observed.
func (l *latencyEWMA) Samples() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// MeanMs returns the EWMA mean in milliseconds.
func (l *latencyEWMA) MeanMs() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.mean
}

// HedgeDelay derives the EWMA-p99-informed hedge delay, clamped to
// [min, max]. With no samples yet it returns 0 — the engine reads that
// as "no basis to hedge" and lets the first calls establish a baseline.
func (l *latencyEWMA) HedgeDelay(min, max time.Duration) time.Duration {
	l.mu.Lock()
	n, mean, dev := l.n, l.mean, l.dev
	l.mu.Unlock()
	if n == 0 {
		return 0
	}
	d := time.Duration((mean + 3*dev) * float64(time.Millisecond))
	if d < min {
		d = min
	}
	if max > 0 && d > max {
		d = max
	}
	return d
}

// siteHealth pairs one site's breaker with its latency tracker.
type siteHealth struct {
	breaker *Breaker
	lat     latencyEWMA
}
