package federation

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pperfgrid/internal/perfdata"
)

// ErrInjected marks a chaos-injected fast failure (a retryable
// transport-level error, as a flaky network or crashed handler would
// produce).
var ErrInjected = errors.New("federation: injected fault")

// SiteFaults describes one site's injected failure modes. All decisions
// and latencies are drawn deterministically from the transport seed, the
// site name, and the per-site call index — the same seed always yields
// the same fault schedule, concurrency notwithstanding.
type SiteFaults struct {
	// Latency is injected into every call.
	Latency time.Duration
	// LatencyJitter adds a deterministic per-call extra in [0, LatencyJitter).
	LatencyJitter time.Duration
	// ErrorRate is the probability a call fails fast with ErrInjected
	// (after its injected latency).
	ErrorRate float64
	// BlackholeRate is the probability a call never answers: it blocks
	// until the caller's context expires. 1 models a dead or partitioned
	// site.
	BlackholeRate float64
	// SlowDripRate is the probability a call answers only after
	// SlowDripLatency — the long-tail straggler hedging exists for.
	SlowDripRate float64
	// SlowDripLatency is the straggler's injected latency; 0 means 20x
	// the base Latency (or 200 ms if no base is set).
	SlowDripLatency time.Duration
}

func (f SiteFaults) slowDrip() time.Duration {
	if f.SlowDripLatency > 0 {
		return f.SlowDripLatency
	}
	if f.Latency > 0 {
		return 20 * f.Latency
	}
	return 200 * time.Millisecond
}

// FaultDecision is one call's precomputed fate — exposed so tests can pin
// that a seed fully determines the schedule.
type FaultDecision struct {
	Latency   time.Duration
	Error     bool
	Blackhole bool
	SlowDrip  bool
}

// ChaosTransport decorates a Transport with deterministic seeded fault
// injection: per-site latency distributions, fast errors, blackholes, and
// slow-drip responses. Sites without configured faults pass through
// untouched, so a chaos-wrapped fleet with no faults set is byte-identical
// to the bare transport — the differential-oracle discipline.
type ChaosTransport struct {
	inner Transport
	seed  int64

	mu     sync.Mutex
	faults map[string]*siteChaos

	injectedErrors     atomic.Int64
	injectedBlackholes atomic.Int64
	injectedSlowDrips  atomic.Int64
}

type siteChaos struct {
	cfg   SiteFaults
	calls atomic.Int64 // per-site call index allocator
}

// NewChaosTransport wraps inner with a seeded fault injector.
func NewChaosTransport(inner Transport, seed int64) *ChaosTransport {
	return &ChaosTransport{inner: inner, seed: seed, faults: make(map[string]*siteChaos)}
}

// SetSiteFaults installs (or replaces) one site's failure modes and
// resets its call index.
func (c *ChaosTransport) SetSiteFaults(site string, f SiteFaults) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.faults[site] = &siteChaos{cfg: f}
}

// Injected returns how many errors, blackholes, and slow drips have been
// injected so far.
func (c *ChaosTransport) Injected() (errors, blackholes, slowDrips int64) {
	return c.injectedErrors.Load(), c.injectedBlackholes.Load(), c.injectedSlowDrips.Load()
}

// decide computes call k's fate for a site — pure function of (seed,
// site, k, cfg).
func decide(seed int64, site string, k int64, cfg SiteFaults) FaultDecision {
	// One splitmix64 stream per (seed, site, call): three independent
	// uniform draws decide blackhole, error, and slow-drip; a fourth sets
	// the latency jitter.
	s := uint64(seed) ^ fnv64(site) ^ (uint64(k)+1)*0x9e3779b97f4a7c15
	uBlack := unitFloat(&s)
	uErr := unitFloat(&s)
	uDrip := unitFloat(&s)
	uJit := unitFloat(&s)

	d := FaultDecision{Latency: cfg.Latency}
	if cfg.LatencyJitter > 0 {
		d.Latency += time.Duration(uJit * float64(cfg.LatencyJitter))
	}
	switch {
	case uBlack < cfg.BlackholeRate:
		d.Blackhole = true
	case uErr < cfg.ErrorRate:
		d.Error = true
	case uDrip < cfg.SlowDripRate:
		d.SlowDrip = true
		d.Latency = cfg.slowDrip()
	}
	return d
}

// Schedule returns the first n fault decisions for a site as the seed
// determines them, without consuming the live call index — the
// determinism contract tests pin (same seed ⇒ identical schedule).
func (c *ChaosTransport) Schedule(site string, n int) []FaultDecision {
	c.mu.Lock()
	sc := c.faults[site]
	c.mu.Unlock()
	out := make([]FaultDecision, n)
	if sc == nil {
		return out
	}
	for k := 0; k < n; k++ {
		out[k] = decide(c.seed, site, int64(k), sc.cfg)
	}
	return out
}

// Do implements Transport: it applies call k's precomputed fate, then
// (if the call survives) forwards to the inner transport.
func (c *ChaosTransport) Do(ctx context.Context, site string, q perfdata.Query) (*SiteData, error) {
	c.mu.Lock()
	sc := c.faults[site]
	c.mu.Unlock()
	if sc == nil {
		return c.inner.Do(ctx, site, q)
	}
	k := sc.calls.Add(1) - 1
	d := decide(c.seed, site, k, sc.cfg)

	if d.Blackhole {
		c.injectedBlackholes.Add(1)
		<-ctx.Done()
		return nil, &SiteError{Site: site, Cause: fmt.Errorf("%w: blackholed call %d: %v", ErrInjected, k, ctx.Err()), Retryable: true, Timeout: true}
	}
	if d.SlowDrip {
		c.injectedSlowDrips.Add(1)
	}
	if d.Latency > 0 {
		if !sleepCtx(ctx, d.Latency) {
			return nil, &SiteError{Site: site, Cause: ctx.Err(), Retryable: true, Timeout: true}
		}
	}
	if d.Error {
		c.injectedErrors.Add(1)
		return nil, &SiteError{Site: site, Cause: fmt.Errorf("%w: call %d", ErrInjected, k), Retryable: true}
	}
	return c.inner.Do(ctx, site, q)
}

// sleepCtx waits d, returning false if ctx expires first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// fnv64 hashes a site name (FNV-1a).
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// unitFloat advances a splitmix64 state and returns a uniform draw in
// [0, 1).
func unitFloat(state *uint64) float64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}
