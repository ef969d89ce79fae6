package federation

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"pperfgrid/internal/perfdata"
)

// quietConfig turns off the adaptive machinery so tests can pin exact
// behavior, then opts pieces back in per test.
func quietConfig() Config {
	return Config{
		PerSiteTimeout: time.Second,
		DisableHedging: true,
		DisableBreaker: true,
		RetryBudget:    -1, // no extra attempts
	}
}

func TestQueryAllHealthy(t *testing.T) {
	mt := newMockTransport(alwaysOK)
	e := New(mt, quietConfig())
	sites := []string{"s0", "s1", "s2", "s3"}

	r := e.Query(context.Background(), sites, perfdata.Query{})
	if !r.Complete || r.Answered != 4 || r.TimedOut+r.Errored+r.Tripped != 0 {
		t.Fatalf("healthy fleet report: %s", r.Summary())
	}
	for i, o := range r.Outcomes {
		if o.Site != sites[i] {
			t.Fatalf("outcome %d is %s, want caller order %s", i, o.Site, sites[i])
		}
		if o.Status != StatusOK || o.Err != nil || o.Attempts != 1 || o.Data == nil {
			t.Fatalf("site %s outcome: %+v", o.Site, o)
		}
	}
	if got := len(r.Data()); got != 4 {
		t.Fatalf("Data() returned %d sites, want 4", got)
	}
}

// TestPartialFailureGuarantee pins the headline robustness contract: with
// K of N sites down (one blackholed, one always-erroring), the federated
// query returns within the deadline envelope carrying all N-K healthy
// results and accurate per-site annotations — never all-or-nothing,
// never a hang.
func TestPartialFailureGuarantee(t *testing.T) {
	inner := newMockTransport(alwaysOK)
	chaos := NewChaosTransport(inner, 99)
	chaos.SetSiteFaults("dead", SiteFaults{BlackholeRate: 1})
	chaos.SetSiteFaults("sick", SiteFaults{ErrorRate: 1})

	cfg := quietConfig()
	cfg.PerSiteTimeout = 100 * time.Millisecond
	cfg.RetryBudget = 2
	cfg.MaxAttemptsPerSite = 2
	e := New(chaos, cfg)

	sites := []string{"h0", "dead", "h1", "sick"}
	start := time.Now()
	r := e.Query(context.Background(), sites, perfdata.Query{})
	elapsed := time.Since(start)

	// Worst case: 2 attempts x 100ms against the blackhole plus one
	// backoff sleep. Anything near a second means a hang.
	if elapsed > 900*time.Millisecond {
		t.Fatalf("partial-failure query took %v, want bounded by deadlines", elapsed)
	}
	if r.Answered != 2 || r.Complete {
		t.Fatalf("want 2/4 answered, got: %s", r.Summary())
	}
	for _, site := range []string{"h0", "h1"} {
		o := r.Outcome(site)
		if o == nil || o.Status != StatusOK || o.Data == nil || o.Data.Site != site {
			t.Fatalf("healthy site %s lost its result: %+v", site, o)
		}
	}
	if o := r.Outcome("dead"); o.Status != StatusTimeout || o.Err == nil {
		t.Fatalf("blackholed site annotation: %+v", o)
	} else if !IsTimeout(o.Err) {
		t.Fatalf("blackholed site error not a timeout: %v", o.Err)
	}
	if o := r.Outcome("sick"); o.Status != StatusError || !errors.Is(o.Err, ErrInjected) {
		t.Fatalf("erroring site annotation: %+v", o)
	}
	if r.TimedOut != 1 || r.Errored != 1 {
		t.Fatalf("tallies: %s", r.Summary())
	}
}

// TestSiteOutcomeElapsed pins per-site timing through the seeded chaos
// transport: a site with injected latency reports at least that latency,
// and a fast-failing site still reports a non-zero time.
func TestSiteOutcomeElapsed(t *testing.T) {
	const lag = 20 * time.Millisecond
	chaos := NewChaosTransport(newMockTransport(alwaysOK), 11)
	chaos.SetSiteFaults("slow", SiteFaults{Latency: lag})
	chaos.SetSiteFaults("sick", SiteFaults{ErrorRate: 1})
	e := New(chaos, quietConfig())

	r := e.Query(context.Background(), []string{"slow", "sick"}, perfdata.Query{})
	if o := r.Outcome("slow"); o.Status != StatusOK || o.Elapsed < lag {
		t.Errorf("slow site: status %v, elapsed %v; want ok and >= %v", o.Status, o.Elapsed, lag)
	}
	if o := r.Outcome("sick"); o.Status != StatusError || o.Elapsed <= 0 {
		t.Errorf("erroring site: status %v, elapsed %v; want an error and > 0", o.Status, o.Elapsed)
	}
}

// TestRetryBudgetExactCounts pins the retry-storm bound: a wave of B
// queries against a fleet with one dead site consumes exactly
// min(budget, maxAttempts-1) extra attempts per query on the dead site
// and exactly one attempt per healthy site — never more.
func TestRetryBudgetExactCounts(t *testing.T) {
	mt := newMockTransport(func(ctx context.Context, site string, call int) (*SiteData, error) {
		if site == "dead" {
			return nil, &SiteError{Site: site, Cause: fmt.Errorf("connection refused"), Retryable: true}
		}
		return okData(site), nil
	})
	cfg := quietConfig()
	cfg.RetryBudget = 2
	cfg.MaxAttemptsPerSite = 3
	cfg.Backoff.Base = time.Millisecond
	cfg.Backoff.Max = 2 * time.Millisecond
	e := New(mt, cfg)

	sites := []string{"h0", "dead", "h1", "h2"}
	const waves = 5
	for w := 0; w < waves; w++ {
		r := e.Query(context.Background(), sites, perfdata.Query{})
		if r.Answered != 3 {
			t.Fatalf("wave %d: %s", w, r.Summary())
		}
		o := r.Outcome("dead")
		if o.Status != StatusError || o.Attempts != 3 || o.Retries != 2 {
			t.Fatalf("wave %d dead-site outcome: attempts=%d retries=%d status=%s",
				w, o.Attempts, o.Retries, o.Status)
		}
	}
	// Exact call accounting across the wave: healthy sites one call per
	// query, the dead site 1 + budget per query.
	for _, site := range []string{"h0", "h1", "h2"} {
		if got := mt.count(site); got != waves {
			t.Fatalf("healthy site %s saw %d calls, want %d", site, got, waves)
		}
	}
	if got := mt.count("dead"); got != waves*3 {
		t.Fatalf("dead site saw %d calls, want %d (1 + budget per query)", got, waves*3)
	}
	if s := e.Stats(); s.Retries != waves*2 || s.Hedges != 0 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestRetryBudgetSharedAcrossSites pins that the budget is per query, not
// per site: two dead sites competing for a budget of 1 spend exactly one
// extra attempt between them.
func TestRetryBudgetSharedAcrossSites(t *testing.T) {
	mt := newMockTransport(func(ctx context.Context, site string, call int) (*SiteData, error) {
		return nil, &SiteError{Site: site, Cause: errors.New("down"), Retryable: true}
	})
	cfg := quietConfig()
	cfg.RetryBudget = 1
	cfg.MaxAttemptsPerSite = 5
	cfg.Backoff.Base = time.Millisecond
	cfg.Backoff.Max = 2 * time.Millisecond
	e := New(mt, cfg)

	r := e.Query(context.Background(), []string{"d0", "d1"}, perfdata.Query{})
	total := mt.count("d0") + mt.count("d1")
	if total != 3 {
		t.Fatalf("two dead sites, budget 1: %d total attempts, want 3 (2 first + 1 retry); report: %s",
			total, r.Summary())
	}
}

// TestHedgeCancelsLoser pins hedged-request semantics: a slow primary is
// raced by a hedge after the configured delay, the hedge's answer wins,
// and the loser's context is cancelled.
func TestHedgeCancelsLoser(t *testing.T) {
	mt := newMockTransport(func(ctx context.Context, site string, call int) (*SiteData, error) {
		if call == 0 {
			// Slow primary: parks until cancelled.
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return okData(site), nil
	})
	cfg := quietConfig()
	cfg.DisableHedging = false
	cfg.HedgeDelay = 20 * time.Millisecond
	cfg.RetryBudget = 1 // hedges draw from the budget
	e := New(mt, cfg)

	r := e.Query(context.Background(), []string{"s"}, perfdata.Query{})
	o := r.Outcome("s")
	if o.Status != StatusOK || !o.Hedged || !o.HedgeWon || o.Attempts != 2 {
		t.Fatalf("hedged outcome: %+v", o)
	}
	// The losing primary's context must have been cancelled by the win.
	primary := mt.callCtx("s", 0)
	select {
	case <-primary.Done():
	case <-time.After(time.Second):
		t.Fatal("losing arm's context was never cancelled")
	}
	if s := e.Stats(); s.Hedges != 1 || s.HedgeWins != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestHedgeRequiresBudget pins that hedges spend the shared budget: with
// nothing left, no hedge fires even after the delay.
func TestHedgeRequiresBudget(t *testing.T) {
	released := make(chan struct{})
	mt := newMockTransport(func(ctx context.Context, site string, call int) (*SiteData, error) {
		if call == 0 {
			<-released
			return okData(site), nil
		}
		return okData(site), nil
	})
	cfg := quietConfig()
	cfg.DisableHedging = false
	cfg.HedgeDelay = 5 * time.Millisecond
	cfg.RetryBudget = -1 // explicitly empty
	e := New(mt, cfg)

	done := make(chan *Report, 1)
	go func() { done <- e.Query(context.Background(), []string{"s"}, perfdata.Query{}) }()
	// Give the hedge timer ample time to fire (and be denied).
	time.Sleep(50 * time.Millisecond)
	close(released)
	r := <-done
	o := r.Outcome("s")
	if o.Status != StatusOK || o.Hedged || o.Attempts != 1 {
		t.Fatalf("no-budget outcome: %+v", o)
	}
	if mt.count("s") != 1 {
		t.Fatalf("transport saw %d calls, want 1", mt.count("s"))
	}
}

// TestHedgeDelayFromEWMA pins the adaptive path: with no fixed delay
// configured, the first call (no samples) is never hedged; once a latency
// baseline exists, a straggling call is.
func TestHedgeDelayFromEWMA(t *testing.T) {
	var mu sync.Mutex
	slow := false
	mt := newMockTransport(func(ctx context.Context, site string, call int) (*SiteData, error) {
		mu.Lock()
		s := slow
		mu.Unlock()
		if s && call == 1 {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return okData(site), nil
	})
	cfg := quietConfig()
	cfg.DisableHedging = false
	cfg.HedgeDelay = 0 // derive from EWMA
	cfg.HedgeMinDelay = 5 * time.Millisecond
	cfg.RetryBudget = 2
	e := New(mt, cfg)

	r := e.Query(context.Background(), []string{"s"}, perfdata.Query{})
	if o := r.Outcome("s"); o.Status != StatusOK || o.Hedged {
		t.Fatalf("first call (no latency baseline) hedged: %+v", o)
	}

	mu.Lock()
	slow = true
	mu.Unlock()
	r = e.Query(context.Background(), []string{"s"}, perfdata.Query{})
	o := r.Outcome("s")
	if o.Status != StatusOK || !o.Hedged || !o.HedgeWon {
		t.Fatalf("straggler with baseline not hedged: %+v", o)
	}
}

// TestBreakerTripsInEngine pins breaker integration: a persistently
// failing site trips after the threshold, later queries skip it outright
// (StatusTripped, zero transport calls), and healthy sites are untouched.
func TestBreakerTripsInEngine(t *testing.T) {
	mt := newMockTransport(func(ctx context.Context, site string, call int) (*SiteData, error) {
		if site == "dead" {
			return nil, &SiteError{Site: site, Cause: errors.New("down"), Retryable: true}
		}
		return okData(site), nil
	})
	cfg := quietConfig()
	cfg.DisableBreaker = false
	cfg.Breaker = BreakerConfig{FailureThreshold: 2, OpenTimeout: time.Hour}
	cfg.RetryBudget = -1 // one attempt per query; trips on the 2nd query
	e := New(mt, cfg)

	sites := []string{"dead", "ok"}
	for i := 0; i < 2; i++ {
		r := e.Query(context.Background(), sites, perfdata.Query{})
		if o := r.Outcome("dead"); o.Status != StatusError {
			t.Fatalf("query %d dead-site status: %+v", i, o)
		}
	}
	if e.BreakerState("dead") != BreakerOpen {
		t.Fatalf("breaker state after threshold failures: %v", e.BreakerState("dead"))
	}
	callsBefore := mt.count("dead")
	r := e.Query(context.Background(), sites, perfdata.Query{})
	o := r.Outcome("dead")
	if o.Status != StatusTripped || !errors.Is(o.Err, ErrSiteTripped) || o.Attempts != 0 {
		t.Fatalf("tripped-site outcome: %+v", o)
	}
	if mt.count("dead") != callsBefore {
		t.Fatal("tripped site still received a transport call")
	}
	if ro := r.Outcome("ok"); ro.Status != StatusOK {
		t.Fatalf("healthy site disturbed by neighbor's breaker: %+v", ro)
	}
	if r.Tripped != 1 {
		t.Fatalf("report tallies: %s", r.Summary())
	}
	if s := e.Stats(); s.Tripped != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestBreakerRecoversThroughProbe pins the half-open path end to end: an
// open breaker admits a single probe after the window, and a probe
// success re-closes the site for normal traffic.
func TestBreakerRecoversThroughProbe(t *testing.T) {
	var mu sync.Mutex
	healthy := false
	mt := newMockTransport(func(ctx context.Context, site string, call int) (*SiteData, error) {
		mu.Lock()
		h := healthy
		mu.Unlock()
		if !h {
			return nil, &SiteError{Site: site, Cause: errors.New("down"), Retryable: true}
		}
		return okData(site), nil
	})
	cfg := quietConfig()
	cfg.DisableBreaker = false
	cfg.Breaker = BreakerConfig{FailureThreshold: 1, OpenTimeout: 20 * time.Millisecond}
	cfg.RetryBudget = -1
	e := New(mt, cfg)

	sites := []string{"s"}
	if r := e.Query(context.Background(), sites, perfdata.Query{}); r.Outcome("s").Status != StatusError {
		t.Fatal("first query should have errored")
	}
	if e.BreakerState("s") != BreakerOpen {
		t.Fatalf("breaker not open: %v", e.BreakerState("s"))
	}
	mu.Lock()
	healthy = true
	mu.Unlock()
	time.Sleep(30 * time.Millisecond) // let the open window lapse

	r := e.Query(context.Background(), sites, perfdata.Query{})
	o := r.Outcome("s")
	if o.Status != StatusOK || !o.Probe {
		t.Fatalf("probe query outcome: %+v", o)
	}
	if e.BreakerState("s") != BreakerClosed {
		t.Fatalf("breaker not re-closed after probe success: %v", e.BreakerState("s"))
	}
	if r := e.Query(context.Background(), sites, perfdata.Query{}); r.Outcome("s").Probe {
		t.Fatal("post-recovery query still flagged as probe")
	}
}

// TestQueryNeverHangsOnMisbehavingTransport pins the worst case: a
// transport that ignores its context entirely. The engine must still
// resolve the site within the per-attempt deadline envelope.
func TestQueryNeverHangsOnMisbehavingTransport(t *testing.T) {
	mt := newMockTransport(func(ctx context.Context, site string, call int) (*SiteData, error) {
		time.Sleep(3 * time.Second) // deaf to ctx
		return okData(site), nil
	})
	cfg := quietConfig()
	cfg.PerSiteTimeout = 80 * time.Millisecond
	cfg.MaxAttemptsPerSite = 1
	e := New(mt, cfg)

	start := time.Now()
	r := e.Query(context.Background(), []string{"deaf"}, perfdata.Query{})
	elapsed := time.Since(start)
	if elapsed > time.Second {
		t.Fatalf("query against ctx-deaf transport took %v", elapsed)
	}
	if o := r.Outcome("deaf"); o.Status != StatusTimeout {
		t.Fatalf("outcome: %+v", o)
	}
}

// TestQueryTimeoutBoundsWholeFanOut pins the query-wide deadline: even
// with generous per-site settings, QueryTimeout caps the whole call.
func TestQueryTimeoutBoundsWholeFanOut(t *testing.T) {
	mt := newMockTransport(func(ctx context.Context, site string, call int) (*SiteData, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	cfg := quietConfig()
	cfg.PerSiteTimeout = 10 * time.Second
	cfg.QueryTimeout = 60 * time.Millisecond
	e := New(mt, cfg)

	start := time.Now()
	r := e.Query(context.Background(), []string{"a", "b"}, perfdata.Query{})
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("query outlived QueryTimeout: %v", elapsed)
	}
	for _, o := range r.Outcomes {
		if o.Status != StatusTimeout {
			t.Fatalf("outcome under query timeout: %+v", o)
		}
	}
}

// TestConcurrentQueriesRace exercises shared engine state (breakers,
// EWMAs, stats) from many concurrent queries — a -race canary.
func TestConcurrentQueriesRace(t *testing.T) {
	inner := newMockTransport(alwaysOK)
	chaos := NewChaosTransport(inner, 5)
	chaos.SetSiteFaults("flaky", SiteFaults{ErrorRate: 0.3, Latency: time.Millisecond})
	cfg := Config{
		PerSiteTimeout: 200 * time.Millisecond,
		RetryBudget:    2,
		HedgeDelay:     50 * time.Millisecond,
		Breaker:        BreakerConfig{FailureThreshold: 4, OpenTimeout: 10 * time.Millisecond},
	}
	cfg.Backoff.Base = time.Millisecond
	e := New(chaos, cfg)

	sites := []string{"s0", "flaky", "s1"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				r := e.Query(context.Background(), sites, perfdata.Query{})
				for _, site := range []string{"s0", "s1"} {
					if o := r.Outcome(site); o.Status != StatusOK {
						t.Errorf("healthy site %s: %+v", site, o)
					}
				}
			}
		}()
	}
	wg.Wait()
}
