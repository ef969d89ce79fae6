// Package federation implements PPerfGrid's multi-site scatter-gather
// layer: the robustness subsystem that turns "compare heterogeneous
// performance stores regardless of location" (section 7 of the paper)
// from a fair-weather demo into something that survives slow, flaky, and
// dead sites.
//
// The Engine fans a getPR query out to N sites concurrently and applies,
// per site:
//
//   - a per-attempt deadline, propagated as context cancellation down
//     through client → stub → container dispatch (an abandoned request
//     is turned away before it consumes a server worker slot);
//   - hedged requests: when an attempt outlives an EWMA-p99-informed
//     delay, a second identical request races it and the loser is
//     cancelled;
//   - exponential-backoff-with-jitter retries, drawn from a retry budget
//     shared by the whole query (one sick site cannot amplify a fan-out
//     into a retry storm);
//   - a closed/open/half-open circuit breaker in site selection:
//     persistently failing sites are skipped outright and re-admitted
//     through single probe calls.
//
// The merge layer never fails all-or-nothing: a Report carries results
// from every site that answered next to explicit per-site annotations —
// answered, timed out, errored, tripped, hedged — so callers degrade
// gracefully and visibly. With no faults, a federated query is
// byte-identical to sequential per-site collection (the differential
// oracle the tests pin); the seeded chaos transport in chaos.go injects
// deterministic latency, errors, blackholes, and slow drips to prove the
// failure-path claims.
package federation

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pperfgrid/internal/federation/backoff"
	"pperfgrid/internal/perfdata"
)

// Config tunes the scatter-gather engine.
type Config struct {
	// PerSiteTimeout bounds each attempt against one site (connection,
	// query fan-out within the site, and response). 0 means 2 s.
	PerSiteTimeout time.Duration
	// QueryTimeout bounds the whole federated query. 0 means no limit
	// beyond the caller's context.
	QueryTimeout time.Duration
	// RetryBudget is the number of extra attempts — retries plus hedges
	// combined — one query may spend across all its sites. 0 means 3;
	// negative disables extra attempts entirely.
	RetryBudget int
	// MaxAttemptsPerSite caps attempts against one site, the first
	// included. 0 means 3.
	MaxAttemptsPerSite int
	// HedgeDelay fixes the hedge delay. 0 derives it per site from the
	// latency EWMA (mean + 3*MAD, a p99-ish bound), clamped to
	// [HedgeMinDelay, PerSiteTimeout/2]; until a site has a latency
	// sample, it is not hedged at all.
	HedgeDelay time.Duration
	// HedgeMinDelay floors the derived hedge delay. 0 means 1 ms.
	HedgeMinDelay time.Duration
	// DisableHedging turns hedged requests off.
	DisableHedging bool
	// DisableBreaker turns the per-site circuit breaker off (tests that
	// pin exact attempt counts use this).
	DisableBreaker bool
	// Backoff schedules the delay before each retry; the zero value is
	// backoff.Default().
	Backoff backoff.Policy
	// Breaker tunes the per-site circuit breaker.
	Breaker BreakerConfig
}

func (c Config) withDefaults() Config {
	if c.PerSiteTimeout <= 0 {
		c.PerSiteTimeout = 2 * time.Second
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 3
	}
	if c.RetryBudget < 0 {
		c.RetryBudget = 0
	}
	if c.MaxAttemptsPerSite <= 0 {
		c.MaxAttemptsPerSite = 3
	}
	if c.HedgeMinDelay <= 0 {
		c.HedgeMinDelay = time.Millisecond
	}
	c.Backoff = c.Backoff.WithDefaults()
	return c
}

// Status is a site's outcome classification in a Report.
type Status string

const (
	// StatusOK: the site answered.
	StatusOK Status = "ok"
	// StatusTimeout: every admitted attempt ran out of deadline.
	StatusTimeout Status = "timeout"
	// StatusError: the site kept failing (or failed unretryably).
	StatusError Status = "error"
	// StatusTripped: the circuit breaker was open; no attempt was made.
	StatusTripped Status = "tripped"
)

// SiteOutcome annotates one site's part in a federated query — the
// explicit partial-failure contract: which sites answered, which timed
// out, errored, or were skipped by their breaker, and how much extra
// work (retries, hedges) each one cost.
type SiteOutcome struct {
	Site     string
	Status   Status
	Err      error // nil iff Status == StatusOK
	Attempts int   // requests actually launched, hedges included
	Retries  int   // sequential re-attempts after failures
	Hedged   bool  // a hedge was launched
	HedgeWon bool  // ... and it beat the primary
	Probe    bool  // the (final) attempt was a half-open breaker probe
	Elapsed  time.Duration
	Data     *SiteData // non-nil iff Status == StatusOK
}

// Report is a federated query's merged outcome.
type Report struct {
	Outcomes []SiteOutcome // in the caller's site order
	Answered int
	TimedOut int
	Errored  int
	Tripped  int
	Complete bool // every site answered
	Elapsed  time.Duration
}

// Data returns the answered sites' data, in the caller's site order —
// the merge layer's partial-result view.
func (r *Report) Data() []*SiteData {
	out := make([]*SiteData, 0, r.Answered)
	for _, o := range r.Outcomes {
		if o.Status == StatusOK {
			out = append(out, o.Data)
		}
	}
	return out
}

// Outcome returns one site's annotation, or nil.
func (r *Report) Outcome(site string) *SiteOutcome {
	for i := range r.Outcomes {
		if r.Outcomes[i].Site == site {
			return &r.Outcomes[i]
		}
	}
	return nil
}

// Summary renders a one-line annotation digest.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d/%d sites answered in %v", r.Answered, len(r.Outcomes), r.Elapsed.Round(time.Microsecond))
	for _, o := range r.Outcomes {
		if o.Status == StatusOK && !o.Hedged && o.Retries == 0 {
			continue
		}
		fmt.Fprintf(&b, "; %s=%s", o.Site, o.Status)
		if o.Retries > 0 {
			fmt.Fprintf(&b, "(+%d retries)", o.Retries)
		}
		if o.Hedged {
			b.WriteString("(hedged")
			if o.HedgeWon {
				b.WriteString(", hedge won")
			}
			b.WriteString(")")
		}
	}
	return b.String()
}

// Stats counts the engine's lifetime activity.
type Stats struct {
	Queries   int64
	Attempts  int64
	Hedges    int64
	HedgeWins int64
	Retries   int64
	Tripped   int64
	// Overloads counts attempts answered with a typed overload shed —
	// the site's admission control turning the request away with a
	// Retry-After hint the retry loop then honors.
	Overloads int64
}

// Engine is the scatter-gather query engine. Safe for concurrent use;
// per-site health (breaker state, latency EWMA) is shared across queries.
type Engine struct {
	cfg       Config
	transport Transport

	mu    sync.Mutex
	sites map[string]*siteHealth

	queries   atomic.Int64
	attempts  atomic.Int64
	hedges    atomic.Int64
	hedgeWins atomic.Int64
	retries   atomic.Int64
	tripped   atomic.Int64
	overloads atomic.Int64
}

// New creates an engine over a transport.
func New(transport Transport, cfg Config) *Engine {
	return &Engine{cfg: cfg.withDefaults(), transport: transport, sites: make(map[string]*siteHealth)}
}

// Transport returns the engine's transport.
func (e *Engine) Transport() Transport { return e.transport }

// Stats returns lifetime counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Queries:   e.queries.Load(),
		Attempts:  e.attempts.Load(),
		Hedges:    e.hedges.Load(),
		HedgeWins: e.hedgeWins.Load(),
		Retries:   e.retries.Load(),
		Tripped:   e.tripped.Load(),
		Overloads: e.overloads.Load(),
	}
}

// BreakerState reports a site's breaker position (closed for unknown
// sites — they have not failed yet).
func (e *Engine) BreakerState(site string) BreakerState {
	e.mu.Lock()
	h := e.sites[site]
	e.mu.Unlock()
	if h == nil {
		return BreakerClosed
	}
	return h.breaker.State()
}

// health returns (creating on first use) a site's health record.
func (e *Engine) health(site string) *siteHealth {
	e.mu.Lock()
	defer e.mu.Unlock()
	h := e.sites[site]
	if h == nil {
		h = &siteHealth{breaker: NewBreaker(e.cfg.Breaker)}
		e.sites[site] = h
	}
	return h
}

// Query fans q out to the named sites concurrently and merges the
// per-site outcomes. It never fails all-or-nothing and never hangs: every
// site resolves to an annotated outcome within the configured deadlines,
// and results from healthy sites are returned no matter how many others
// are down.
func (e *Engine) Query(ctx context.Context, sites []string, q perfdata.Query) *Report {
	e.queries.Add(1)
	start := time.Now()
	if e.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.cfg.QueryTimeout)
		defer cancel()
	}
	budget := newRetryBudget(e.cfg.RetryBudget)
	report := &Report{Outcomes: make([]SiteOutcome, len(sites))}
	var wg sync.WaitGroup
	for i, site := range sites {
		wg.Add(1)
		go func(i int, site string) {
			defer wg.Done()
			report.Outcomes[i] = e.querySite(ctx, site, q, budget)
		}(i, site)
	}
	wg.Wait()
	for _, o := range report.Outcomes {
		switch o.Status {
		case StatusOK:
			report.Answered++
		case StatusTimeout:
			report.TimedOut++
		case StatusError:
			report.Errored++
		case StatusTripped:
			report.Tripped++
		}
	}
	report.Complete = report.Answered == len(sites)
	report.Elapsed = time.Since(start)
	return report
}

// querySite runs one site's retry loop: breaker admission, attempts with
// per-attempt deadlines and hedging, backoff between retries, all under
// the query-wide retry budget.
func (e *Engine) querySite(ctx context.Context, site string, q perfdata.Query, budget *retryBudget) (out SiteOutcome) {
	out = SiteOutcome{Site: site, Status: StatusError}
	h := e.health(site)
	start := time.Now()
	defer func() { out.Elapsed = time.Since(start) }()
	for attempt := 0; ; attempt++ {
		probe := false
		if !e.cfg.DisableBreaker {
			var ok bool
			probe, ok = h.breaker.Allow()
			if !ok {
				e.tripped.Add(1)
				out.Status = StatusTripped
				out.Err = &SiteError{Site: site, Cause: ErrSiteTripped}
				return out
			}
		}
		out.Probe = probe
		data, err := e.attempt(ctx, h, site, q, probe, budget, &out)
		if err == nil {
			out.Status = StatusOK
			out.Data = data
			out.Err = nil
			return out
		}
		se := classify(site, err)
		out.Err = se
		if se.Timeout {
			out.Status = StatusTimeout
		} else {
			out.Status = StatusError
		}
		if se.Overloaded {
			e.overloads.Add(1)
		}
		if ctx.Err() != nil || !se.Retryable || attempt+1 >= e.cfg.MaxAttemptsPerSite || !budget.take() {
			return out
		}
		out.Retries++
		e.retries.Add(1)
		// An overload shed carries the server's own Retry-After hint —
		// retrying sooner than that is a wasted attempt against a site
		// that already said "not yet", so the hint overrides the generic
		// schedule when it asks for a longer wait.
		var slept bool
		if se.Overloaded && se.RetryAfter > e.cfg.Backoff.Delay(attempt, nil) {
			slept = sleepUntil(se.RetryAfter, ctx.Done())
		} else {
			slept = e.cfg.Backoff.Sleep(attempt, nil, ctx.Done())
		}
		if !slept {
			out.Status = StatusTimeout
			out.Err = &SiteError{Site: site, Cause: ctx.Err(), Retryable: false, Timeout: true}
			return out
		}
	}
}

// sleepUntil waits d, returning early with false if done closes first.
func sleepUntil(d time.Duration, done <-chan struct{}) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-done:
		return false
	}
}

// armResult is one request arm's (primary or hedge) outcome.
type armResult struct {
	data    *SiteData
	err     error
	hedge   bool
	elapsed time.Duration
}

// attempt launches one deadline-bounded request against a site, hedging
// it with a second identical request if it outlives the hedge delay. The
// first arm to succeed wins and the loser's context is cancelled; the
// attempt fails only when every launched arm has failed (or the deadline
// expires). Breaker admission covers the whole attempt group: one
// Record per attempt, success if any arm succeeded.
func (e *Engine) attempt(ctx context.Context, h *siteHealth, site string, q perfdata.Query, probe bool, budget *retryBudget, out *SiteOutcome) (*SiteData, error) {
	actx, cancel := context.WithTimeout(ctx, e.cfg.PerSiteTimeout)
	defer cancel()

	ch := make(chan armResult, 2) // both arms can always deliver; no goroutine leak
	var cancels [2]context.CancelFunc
	launch := func(hedge bool) {
		armCtx, armCancel := context.WithCancel(actx)
		idx := 0
		if hedge {
			idx = 1
		}
		cancels[idx] = armCancel
		out.Attempts++
		e.attempts.Add(1)
		go func() {
			s := time.Now()
			data, err := e.transport.Do(armCtx, site, q)
			ch <- armResult{data: data, err: err, hedge: hedge, elapsed: time.Since(s)}
		}()
	}
	launch(false)

	var hedgeC <-chan time.Time
	if !e.cfg.DisableHedging && !probe {
		if d := e.hedgeDelay(h); d > 0 {
			t := time.NewTimer(d)
			defer t.Stop()
			hedgeC = t.C
		}
	}

	launched, failed := 1, 0
	var firstErr error
	win := func(r armResult) *SiteData {
		h.lat.Observe(r.elapsed)
		if !e.cfg.DisableBreaker {
			h.breaker.Record(probe, true)
		}
		if r.hedge {
			out.HedgeWon = true
			e.hedgeWins.Add(1)
		}
		for _, c := range cancels {
			if c != nil {
				c() // cancel the losing arm (the winner's is spent)
			}
		}
		return r.data
	}
	for {
		select {
		case r := <-ch:
			if r.err == nil {
				return win(r), nil
			}
			failed++
			if firstErr == nil {
				firstErr = r.err
			}
			if failed == launched {
				if !e.cfg.DisableBreaker {
					h.breaker.Record(probe, false)
				}
				return nil, firstErr
			}
		case <-hedgeC:
			hedgeC = nil
			if launched == 1 && budget.take() {
				out.Hedged = true
				e.hedges.Add(1)
				launch(true)
				launched = 2
			}
		case <-actx.Done():
			// The attempt deadline expired. Well-behaved transports unwind
			// through their contexts and deliver promptly, but the "never
			// a hang" guarantee cannot depend on that — give up now,
			// preferring any success already delivered.
			for {
				select {
				case r := <-ch:
					if r.err == nil {
						return win(r), nil
					}
					if firstErr == nil {
						firstErr = r.err
					}
					continue
				default:
				}
				break
			}
			if !e.cfg.DisableBreaker {
				h.breaker.Record(probe, false)
			}
			return nil, &SiteError{Site: site, Cause: actx.Err(), Retryable: true, Timeout: true}
		}
	}
}

// hedgeDelay picks the attempt's hedge delay: fixed when configured,
// otherwise EWMA-derived per site (0 = do not hedge yet).
func (e *Engine) hedgeDelay(h *siteHealth) time.Duration {
	if e.cfg.HedgeDelay > 0 {
		return e.cfg.HedgeDelay
	}
	return h.lat.HedgeDelay(e.cfg.HedgeMinDelay, e.cfg.PerSiteTimeout/2)
}

// retryBudget is a query-wide pool of extra attempts (retries and hedges
// combined). Shared across the fan-out so a single dead site cannot turn
// an N-site query into an attempt storm.
type retryBudget struct {
	left atomic.Int64
}

func newRetryBudget(n int) *retryBudget {
	b := &retryBudget{}
	b.left.Store(int64(n))
	return b
}

// take consumes one extra attempt if any remain.
func (b *retryBudget) take() bool {
	for {
		cur := b.left.Load()
		if cur <= 0 {
			return false
		}
		if b.left.CompareAndSwap(cur, cur-1) {
			return true
		}
	}
}

// remaining returns the unspent budget.
func (b *retryBudget) remaining() int64 { return b.left.Load() }
