package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"pperfgrid/internal/container"
	"pperfgrid/internal/datagen"
	"pperfgrid/internal/mapping"
	"pperfgrid/internal/perfdata"
)

// rsN builds a result list of n values with string fields sized for byte
// accounting tests.
func rsN(n int, v float64) []perfdata.Result {
	out := make([]perfdata.Result, n)
	for i := range out {
		out[i] = perfdata.Result{
			Metric: "func_calls", Focus: fmt.Sprintf("/Process/%d", i), Type: "vampir",
			Time: perfdata.TimeRange{Start: 0, End: 1}, Value: v,
		}
	}
	return out
}

func TestShardedPolicyScenarios(t *testing.T) {
	oneShard := func(policy string, capacity int) *Cache {
		return NewCacheFromConfig(CacheConfig{Policy: policy, MaxEntries: capacity, Shards: 1})
	}
	t.Run("lru evicts least recent", func(t *testing.T) {
		c := oneShard("lru", 2)
		c.Put("a", rs(1), 0)
		c.Put("b", rs(2), 0)
		c.Get("a")
		c.Put("c", rs(3), 0)
		if _, ok := c.Get("b"); ok {
			t.Error("b should have been evicted")
		}
		if _, ok := c.Get("a"); !ok {
			t.Error("a should have survived")
		}
	})
	t.Run("lfu evicts least frequent", func(t *testing.T) {
		c := oneShard("lfu", 2)
		c.Put("hot", rs(1), 0)
		c.Put("cold", rs(2), 0)
		for i := 0; i < 5; i++ {
			c.Get("hot")
		}
		c.Put("new", rs(3), 0)
		if _, ok := c.Get("cold"); ok {
			t.Error("cold should have been evicted")
		}
		if _, ok := c.Get("hot"); !ok {
			t.Error("hot should have survived")
		}
	})
	t.Run("cost keeps expensive", func(t *testing.T) {
		c := oneShard("cost", 2)
		c.Put("cheap", rs(1), time.Millisecond)
		c.Put("expensive", rs(2), time.Minute)
		c.Put("new", rs(3), time.Second)
		if _, ok := c.Get("expensive"); !ok {
			t.Error("expensive entry evicted despite cost-aware policy")
		}
		if _, ok := c.Get("cheap"); ok {
			t.Error("cheap entry survived over expensive")
		}
	})
	t.Run("cost weighs uses", func(t *testing.T) {
		c := oneShard("cost", 2)
		c.Put("cheapHot", rs(1), time.Millisecond)
		// 2000 uses make the cheap entry worth ~2s of saved recomputation.
		for i := 0; i < 2000; i++ {
			c.Get("cheapHot")
		}
		c.Put("expensiveCold", rs(2), time.Second)
		c.Put("new", rs(3), time.Millisecond)
		if _, ok := c.Get("cheapHot"); !ok {
			t.Error("heavily used cheap entry evicted")
		}
	})
	t.Run("shards reported", func(t *testing.T) {
		c := NewCacheFromConfig(CacheConfig{Policy: "lru", Shards: 8})
		if got := c.Shards(); got != 8 {
			t.Errorf("shards = %d", got)
		}
		// Shard counts round down to a power of two and clamp to capacity.
		c = NewCacheFromConfig(CacheConfig{Policy: "lru", MaxEntries: 5, Shards: 16})
		if got := c.Shards(); got != 4 {
			t.Errorf("clamped shards = %d", got)
		}
	})
}

// cacheModel is the reference the differential test holds Cache to: one
// map, an O(n) victim scan (lowest score, oldest insertion first among
// ties), EntryFootprint byte accounting, and hit/miss/eviction counts.
// It models an entry-capacity cache with no byte budget.
type cacheModel struct {
	policy   string
	capacity int
	entries  map[string]*modelEntry
	clock    int64
	stats    CacheStats
}

type modelEntry struct {
	results []perfdata.Result
	wire    []byte
	cost    time.Duration
	uses    int64 // hits: the lfu and cost score input
	touched int64 // recency stamp: the lru score
	born    int64 // insertion stamp: the tie-break
}

func newCacheModel(policy string, capacity int) *cacheModel {
	return &cacheModel{policy: policy, capacity: capacity, entries: make(map[string]*modelEntry)}
}

func (m *cacheModel) tick() int64 {
	m.clock++
	return m.clock
}

func (m *cacheModel) score(e *modelEntry) int64 {
	switch m.policy {
	case "lfu":
		return e.uses
	case "cost":
		return int64(e.cost) * (1 + e.uses)
	default:
		return e.touched
	}
}

func (m *cacheModel) hit(e *modelEntry) {
	m.stats.Hits++
	e.uses++
	e.touched = m.tick()
}

func (m *cacheModel) Get(key string) ([]perfdata.Result, bool) {
	e, ok := m.entries[key]
	if !ok {
		m.stats.Misses++
		return nil, false
	}
	m.hit(e)
	return e.results, true
}

// GetWire counts a hit only when wire is attached; absence is no miss.
func (m *cacheModel) GetWire(key string) ([]byte, bool) {
	e, ok := m.entries[key]
	if !ok || e.wire == nil {
		return nil, false
	}
	m.hit(e)
	return e.wire, true
}

func (m *cacheModel) AttachWire(key string, wire []byte) {
	if e, ok := m.entries[key]; ok {
		e.wire = wire
	}
}

// Put overwrites in place (dropping the wire, keeping the use count) or
// inserts after evicting the lowest-score entry from a full cache.
func (m *cacheModel) Put(key string, results []perfdata.Result, cost time.Duration) {
	if e, ok := m.entries[key]; ok {
		e.results, e.wire, e.cost, e.touched = results, nil, cost, m.tick()
		return
	}
	if m.capacity > 0 && len(m.entries) >= m.capacity {
		var victim string
		var v *modelEntry
		for k, e := range m.entries {
			if v == nil || m.score(e) < m.score(v) || (m.score(e) == m.score(v) && e.born < v.born) {
				victim, v = k, e
			}
		}
		delete(m.entries, victim)
		m.stats.Evictions++
	}
	now := m.tick()
	m.entries[key] = &modelEntry{results: results, cost: cost, touched: now, born: now}
}

func (m *cacheModel) SizeBytes() int64 {
	var n int64
	for k, e := range m.entries {
		n += EntryFootprint(k, e.results, e.wire)
	}
	return n
}

// TestCacheDifferentialVsModel drives a single-shard Cache and cacheModel
// through the same randomized operation sequence and pins identical
// hit/miss outcomes, results, entry counts, byte accounting, and stats
// after every operation, for every policy.
func TestCacheDifferentialVsModel(t *testing.T) {
	for _, policy := range []string{"lru", "lfu", "cost"} {
		for _, capacity := range []int{2, 5, 16} {
			t.Run(fmt.Sprintf("%s/cap=%d", policy, capacity), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(42 + capacity)))
				model := newCacheModel(policy, capacity)
				c := NewCacheFromConfig(CacheConfig{Policy: policy, MaxEntries: capacity, Shards: 1})
				keys := make([]string, 24)
				for i := range keys {
					keys[i] = fmt.Sprintf("metric%d|/Process/%d|UNDEFINED|0.0-1.0", i, i)
				}
				for op := 0; op < 4000; op++ {
					k := keys[rng.Intn(len(keys))]
					switch rng.Intn(10) {
					case 0, 1, 2: // Put with a distinct cost per op
						payload := rsN(1+rng.Intn(4), float64(op))
						cost := time.Duration(op*7919 + 1)
						model.Put(k, payload, cost)
						c.Put(k, payload, cost)
					case 3: // AttachWire
						wire := make([]byte, 8+rng.Intn(64))
						model.AttachWire(k, wire)
						c.AttachWire(k, wire)
					case 4: // GetWire
						_, a := model.GetWire(k)
						_, b := c.GetWire(k)
						if a != b {
							t.Fatalf("op %d: GetWire(%q) diverged: model=%v cache=%v", op, k, a, b)
						}
					default: // Get
						ra, a := model.Get(k)
						rb, b := c.Get(k)
						if a != b {
							t.Fatalf("op %d: Get(%q) diverged: model=%v cache=%v", op, k, a, b)
						}
						if a && !reflect.DeepEqual(ra, rb) {
							t.Fatalf("op %d: Get(%q) results diverged", op, k)
						}
					}
					if len(model.entries) != c.Len() {
						t.Fatalf("op %d: Len diverged: model=%d cache=%d", op, len(model.entries), c.Len())
					}
					if model.SizeBytes() != c.SizeBytes() {
						t.Fatalf("op %d: SizeBytes diverged: model=%d cache=%d", op, model.SizeBytes(), c.SizeBytes())
					}
					if ms, cs := model.stats, c.Stats(); ms != cs {
						t.Fatalf("op %d: stats diverged: model=%+v cache=%+v", op, ms, cs)
					}
				}
			})
		}
	}
}

// TestCacheByteBudget pins the byte-budget invariant: across every policy
// and shard layout, the total footprint of cached entries — decoded
// results plus attached wire envelopes — never exceeds the configured
// budget, under randomized Put/Get/AttachWire traffic.
func TestCacheByteBudget(t *testing.T) {
	const budget = 64 << 10
	for _, policy := range []string{"lru", "lfu", "cost"} {
		for _, shards := range []int{1, 4, 16} {
			t.Run(fmt.Sprintf("%s/shards=%d", policy, shards), func(t *testing.T) {
				c := NewCacheFromConfig(CacheConfig{Policy: policy, MaxBytes: budget, Shards: shards})
				rng := rand.New(rand.NewSource(7))
				for op := 0; op < 3000; op++ {
					k := fmt.Sprintf("q%d|/Process/%d|vampir|0.0-1.0", rng.Intn(200), op%8)
					switch rng.Intn(4) {
					case 0:
						c.AttachWire(k, make([]byte, rng.Intn(2048)))
					case 1:
						c.Get(k)
					default:
						c.Put(k, rsN(1+rng.Intn(20), float64(op)), time.Duration(1+rng.Intn(1000)))
					}
					if got := c.SizeBytes(); got > budget {
						t.Fatalf("op %d: cached bytes %d exceed budget %d", op, got, budget)
					}
				}
				if c.Stats().Evictions == 0 {
					t.Error("workload never evicted; budget untested")
				}
			})
		}
	}
}

// TestCacheByteBudgetOversized: an entry that alone exceeds the budget is
// not cached, and an envelope that cannot fit next to its results is
// dropped while the decoded results stay cached.
func TestCacheByteBudgetOversized(t *testing.T) {
	small := rsN(2, 1)
	budget := EntryFootprint("k", small, nil) + 128
	c := NewCacheFromConfig(CacheConfig{Policy: "lru", MaxBytes: budget, Shards: 1})

	c.Put("huge", rsN(1000, 1), time.Second)
	if _, ok := c.Get("huge"); ok {
		t.Error("oversized entry was cached")
	}
	c.Put("k", small, time.Second)
	if _, ok := c.Get("k"); !ok {
		t.Fatal("fitting entry not cached")
	}
	c.AttachWire("k", make([]byte, budget)) // cannot fit next to results
	if _, ok := c.GetWire("k"); ok {
		t.Error("unfittable wire envelope was attached")
	}
	if _, ok := c.Get("k"); !ok {
		t.Error("decoded results lost when wire attach was rejected")
	}
	c.AttachWire("k", make([]byte, 64)) // fits
	if _, ok := c.GetWire("k"); !ok {
		t.Error("fitting wire envelope not attached")
	}
	if got := c.SizeBytes(); got > budget {
		t.Errorf("bytes %d exceed budget %d", got, budget)
	}
}

// TestCacheByteBudgetOversizedDoesNotFlush: an addition that can never
// fit is refused up front — it must not evict the whole shard on its way
// to failing.
func TestCacheByteBudgetOversizedDoesNotFlush(t *testing.T) {
	payload := rsN(2, 1)
	budget := 4*EntryFootprint("k0", payload, nil) + 64
	for _, cfg := range []CacheConfig{
		{Policy: "lru", MaxBytes: budget, Shards: 1},
		// Both caps at once: the entry-count eviction must not fire for
		// a Put the byte budget can never store.
		{Policy: "lru", MaxBytes: budget, MaxEntries: 4, Shards: 1},
	} {
		c := NewCacheFromConfig(cfg)
		for i := 0; i < 4; i++ {
			c.Put(fmt.Sprintf("k%d", i), payload, time.Second)
		}
		if c.Len() != 4 {
			t.Fatalf("prefill Len = %d", c.Len())
		}
		c.Put("huge", rsN(1000, 1), time.Second) // exceeds the whole budget
		if c.Len() != 4 {
			t.Errorf("entries=%d: oversized Put flushed the shard: Len = %d", cfg.MaxEntries, c.Len())
		}
		c.AttachWire("k0", make([]byte, budget)) // can never fit next to k0
		if c.Len() != 4 {
			t.Errorf("entries=%d: oversized AttachWire flushed the shard: Len = %d", cfg.MaxEntries, c.Len())
		}
		if c.Stats().Evictions != 0 {
			t.Errorf("entries=%d: infeasible additions evicted %d entries", cfg.MaxEntries, c.Stats().Evictions)
		}
	}
}

// TestCacheByteBudgetEvictsForWire: attaching an envelope evicts other
// entries to make room but never the entry being attached to.
func TestCacheByteBudgetEvictsForWire(t *testing.T) {
	payload := rsN(4, 1)
	one := EntryFootprint("k0", payload, nil)
	budget := 3 * one
	c := NewCacheFromConfig(CacheConfig{Policy: "lru", MaxBytes: budget, Shards: 1})
	c.Put("k0", payload, time.Second)
	c.Put("k1", payload, time.Second)
	c.Put("k2", payload, time.Second)
	// k0 is the LRU victim candidate, but it is the attach target: room
	// must come from k1 instead.
	c.AttachWire("k0", make([]byte, int(one)))
	if _, ok := c.GetWire("k0"); !ok {
		t.Fatal("wire not attached")
	}
	if _, ok := c.getQuiet("k1"); ok {
		t.Error("expected k1 evicted to fit k0's envelope")
	}
	if got := c.SizeBytes(); got > budget {
		t.Errorf("bytes %d exceed budget %d", got, budget)
	}
}

// TestCacheStressConcurrent hammers the cache with concurrent readers,
// writers, wire attachments, and eviction churn under -race, and checks
// the capacity invariants afterwards.
func TestCacheStressConcurrent(t *testing.T) {
	const (
		capacity = 64
		budget   = 32 << 10
	)
	configs := []CacheConfig{
		{MaxEntries: capacity},
		{MaxBytes: budget},
		{MaxEntries: capacity, MaxBytes: budget},
	}
	for _, policy := range []string{"lru", "lfu", "cost"} {
		for _, base := range configs {
			cfg := base
			cfg.Policy = policy
			name := fmt.Sprintf("%s/entries=%d/bytes=%d/single=false", policy, cfg.MaxEntries, cfg.MaxBytes)
			t.Run(name, func(t *testing.T) {
				c := NewCacheFromConfig(cfg)
				var wg sync.WaitGroup
				for w := 0; w < 8; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(w)))
						for i := 0; i < 400; i++ {
							k := fmt.Sprintf("k%d", rng.Intn(128))
							switch rng.Intn(6) {
							case 0:
								c.Put(k, rsN(1+rng.Intn(8), float64(i)), time.Duration(1+rng.Intn(500)))
							case 1:
								c.AttachWire(k, make([]byte, rng.Intn(256)))
							case 2:
								c.GetWire(k)
							default:
								if _, ok := c.Get(k); !ok {
									c.Put(k, rsN(1, float64(i)), time.Duration(i+1))
								}
							}
						}
					}(w)
				}
				wg.Wait()
				if cfg.MaxEntries > 0 && c.Len() > cfg.MaxEntries {
					t.Errorf("entries %d exceed capacity %d", c.Len(), cfg.MaxEntries)
				}
				if cfg.MaxBytes > 0 && c.SizeBytes() > cfg.MaxBytes {
					t.Errorf("bytes %d exceed budget %d", c.SizeBytes(), cfg.MaxBytes)
				}
			})
		}
	}
}

// TestCacheResultAliasing pins the sharing contract: a result slice
// handed out by Get stays intact when its entry is evicted or replaced —
// paged cursors and clients hold those slices long after the lookup.
func TestCacheResultAliasing(t *testing.T) {
	// The subtest keeps the name it had beside the retired single-lock
	// cache, as TestCacheStressConcurrent's names do.
	t.Run("single=false", func(t *testing.T) {
		c := NewCache("lru", 1)
		original := rsN(4, 1)
		snapshot := make([]perfdata.Result, len(original))
		copy(snapshot, original)

		c.Put("k", original, time.Second)
		held, ok := c.Get("k")
		if !ok {
			t.Fatal("miss after Put")
		}
		c.Put("other", rsN(2, 2), time.Second) // evicts k (capacity 1)
		c.Put("k", rsN(4, 99), time.Second)    // re-inserts k with new results
		c.Put("k", rsN(1, -1), time.Second)    // overwrites in place
		if !reflect.DeepEqual(held, snapshot) {
			t.Errorf("held slice mutated by eviction/Put: %+v", held)
		}
		fresh, ok := c.Get("k")
		if !ok || len(fresh) != 1 || fresh[0].Value != -1 {
			t.Errorf("current entry wrong: %+v ok=%v", fresh, ok)
		}
	})
}

// TestExecutionCacheAccounting pins exact hit/miss counts for the three
// logical lookup sequences of the wire path — miss, wire hit, and a
// decoded-only hit that falls back from GetWire to Get — so no sequence
// is double-counted across the GetWire→Get fallback.
func TestExecutionCacheAccounting(t *testing.T) {
	d := datagen.HPL(datagen.HPLConfig{Executions: 4, Seed: 1})
	w := mapping.NewMemory(d)
	site, err := StartSite(SiteConfig{AppName: "HPL", Wrappers: []mapping.ApplicationWrapper{w}})
	if err != nil {
		t.Fatal(err)
	}
	defer site.Close()
	id := d.Execs[0].ID
	handles, err := site.Manager().ExecutionHandles([]string{id})
	if err != nil {
		t.Fatal(err)
	}
	stub, err := container.DialString(handles[0])
	if err != nil {
		t.Fatal(err)
	}
	svc := site.ExecutionServices(id)[0]
	q := perfdata.Query{Metric: "gflops", Time: perfdata.TimeRange{Start: 0, End: 1e9}, Type: "hpl"}
	wire := func() {
		t.Helper()
		if _, err := stub.Call(OpGetPR, q.WireParams()...); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(step string, hits, misses int64) {
		t.Helper()
		if s := svc.CacheStats(); s.Hits != hits || s.Misses != misses {
			t.Fatalf("%s: stats = %+v, want hits=%d misses=%d", step, s, hits, misses)
		}
	}

	wire() // cold: GetWire absent (uncounted), Get misses once
	expect("miss", 0, 1)
	wire() // wire hit: counted once inside GetWire
	expect("wire hit", 1, 1)
	wire()
	expect("second wire hit", 2, 1)
	if _, err := svc.PerformanceResults(q); err != nil { // local decoded hit
		t.Fatal(err)
	}
	expect("local hit", 3, 1)

	// A decoded-only entry (cached via the local path, never encoded):
	// the wire lookup falls back from GetWire to Get and counts one hit.
	q2 := perfdata.Query{Metric: "residual", Time: perfdata.TimeRange{Start: 0, End: 1e9}, Type: "hpl"}
	if _, err := svc.PerformanceResults(q2); err != nil {
		t.Fatal(err)
	}
	expect("local miss", 3, 2)
	if _, err := stub.Call(OpGetPR, q2.WireParams()...); err != nil {
		t.Fatal(err)
	}
	expect("decoded-only wire lookup", 4, 2)
	if _, err := stub.Call(OpGetPR, q2.WireParams()...); err != nil {
		t.Fatal(err)
	}
	expect("now a wire hit", 5, 2)
}

// TestShardedServiceData: the Execution service publishes byte and
// per-shard cache statistics for the sharded cache.
func TestShardedServiceData(t *testing.T) {
	d := datagen.HPL(datagen.HPLConfig{Executions: 1, Seed: 5})
	ew, _ := mapping.NewMemory(d).ExecutionWrapper("100")
	svc := NewExecutionService("100", ew, NewCacheFromConfig(CacheConfig{Policy: "cost", Shards: 4}), nil)
	tr, _ := svc.TimeStartEnd()
	q := perfdata.Query{Metric: "gflops", Time: tr, Type: "hpl"}
	if _, err := svc.PerformanceResults(q); err != nil {
		t.Fatal(err)
	}
	sd := svc.ServiceData()
	if sd["cacheShards"][0] != "4" {
		t.Errorf("cacheShards = %v", sd["cacheShards"])
	}
	if len(sd["cacheShardLoads"]) != 4 {
		t.Errorf("cacheShardLoads = %v", sd["cacheShardLoads"])
	}
	if sd["cacheBytes"][0] == "0" {
		t.Errorf("cacheBytes = %v after a fill", sd["cacheBytes"])
	}
	if sd["cacheEntries"][0] != "1" {
		t.Errorf("cacheEntries = %v", sd["cacheEntries"])
	}
}
