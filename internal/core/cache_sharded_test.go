package core

import (
	"fmt"
	"hash/maphash"
	"math/rand"
	"reflect"
	"sync"
	"testing"

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
	t.Run("lru evicts least recent", func(t *testing.T) {
		c := NewCacheFromConfig(CacheConfig{MaxEntries: 2, Shards: 1})
		c.Put("a", rs(1))
		c.Put("b", rs(2))
		c.Get("a")
		c.Put("c", rs(3))
		if _, ok := c.Get("b"); ok {
			t.Error("b should have been evicted")
		}
		if _, ok := c.Get("a"); !ok {
			t.Error("a should have survived")
		}
	})
	t.Run("shards reported", func(t *testing.T) {
		c := NewCacheFromConfig(CacheConfig{Shards: 8})
		if got := c.Shards(); got != 8 {
			t.Errorf("shards = %d", got)
		}
		// Shard counts round down to a power of two and clamp to capacity.
		c = NewCacheFromConfig(CacheConfig{MaxEntries: 5, Shards: 16})
		if got := c.Shards(); got != 4 {
			t.Errorf("clamped shards = %d", got)
		}
	})
}

// cacheModel is the reference the differential test holds Cache to: one
// map per shard, an O(n) least-recently-used victim scan, EntryFootprint
// byte accounting against floor(total/shards) budgets, and hit/miss/
// eviction counts. Keys route to shards with the cache's own hash; the
// model checks what each shard keeps, not where keys land.
type cacheModel struct {
	maxEntries int   // per shard; 0 = unbounded
	maxBytes   int64 // per shard; 0 = unbounded
	shardOf    func(string) int
	shards     []map[string]*modelEntry
	clock      int64
	stats      CacheStats
}

type modelEntry struct {
	results []perfdata.Result
	wire    []byte
	touched int64 // recency stamp
}

func newCacheModel(cfg CacheConfig, c *Cache) *cacheModel {
	n := c.Shards()
	m := &cacheModel{
		shardOf: func(k string) int { return int(maphash.String(c.seed, k) & c.mask) },
		shards:  make([]map[string]*modelEntry, n),
	}
	if cfg.MaxEntries > 0 {
		m.maxEntries = cfg.MaxEntries / n
	}
	if cfg.MaxBytes > 0 {
		m.maxBytes = cfg.MaxBytes / int64(n)
	}
	for i := range m.shards {
		m.shards[i] = make(map[string]*modelEntry)
	}
	return m
}

func (m *cacheModel) tick() int64 {
	m.clock++
	return m.clock
}

func (m *cacheModel) lookup(key string) (map[string]*modelEntry, *modelEntry) {
	s := m.shards[m.shardOf(key)]
	return s, s[key]
}

func (m *cacheModel) Get(key string) ([]perfdata.Result, bool) {
	_, e := m.lookup(key)
	if e == nil {
		m.stats.Misses++
		return nil, false
	}
	m.stats.Hits++
	e.touched = m.tick()
	return e.results, true
}

// GetWire counts a hit only when wire is attached; absence is no miss.
func (m *cacheModel) GetWire(key string) ([]byte, bool) {
	_, e := m.lookup(key)
	if e == nil || e.wire == nil {
		return nil, false
	}
	m.stats.Hits++
	e.touched = m.tick()
	return e.wire, true
}

func shardBytes(s map[string]*modelEntry) int64 {
	var n int64
	for k, e := range s {
		n += EntryFootprint(k, e.results, e.wire)
	}
	return n
}

// evictLRU drops the shard's least recently used entry other than keep;
// it reports false when there is none.
func (m *cacheModel) evictLRU(s map[string]*modelEntry, keep string) bool {
	victim := ""
	var v *modelEntry
	for k, e := range s {
		if k != keep && (v == nil || e.touched < v.touched) {
			victim, v = k, e
		}
	}
	if v == nil {
		return false
	}
	delete(s, victim)
	m.stats.Evictions++
	return true
}

// fits makes room for add more bytes in the shard by evicting LRU entries
// other than keep. An addition that cannot fit beside keep alone evicts
// nothing.
func (m *cacheModel) fits(s map[string]*modelEntry, add int64, keep string) bool {
	if m.maxBytes == 0 || shardBytes(s)+add <= m.maxBytes {
		return true
	}
	pinned := int64(0)
	if e := s[keep]; e != nil {
		pinned = EntryFootprint(keep, e.results, e.wire)
	}
	if pinned+add > m.maxBytes {
		return false
	}
	for shardBytes(s)+add > m.maxBytes && m.evictLRU(s, keep) {
	}
	return true
}

// Put overwrites in place (dropping the wire) or inserts after making
// room; an entry that alone exceeds the shard budget is not stored, and
// an overwrite that grows past it drops the entry as an eviction.
func (m *cacheModel) Put(key string, results []perfdata.Result) {
	s, e := m.lookup(key)
	if e != nil {
		e.results, e.wire, e.touched = results, nil, m.tick()
		if !m.fits(s, 0, key) {
			delete(s, key)
			m.stats.Evictions++
		}
		return
	}
	size := EntryFootprint(key, results, nil)
	if m.maxBytes > 0 && size > m.maxBytes {
		return
	}
	for m.maxEntries > 0 && len(s) >= m.maxEntries {
		m.evictLRU(s, "")
	}
	m.fits(s, size, "")
	s[key] = &modelEntry{results: results, touched: m.tick()}
}

// AttachWire replaces the entry's envelope when it fits beside the
// entry's results, evicting other entries for room; it never touches
// recency.
func (m *cacheModel) AttachWire(key string, wire []byte) {
	s, e := m.lookup(key)
	if e == nil {
		return
	}
	e.wire = nil
	if m.fits(s, int64(len(wire)), key) {
		e.wire = wire
	}
}

func (m *cacheModel) Invalidate() int {
	n := 0
	for i, s := range m.shards {
		n += len(s)
		m.shards[i] = make(map[string]*modelEntry)
	}
	return n
}

func (m *cacheModel) Len() int {
	n := 0
	for _, s := range m.shards {
		n += len(s)
	}
	return n
}

func (m *cacheModel) SizeBytes() int64 {
	var n int64
	for _, s := range m.shards {
		n += shardBytes(s)
	}
	return n
}

// TestCacheDifferentialVsModel drives a Cache and cacheModel through the
// same randomized operation sequence and pins identical hit/miss
// outcomes, results, entry counts, byte accounting, and stats after every
// operation — over entry budgets, byte budgets, both at once, and several
// shard counts.
func TestCacheDifferentialVsModel(t *testing.T) {
	payloadBytes := EntryFootprint("metric00|/Process/00|UNDEFINED|0.0-1.0", rsN(2, 0), nil)
	cases := []struct {
		name string
		cfg  CacheConfig
	}{
		{"lru/cap=2", CacheConfig{MaxEntries: 2, Shards: 1}},
		{"lru/cap=5", CacheConfig{MaxEntries: 5, Shards: 1}},
		{"lru/cap=16", CacheConfig{MaxEntries: 16, Shards: 1}},
		{"lru/cap=16/shards=4", CacheConfig{MaxEntries: 16, Shards: 4}},
		{"lru/bytes/shards=1", CacheConfig{MaxBytes: 6 * payloadBytes, Shards: 1}},
		{"lru/bytes/shards=2", CacheConfig{MaxBytes: 8 * payloadBytes, Shards: 2}},
		{"lru/bytes/shards=4", CacheConfig{MaxBytes: 12 * payloadBytes, Shards: 4}},
		{"lru/cap=8/bytes/shards=2", CacheConfig{MaxEntries: 8, MaxBytes: 6 * payloadBytes, Shards: 2}},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(42 + ci)))
			c := NewCacheFromConfig(tc.cfg)
			model := newCacheModel(tc.cfg, c)
			keys := make([]string, 24)
			for i := range keys {
				keys[i] = fmt.Sprintf("metric%02d|/Process/%02d|UNDEFINED|0.0-1.0", i, i)
			}
			for op := 0; op < 4000; op++ {
				k := keys[rng.Intn(len(keys))]
				switch r := rng.Intn(100); {
				case r < 30: // Put; an occasional oversized set tests refusal
					n := 1 + rng.Intn(4)
					if r == 0 {
						n = 200
					}
					payload := rsN(n, float64(op))
					model.Put(k, payload)
					c.Put(k, payload)
				case r < 40: // AttachWire; some envelopes cannot fit
					wire := make([]byte, 8+rng.Intn(int(payloadBytes)*2))
					model.AttachWire(k, wire)
					c.AttachWire(k, wire)
				case r < 50: // GetWire
					_, a := model.GetWire(k)
					_, b := c.GetWire(k)
					if a != b {
						t.Fatalf("op %d: GetWire(%q) diverged: model=%v cache=%v", op, k, a, b)
					}
				case r == 99: // Invalidate
					if a, b := model.Invalidate(), c.Invalidate(); a != b {
						t.Fatalf("op %d: Invalidate purged model=%d cache=%d", op, a, b)
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
				if model.Len() != c.Len() {
					t.Fatalf("op %d: Len diverged: model=%d cache=%d", op, model.Len(), c.Len())
				}
				if model.SizeBytes() != c.SizeBytes() {
					t.Fatalf("op %d: SizeBytes diverged: model=%d cache=%d", op, model.SizeBytes(), c.SizeBytes())
				}
				if ms, cs := model.stats, c.Stats(); ms != cs {
					t.Fatalf("op %d: stats diverged: model=%+v cache=%+v", op, ms, cs)
				}
			}
			if model.stats.Evictions == 0 {
				t.Error("workload never evicted; budget untested")
			}
		})
	}
}

// TestCacheByteBudget pins the byte-budget invariant: across shard
// layouts, the total footprint of cached entries — decoded
// results plus attached wire envelopes — never exceeds the configured
// budget, under randomized Put/Get/AttachWire traffic.
func TestCacheByteBudget(t *testing.T) {
	const budget = 64 << 10
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("lru/shards=%d", shards), func(t *testing.T) {
			c := NewCacheFromConfig(CacheConfig{MaxBytes: budget, Shards: shards})
			rng := rand.New(rand.NewSource(7))
			for op := 0; op < 3000; op++ {
				k := fmt.Sprintf("q%d|/Process/%d|vampir|0.0-1.0", rng.Intn(200), op%8)
				switch rng.Intn(4) {
				case 0:
					c.AttachWire(k, make([]byte, rng.Intn(2048)))
				case 1:
					c.Get(k)
				default:
					c.Put(k, rsN(1+rng.Intn(20), float64(op)))
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

// TestCacheByteBudgetOversized: an entry that alone exceeds the budget is
// not cached, and an envelope that cannot fit next to its results is
// dropped while the decoded results stay cached.
func TestCacheByteBudgetOversized(t *testing.T) {
	small := rsN(2, 1)
	budget := EntryFootprint("k", small, nil) + 128
	c := NewCacheFromConfig(CacheConfig{MaxBytes: budget, Shards: 1})

	c.Put("huge", rsN(1000, 1))
	if _, ok := c.Get("huge"); ok {
		t.Error("oversized entry was cached")
	}
	c.Put("k", small)
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
		{MaxBytes: budget, Shards: 1},
		// Both caps at once: the entry-count eviction must not fire for
		// a Put the byte budget can never store.
		{MaxBytes: budget, MaxEntries: 4, Shards: 1},
	} {
		c := NewCacheFromConfig(cfg)
		for i := 0; i < 4; i++ {
			c.Put(fmt.Sprintf("k%d", i), payload)
		}
		if c.Len() != 4 {
			t.Fatalf("prefill Len = %d", c.Len())
		}
		c.Put("huge", rsN(1000, 1)) // exceeds the whole budget
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
	c := NewCacheFromConfig(CacheConfig{MaxBytes: budget, Shards: 1})
	c.Put("k0", payload)
	c.Put("k1", payload)
	c.Put("k2", payload)
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
	for _, cfg := range configs {
		name := fmt.Sprintf("lru/entries=%d/bytes=%d/single=false", cfg.MaxEntries, cfg.MaxBytes)
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
							c.Put(k, rsN(1+rng.Intn(8), float64(i)))
						case 1:
							c.AttachWire(k, make([]byte, rng.Intn(256)))
						case 2:
							c.GetWire(k)
						default:
							if _, ok := c.Get(k); !ok {
								c.Put(k, rsN(1, float64(i)))
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

// TestCacheResultAliasing pins the sharing contract: a result slice
// handed out by Get stays intact when its entry is evicted or replaced —
// paged cursors and clients hold those slices long after the lookup.
func TestCacheResultAliasing(t *testing.T) {
	// The subtest keeps the name it had beside the retired single-lock
	// cache, as TestCacheStressConcurrent's names do.
	t.Run("single=false", func(t *testing.T) {
		c := NewCache(1)
		original := rsN(4, 1)
		snapshot := make([]perfdata.Result, len(original))
		copy(snapshot, original)

		c.Put("k", original)
		held, ok := c.Get("k")
		if !ok {
			t.Fatal("miss after Put")
		}
		c.Put("other", rsN(2, 2)) // evicts k (capacity 1)
		c.Put("k", rsN(4, 99))    // re-inserts k with new results
		c.Put("k", rsN(1, -1))    // overwrites in place
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
	svc := NewExecutionService("100", ew, NewCacheFromConfig(CacheConfig{Shards: 4}), nil)
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
