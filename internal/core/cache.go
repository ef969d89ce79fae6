// Package core implements PPerfGrid's Semantic Layer — the paper's primary
// contribution. It provides the Application and Execution semantic objects
// as grid services (the PortTypes of Tables 1 and 2), the PPerfGrid
// Manager that caches Execution service instances and distributes them
// across replica hosts (section 5.3.1.4), and the Performance Results
// cache inside each Execution instance (section 5.3.2.3).
//
// The cache stores each query's decoded results and, once the query has
// been answered over the wire, the encoded SOAP response envelope
// alongside them — so a repeat query (the Table 5 workload) is served to
// the transport as pre-encoded bytes with zero XML marshalling. The
// production cache is sharded (cache_sharded.go): the key space is split
// across power-of-two shards, each with its own RWMutex, entry map, and
// eviction min-heap, so concurrent hits proceed in parallel and eviction
// is O(log n) instead of the retained single-lock implementation's O(n)
// scan. The Execution service also implements the paged getPR protocol:
// results flow to clients in cursor-addressed chunks (a paged ogsi.Call
// to its ogsi.Server entry point) instead of one envelope per result set.
//
// The Site type at the bottom of the package assembles one complete
// PPerfGrid site: hosting containers, factories, Manager, and wrappers.
package core

import (
	"container/list"
	"sync"
	"time"

	"pperfgrid/internal/perfdata"
)

// CacheStats counts cache outcomes.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// HitRate returns hits / (hits + misses), or 0 with no traffic.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// CacheConfig describes one Performance Results cache. The zero value is
// an unbounded sharded LRU cache.
type CacheConfig struct {
	// Policy selects replacement: "lru", "lfu", or "cost" (recomputation
	// cost × uses). Empty or unknown names mean LRU.
	Policy string
	// MaxEntries bounds the entry count; <= 0 means unbounded. This is
	// the original capacity mode, retained for back-compat.
	MaxEntries int
	// MaxBytes bounds the total footprint estimate of cached entries —
	// decoded results plus attached wire envelopes (see EntryFootprint).
	// <= 0 means unbounded. Entries that alone exceed the budget are not
	// cached. Ignored by the single-lock implementation.
	MaxBytes int64
	// Shards hints the shard count (rounded down to a power of two and
	// clamped so every shard owns at least one entry / one byte of
	// budget); <= 0 picks DefaultCacheShards. Ignored when SingleLock.
	Shards int
	// SingleLock builds the retained single-mutex implementation — the
	// differential oracle and ablation hook for the sharded cache.
	SingleLock bool
}

// Cache is the Performance Results cache: query-key to result-list, with
// a pluggable replacement policy. Implementations are safe for concurrent
// use. The stored cost is the mapping-layer time the entry saves on a hit,
// which the cost-aware policy uses to pick eviction victims.
//
// Alongside the decoded results, an entry can carry the encoded SOAP
// response envelope for the query (AttachWire/GetWire): a repeat query
// served over the wire then skips XML marshalling entirely — the
// transport writes the cached bytes verbatim. Wire bytes live and die
// with their entry, so eviction and invalidation need no extra
// bookkeeping.
//
// Sharing contract: Get returns the stored result slice itself, not a
// copy — callers (paged cursors, clients, experiments) may hold it
// indefinitely but must treat it as immutable. Implementations uphold the
// other direction: Put of new results for a key replaces the stored slice
// wholesale and eviction only drops references, so a slice already handed
// out is never mutated. The same applies to wire bytes: callers must not
// mutate a slice passed to AttachWire or returned by GetWire.
type Cache interface {
	Get(key string) ([]perfdata.Result, bool)
	Put(key string, results []perfdata.Result, cost time.Duration)
	// GetWire returns the entry's encoded response envelope. Present wire
	// counts as a hit; absence is not counted as a miss (the Get that
	// follows will count it).
	GetWire(key string) ([]byte, bool)
	// AttachWire stores encoded response bytes on an existing entry; it is
	// a no-op for unknown keys. Callers must not mutate wire afterwards.
	AttachWire(key string, wire []byte)
	Len() int
	// Invalidate drops every entry and reports how many were purged. The
	// write path (ExecutionService.PublishResults) calls it after a store
	// mutation so stale envelopes release their bytes immediately — the
	// epoch bump already makes their keys unreachable. Result slices and
	// wire bytes already handed out stay valid: references are dropped,
	// never mutated.
	Invalidate() int
	// SizeBytes reports the footprint estimate of all cached entries,
	// decoded results plus attached wire envelopes.
	SizeBytes() int64
	Stats() CacheStats
	// Policy names the replacement policy, for service data and reports.
	Policy() string
	// Config returns the cache's construction parameters, so an
	// invalidation (ExecutionService.NotifyUpdate) can rebuild an
	// identically configured empty cache.
	Config() CacheConfig
}

// quietCache is implemented by the in-package caches: a lookup that
// refreshes recency/frequency but records no hit or miss. The Execution
// service uses it for the double-checked re-lookup under its flight lock,
// so one logical getPR counts exactly once.
type quietCache interface {
	getQuiet(key string) ([]perfdata.Result, bool)
}

// cacheGetQuiet performs a stats-free lookup when the implementation
// supports it, falling back to a counting Get.
func cacheGetQuiet(c Cache, key string) ([]perfdata.Result, bool) {
	if qc, ok := c.(quietCache); ok {
		return qc.getQuiet(key)
	}
	return c.Get(key)
}

// Footprint estimation: capacity in bytes is accounted against an
// estimate of each entry's in-memory size, not a precise measurement —
// interned strings and allocator slack make the true number unknowable
// cheaply. The estimate is the struct sizes plus the string/wire bytes.
const (
	// resultStructBytes is one decoded perfdata.Result: three string
	// headers (16 B each), the TimeRange (16 B), and the value (8 B).
	resultStructBytes = 72
	// entryOverheadBytes covers the entry struct, its map slot, and its
	// eviction bookkeeping (list element or heap slot).
	entryOverheadBytes = 96
)

// resultsFootprint estimates the in-memory bytes of a decoded result set.
func resultsFootprint(rs []perfdata.Result) int64 {
	n := int64(len(rs)) * resultStructBytes
	for i := range rs {
		n += int64(len(rs[i].Metric) + len(rs[i].Focus) + len(rs[i].Type))
	}
	return n
}

// EntryFootprint estimates the bytes one cache entry occupies: fixed
// overhead, the key, the decoded results, and the attached wire envelope.
// Byte budgets (CacheConfig.MaxBytes) are accounted in these units.
func EntryFootprint(key string, rs []perfdata.Result, wire []byte) int64 {
	return entryOverheadBytes + int64(len(key)) + resultsFootprint(rs) + int64(len(wire))
}

// entry is one cached query result of the single-lock implementation.
type entry struct {
	key     string
	results []perfdata.Result
	wire    []byte // encoded SOAP response envelope, when attached
	cost    time.Duration
	uses    int64
	seq     int64         // insertion order: deterministic eviction tie-break
	size    int64         // EntryFootprint, maintained on every mutation
	elem    *list.Element // LRU position, when used
}

// baseCache carries the shared bookkeeping of the single-lock policies.
type baseCache struct {
	mu       sync.Mutex
	capacity int // <= 0 means unbounded
	entries  map[string]*entry
	stats    CacheStats
	bytes    int64
	seq      int64
}

func newBase(capacity int) baseCache {
	return baseCache{capacity: capacity, entries: make(map[string]*entry)}
}

func (c *baseCache) lenLocked() int { return len(c.entries) }

// GetWire implements the wire-bytes lookup shared by the non-LRU policies
// (lruCache shadows it to refresh recency). A wire hit bumps the entry's
// use count so frequency- and cost-driven eviction see wire traffic too.
func (c *baseCache) GetWire(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || e.wire == nil {
		return nil, false
	}
	c.stats.Hits++
	e.uses++
	return e.wire, true
}

// AttachWire implements Cache.
func (c *baseCache) AttachWire(key string, wire []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		delta := int64(len(wire)) - int64(len(e.wire))
		e.wire = wire
		e.size += delta
		c.bytes += delta
	}
}

// getQuiet implements quietCache for the non-LRU policies.
func (c *baseCache) getQuiet(key string) ([]perfdata.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	e.uses++
	return e.results, true
}

// overwriteLocked refreshes an existing entry with new results, dropping
// any attached wire (new results invalidate the encoded envelope).
func (c *baseCache) overwriteLocked(e *entry, results []perfdata.Result, cost time.Duration) {
	e.results = results
	e.wire = nil
	e.cost = cost
	size := EntryFootprint(e.key, results, nil)
	c.bytes += size - e.size
	e.size = size
}

// insertLocked adds a fresh entry and accounts its footprint.
func (c *baseCache) insertLocked(key string, results []perfdata.Result, cost time.Duration) *entry {
	c.seq++
	e := &entry{key: key, results: results, cost: cost, seq: c.seq}
	e.size = EntryFootprint(key, results, nil)
	c.entries[key] = e
	c.bytes += e.size
	return e
}

// evictLocked removes the minimum entry under less, breaking ties by
// insertion order so eviction is deterministic (the property the
// sharded-vs-single-lock differential tests pin).
func (c *baseCache) evictLocked(less func(a, b *entry) bool) {
	var victim *entry
	for _, e := range c.entries {
		if victim == nil || less(e, victim) || (!less(victim, e) && e.seq < victim.seq) {
			victim = e
		}
	}
	if victim != nil {
		delete(c.entries, victim.key)
		c.bytes -= victim.size
		c.stats.Evictions++
	}
}

func (c *baseCache) SizeBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Invalidate implements Cache for the non-LRU policies. Purged entries do
// not count as evictions: Stats().Evictions keeps meaning capacity
// pressure, not write-path invalidation.
func (c *baseCache) Invalidate() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.entries)
	c.entries = make(map[string]*entry)
	c.bytes = 0
	return n
}

// lruCache evicts the least recently used entry.
type lruCache struct {
	baseCache
	order *list.List // front = most recent
}

// NewLRU creates a single-lock LRU cache — the retained pre-sharding
// implementation, kept as the differential oracle and ablation baseline.
// capacity <= 0 means unbounded — the behaviour of the paper's prototype,
// which never evicted.
func NewLRU(capacity int) Cache {
	return &lruCache{baseCache: newBase(capacity), order: list.New()}
}

func (c *lruCache) Policy() string { return "lru" }

func (c *lruCache) Config() CacheConfig {
	return CacheConfig{Policy: "lru", MaxEntries: c.capacity, SingleLock: true}
}

func (c *lruCache) Get(key string) ([]perfdata.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	e.uses++
	c.order.MoveToFront(e.elem)
	return e.results, true
}

// getQuiet shadows baseCache's to also refresh recency.
func (c *lruCache) getQuiet(key string) ([]perfdata.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	e.uses++
	c.order.MoveToFront(e.elem)
	return e.results, true
}

// GetWire shadows baseCache's to also refresh the entry's recency.
func (c *lruCache) GetWire(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || e.wire == nil {
		return nil, false
	}
	c.stats.Hits++
	e.uses++
	c.order.MoveToFront(e.elem)
	return e.wire, true
}

func (c *lruCache) Put(key string, results []perfdata.Result, cost time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.overwriteLocked(e, results, cost)
		c.order.MoveToFront(e.elem)
		return
	}
	if c.capacity > 0 && len(c.entries) >= c.capacity {
		victim := c.order.Back()
		if victim != nil {
			v := victim.Value.(*entry)
			c.order.Remove(victim)
			delete(c.entries, v.key)
			c.bytes -= v.size
			c.stats.Evictions++
		}
	}
	e := c.insertLocked(key, results, cost)
	e.elem = c.order.PushFront(e)
}

func (c *lruCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lenLocked()
}

// Invalidate shadows baseCache's to also reset the recency list.
func (c *lruCache) Invalidate() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.entries)
	c.entries = make(map[string]*entry)
	c.bytes = 0
	c.order.Init()
	return n
}

func (c *lruCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// lfuCache evicts the least frequently used entry (ties broken by
// insertion order).
type lfuCache struct {
	baseCache
}

// NewLFU creates a single-lock LFU cache (the retained pre-sharding
// implementation; eviction is an O(n) scan).
func NewLFU(capacity int) Cache {
	return &lfuCache{baseCache: newBase(capacity)}
}

func (c *lfuCache) Policy() string { return "lfu" }

func (c *lfuCache) Config() CacheConfig {
	return CacheConfig{Policy: "lfu", MaxEntries: c.capacity, SingleLock: true}
}

func (c *lfuCache) Get(key string) ([]perfdata.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	e.uses++
	return e.results, true
}

func (c *lfuCache) Put(key string, results []perfdata.Result, cost time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.overwriteLocked(e, results, cost)
		return
	}
	if c.capacity > 0 && len(c.entries) >= c.capacity {
		c.evictLocked(func(a, b *entry) bool { return a.uses < b.uses })
	}
	c.insertLocked(key, results, cost)
}

func (c *lfuCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lenLocked()
}

func (c *lfuCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// costAwareCache evicts the entry that is cheapest to recompute,
// weighting the mapping-layer cost by use count: victims minimize
// cost × (1 + uses). This is the paper's future-work "cache replacement
// policy [that] could adjust dynamically" — keeping the SMG98-style
// minute-long queries cached even when short HPL queries are hotter.
type costAwareCache struct {
	baseCache
}

// NewCostAware creates a single-lock recomputation-cost-aware cache (the
// retained pre-sharding implementation; eviction is an O(n) scan).
func NewCostAware(capacity int) Cache {
	return &costAwareCache{baseCache: newBase(capacity)}
}

func (c *costAwareCache) Policy() string { return "cost" }

func (c *costAwareCache) Config() CacheConfig {
	return CacheConfig{Policy: "cost", MaxEntries: c.capacity, SingleLock: true}
}

func (c *costAwareCache) Get(key string) ([]perfdata.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	e.uses++
	return e.results, true
}

func (c *costAwareCache) Put(key string, results []perfdata.Result, cost time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.overwriteLocked(e, results, cost)
		return
	}
	if c.capacity > 0 && len(c.entries) >= c.capacity {
		c.evictLocked(func(a, b *entry) bool {
			return a.cost*time.Duration(1+a.uses) < b.cost*time.Duration(1+b.uses)
		})
	}
	c.insertLocked(key, results, cost)
}

func (c *costAwareCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lenLocked()
}

func (c *costAwareCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// newSingleLock builds the retained single-lock cache by policy name.
func newSingleLock(policy string, capacity int) Cache {
	switch policy {
	case "lfu":
		return NewLFU(capacity)
	case "cost":
		return NewCostAware(capacity)
	default:
		return NewLRU(capacity)
	}
}

// NewCache builds the production (sharded) cache by policy name: "lru",
// "lfu", or "cost". Unknown names default to LRU. capacity is in entries;
// use NewCacheFromConfig for byte budgets, shard control, or the retained
// single-lock implementation.
func NewCache(policy string, capacity int) Cache {
	return NewCacheFromConfig(CacheConfig{Policy: policy, MaxEntries: capacity})
}

// NewCacheFromConfig builds a Performance Results cache from a full
// configuration. The default is the sharded implementation; SingleLock
// selects the retained single-mutex implementation (entry capacity only —
// it predates byte budgets, which it ignores).
func NewCacheFromConfig(cfg CacheConfig) Cache {
	if cfg.SingleLock {
		return newSingleLock(normalizePolicy(cfg.Policy), cfg.MaxEntries)
	}
	return newSharded(cfg)
}

// normalizePolicy maps unknown policy names to the LRU default.
func normalizePolicy(policy string) string {
	switch policy {
	case "lfu", "cost":
		return policy
	default:
		return "lru"
	}
}
