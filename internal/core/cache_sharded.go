package core

import (
	"container/heap"
	"hash/maphash"
	"math"
	"sync"
	"sync/atomic"

	"pperfgrid/internal/perfdata"
)

// This file holds the Cache internals: the key space is split across
// power-of-two shards, each with its own RWMutex, entry map, and eviction
// min-heap ordered by recency (LRU).
//
//   - Hits (Get/GetWire) take only the shard's read lock: lookups proceed
//     in parallel and bump the entry's recency stamp with one atomic, so
//     the hot Table 5 path never serializes on a writer lock.
//   - Eviction pops the shard's min-heap: O(log n) per victim. Heap stamps
//     are repaired lazily — read-side bumps only ever raise an entry's
//     stamp, so eviction re-sinks stale roots until the true least
//     recently used entry surfaces.
//   - Capacity is accounted in bytes (EntryFootprint over results + wire)
//     and/or entries. Budgets divide evenly across shards (floor), so the
//     configured totals are strict upper bounds.

// DefaultCacheShards is the shard count used when CacheConfig.Shards is
// unset. 16 keeps per-shard budgets meaningful at test-scale capacities
// while spreading unrelated keys across independent locks.
const DefaultCacheShards = 16

// minShardBudgetBytes is the smallest per-shard byte budget a defaulted
// shard count will produce: budgets divide across shards, so a small
// budget over many shards would make SMG98-sized entries uncacheable in
// every shard. An explicit CacheConfig.Shards overrides this clamp.
const minShardBudgetBytes = 64 << 10

// minShardEntries is the analogous clamp for entry capacities: a
// defaulted shard count shrinks until each shard owns at least this many
// entries, so a small capacity is not silently floored away (16 shards
// over MaxEntries 24 would yield an effective capacity of 16, with hash
// imbalance evicting hot keys while other shards sit empty).
const minShardEntries = 8

// shardEntry is one cached query result of the sharded cache. The
// recency stamp touched on the read-locked hit path (lastSeq) is an
// atomic; everything else is guarded by the shard's write lock.
type shardEntry struct {
	key     string
	results []perfdata.Result
	wire    []byte
	size    int64 // EntryFootprint, maintained on every mutation

	lastSeq atomic.Int64 // recency stamp: unique within the shard

	hscore int64 // stamp recorded in the heap (may lag lastSeq)
	hindex int   // position in the shard heap
}

// entryHeap is a min-heap over hscore: the entry with the oldest recorded
// stamp is the next victim. Stamps are unique, so the order is total.
type entryHeap struct {
	items []*shardEntry
}

func (h *entryHeap) Len() int           { return len(h.items) }
func (h *entryHeap) Less(i, j int) bool { return h.items[i].hscore < h.items[j].hscore }
func (h *entryHeap) Swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].hindex = i
	h.items[j].hindex = j
}
func (h *entryHeap) Push(x any) {
	e := x.(*shardEntry)
	e.hindex = len(h.items)
	h.items = append(h.items, e)
}
func (h *entryHeap) Pop() any {
	old := h.items
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.hindex = -1
	h.items = old[:n-1]
	return e
}

// cacheShard is one lock domain of the sharded cache.
type cacheShard struct {
	mu      sync.RWMutex
	entries map[string]*shardEntry
	heap    entryHeap
	bytes   int64 // footprint of this shard's entries, under mu
	seq     int64 // recency stamp source (atomic: bumped under RLock)

	hits      atomic.Int64
	misses    atomic.Int64
	evictions int64 // under mu
}

// shard maps a key to its shard. maphash is the runtime's hardware-
// accelerated string hash — the hot hit path pays a few nanoseconds here,
// not a byte-at-a-time loop over SMG98-length keys.
func (c *Cache) shard(key string) *cacheShard {
	return &c.shards[maphash.String(c.seed, key)&c.mask]
}

// touch stamps an entry as the shard's most recently used — one atomic
// on the hit path. Callers hold at least the shard read lock.
func touch(s *cacheShard, e *shardEntry) {
	e.lastSeq.Store(atomic.AddInt64(&s.seq, 1))
}

// Shards reports the effective shard count.
func (c *Cache) Shards() int { return len(c.shards) }

// lookup is the shared read-locked hit path: find the entry, refresh its
// recency, and return its results and shard (for stats accounting).
func (c *Cache) lookup(key string) (*cacheShard, []perfdata.Result, bool) {
	s := c.shard(key)
	s.mu.RLock()
	e, ok := s.entries[key]
	var rs []perfdata.Result
	if ok {
		rs = e.results
		touch(s, e)
	}
	s.mu.RUnlock()
	return s, rs, ok
}

// Get returns the results cached under key, counting a hit or a miss.
func (c *Cache) Get(key string) ([]perfdata.Result, bool) {
	s, rs, ok := c.lookup(key)
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return rs, true
}

// getQuiet is Get without hit/miss accounting: the Execution service's
// double-checked re-lookup under its flight lock uses it, so one logical
// getPR counts exactly once.
func (c *Cache) getQuiet(key string) ([]perfdata.Result, bool) {
	_, rs, ok := c.lookup(key)
	return rs, ok
}

// GetWire returns the entry's encoded response envelope. Present wire
// counts as a hit; absence is not counted as a miss (the Get that follows
// will count it).
func (c *Cache) GetWire(key string) ([]byte, bool) {
	s := c.shard(key)
	s.mu.RLock()
	e, ok := s.entries[key]
	var wire []byte
	if ok {
		wire = e.wire
		if wire != nil {
			touch(s, e)
		}
	}
	s.mu.RUnlock()
	if wire == nil {
		return nil, false
	}
	s.hits.Add(1)
	return wire, true
}

// Put caches results under key, replacing (and dropping the wire of) any
// existing entry and evicting least recently used entries to stay in
// budget.
func (c *Cache) Put(key string, results []perfdata.Result) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[key]; ok {
		size := EntryFootprint(key, results, nil)
		e.results = results
		e.wire = nil // new results invalidate the encoded envelope
		s.bytes += size - e.size
		e.size = size
		touch(s, e)
		if !c.ensureBytesLocked(s, 0, e) {
			c.removeLocked(s, e)
			s.evictions++
		}
		return
	}
	size := EntryFootprint(key, results, nil)
	if c.perShardBytes > 0 && size > c.perShardBytes {
		// The entry alone exceeds the shard's byte budget: caching it
		// would break the budget invariant, so it is not stored — and
		// nothing is evicted for it (checked before the entry-count
		// eviction below, which must not fire for an infeasible Put).
		return
	}
	for c.perShardEntries > 0 && len(s.entries) >= c.perShardEntries {
		c.evictMinLocked(s)
	}
	if c.perShardBytes > 0 && !c.ensureBytesLocked(s, size, nil) {
		return
	}
	e := &shardEntry{key: key, results: results, size: size}
	touch(s, e)
	e.hscore = e.lastSeq.Load()
	s.entries[key] = e
	s.bytes += size
	heap.Push(&s.heap, e)
}

// AttachWire stores encoded response bytes on an existing entry; it is a
// no-op for unknown keys. Callers must not mutate wire afterwards.
func (c *Cache) AttachWire(key string, wire []byte) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		return
	}
	if e.wire != nil {
		old := int64(len(e.wire))
		e.wire = nil
		e.size -= old
		s.bytes -= old
	}
	need := int64(len(wire))
	if !c.ensureBytesLocked(s, need, e) {
		// Even evicting every other entry cannot fit the envelope next to
		// the decoded results; keep the results, skip the wire bytes.
		return
	}
	e.wire = wire
	e.size += need
	s.bytes += need
}

// ensureBytesLocked makes room for add more bytes in the shard, evicting
// least recently used entries — never keep — until the budget holds. It
// reports whether the budget can accommodate the addition, and refuses up front
// (evicting nothing) when it never could: an addition that exceeds the
// whole budget even alongside only the pinned entry must not flush the
// shard on its way to failing.
func (c *Cache) ensureBytesLocked(s *cacheShard, add int64, keep *shardEntry) bool {
	if c.perShardBytes <= 0 || s.bytes+add <= c.perShardBytes {
		return true
	}
	pinned := int64(0)
	if keep != nil {
		pinned = keep.size
	}
	if pinned+add > c.perShardBytes {
		return false
	}
	if keep != nil {
		// Pin keep by sinking it to the heap bottom; evictMinLocked's lazy
		// repair only ever raises scores, so it stays put until restored.
		keep.hscore = math.MaxInt64
		heap.Fix(&s.heap, keep.hindex)
	}
	for s.bytes+add > c.perShardBytes {
		if s.heap.Len() == 0 || (s.heap.Len() == 1 && s.heap.items[0] == keep) {
			break
		}
		c.evictMinLocked(s)
	}
	if keep != nil {
		keep.hscore = keep.lastSeq.Load()
		heap.Fix(&s.heap, keep.hindex)
	}
	return s.bytes+add <= c.perShardBytes
}

// evictMinLocked removes the shard's least recently used entry in
// O(log n): pop the heap root, lazily repairing roots whose live stamp
// has risen past the recorded one (touches never lower a stamp, so a
// root whose recorded stamp is current really is the minimum).
func (c *Cache) evictMinLocked(s *cacheShard) {
	for s.heap.Len() > 0 {
		root := s.heap.items[0]
		if cur := root.lastSeq.Load(); cur > root.hscore {
			root.hscore = cur
			heap.Fix(&s.heap, 0)
			continue
		}
		c.removeLocked(s, root)
		s.evictions++
		return
	}
}

// removeLocked unlinks an entry from the map, heap, and byte account.
func (c *Cache) removeLocked(s *cacheShard, e *shardEntry) {
	delete(s.entries, e.key)
	heap.Remove(&s.heap, e.hindex)
	s.bytes -= e.size
}

// Invalidate drops every entry and reports how many were purged. The
// Execution service calls it after a store mutation or update
// notification so stale envelopes release their bytes immediately — the
// epoch bump already makes their keys unreachable. Purges are per-shard
// atomic: a concurrent reader sees each shard either full or empty. Result
// slices and wire bytes already handed out stay valid (references are
// dropped, never mutated), and purged entries do not count as evictions.
func (c *Cache) Invalidate() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.entries = make(map[string]*shardEntry)
		s.heap.items = nil
		s.bytes = 0
		s.mu.Unlock()
	}
	return n
}

// Len reports the number of cached entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.entries)
		s.mu.RUnlock()
	}
	return n
}

// SizeBytes reports the footprint estimate of all cached entries,
// decoded results plus attached wire envelopes.
func (c *Cache) SizeBytes() int64 {
	var n int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += s.bytes
		s.mu.RUnlock()
	}
	return n
}

// Stats reports cumulative hits, misses, and evictions.
func (c *Cache) Stats() CacheStats {
	var out CacheStats
	for i := range c.shards {
		s := &c.shards[i]
		out.Hits += s.hits.Load()
		out.Misses += s.misses.Load()
		s.mu.RLock()
		out.Evictions += s.evictions
		s.mu.RUnlock()
	}
	return out
}

// ShardLoad is one shard's share of the cache, published as service data
// so operators can see skew across the key space.
type ShardLoad struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	Bytes     int64
}

// ShardLoads reports per-shard statistics, in shard order.
func (c *Cache) ShardLoads() []ShardLoad {
	out := make([]ShardLoad, len(c.shards))
	for i := range c.shards {
		s := &c.shards[i]
		out[i].Hits = s.hits.Load()
		out[i].Misses = s.misses.Load()
		s.mu.RLock()
		out[i].Evictions = s.evictions
		out[i].Entries = len(s.entries)
		out[i].Bytes = s.bytes
		s.mu.RUnlock()
	}
	return out
}
