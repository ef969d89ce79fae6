package core

import (
	"container/heap"
	"hash/maphash"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"pperfgrid/internal/perfdata"
)

// This file holds the Cache internals: the key space is split across
// power-of-two shards, each with its own RWMutex, entry map, and eviction
// min-heap.
//
//   - Hits (Get/GetWire) take only the shard's read lock: lookups proceed
//     in parallel and bump per-entry recency/frequency via atomics, so the
//     hot Table 5 path never serializes on a writer lock.
//   - Eviction pops the shard's min-heap: O(log n) per victim. Heap scores
//     are repaired lazily — read-side bumps only ever raise an entry's
//     score, so eviction re-sinks stale roots until the true minimum
//     surfaces.
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

const (
	policyLRU = iota
	policyLFU
	policyCost
)

// shardEntry is one cached query result of the sharded cache. Score
// inputs touched on the read-locked hit path (uses, lastSeq) are atomics;
// everything else is guarded by the shard's write lock.
type shardEntry struct {
	key     string
	results []perfdata.Result
	wire    []byte
	cost    time.Duration
	size    int64 // EntryFootprint, maintained on every mutation

	uses    atomic.Int64 // read/wire hits, feeds lfu and cost scores
	lastSeq atomic.Int64 // recency stamp, feeds the lru score
	insSeq  int64        // insertion order: deterministic tie-break

	hscore int64 // score recorded in the heap (may lag the live score)
	hindex int   // position in the shard heap
}

// entryHeap is a min-heap over (hscore, insSeq): the entry with the
// lowest recorded score — oldest first among ties — is the next victim.
type entryHeap struct {
	items []*shardEntry
}

func (h *entryHeap) Len() int { return len(h.items) }
func (h *entryHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.hscore != b.hscore {
		return a.hscore < b.hscore
	}
	return a.insSeq < b.insSeq
}
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
	seq     int64 // recency/insertion stamp source (atomic: bumped under RLock)

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

// score computes an entry's live eviction score — higher keeps longer.
// Scores only grow between explicit writes: uses and lastSeq are
// monotonic, and cost changes (which can lower the cost score) happen
// under the write lock with an immediate heap fix.
func (c *Cache) score(e *shardEntry) int64 {
	switch c.policyCode {
	case policyLFU:
		return e.uses.Load()
	case policyCost:
		return int64(e.cost) * (1 + e.uses.Load())
	default:
		return e.lastSeq.Load()
	}
}

// touch refreshes the score input the policy actually reads — one atomic
// on the hit path, not two. Callers hold at least the shard read lock.
func (c *Cache) touch(s *cacheShard, e *shardEntry) {
	if c.policyCode == policyLRU {
		e.lastSeq.Store(atomic.AddInt64(&s.seq, 1))
		return
	}
	e.uses.Add(1)
}

// Policy names the replacement policy, for service data and reports.
func (c *Cache) Policy() string { return c.policy }

// Shards reports the effective shard count.
func (c *Cache) Shards() int { return len(c.shards) }

// lookup is the shared read-locked hit path: find the entry, refresh its
// score input, and return its results and shard (for stats accounting).
func (c *Cache) lookup(key string) (*cacheShard, []perfdata.Result, bool) {
	s := c.shard(key)
	s.mu.RLock()
	e, ok := s.entries[key]
	var rs []perfdata.Result
	if ok {
		rs = e.results
		c.touch(s, e)
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
			c.touch(s, e)
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
// existing entry and evicting lowest-score entries to stay in budget.
func (c *Cache) Put(key string, results []perfdata.Result, cost time.Duration) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[key]; ok {
		size := EntryFootprint(key, results, nil)
		e.results = results
		e.wire = nil // new results invalidate the encoded envelope
		e.cost = cost
		s.bytes += size - e.size
		e.size = size
		e.lastSeq.Store(atomic.AddInt64(&s.seq, 1))
		// The cost score can move in either direction here; repair the
		// heap eagerly while we hold the write lock, preserving the
		// invariant that live scores never sit below recorded ones.
		e.hscore = c.score(e)
		heap.Fix(&s.heap, e.hindex)
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
	e := &shardEntry{key: key, results: results, cost: cost, size: size}
	e.insSeq = atomic.AddInt64(&s.seq, 1)
	e.lastSeq.Store(e.insSeq)
	s.entries[key] = e
	s.bytes += size
	e.hscore = c.score(e)
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
// lowest-score entries — never keep — until the budget holds. It reports
// whether the budget can accommodate the addition, and refuses up front
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
		keep.hscore = c.score(keep)
		heap.Fix(&s.heap, keep.hindex)
	}
	return s.bytes+add <= c.perShardBytes
}

// evictMinLocked removes the shard's lowest-score entry in O(log n):
// pop the heap root, lazily repairing roots whose live score has risen
// past the recorded one (read-side touches never lower a score, so a
// root whose recorded score is current really is the minimum).
func (c *Cache) evictMinLocked(s *cacheShard) {
	for s.heap.Len() > 0 {
		root := s.heap.items[0]
		if cur := c.score(root); cur > root.hscore {
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
