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
// the transport as pre-encoded bytes with zero XML marshalling. The cache
// is sharded (cache_sharded.go): the key space is split across
// power-of-two shards, each with its own RWMutex, entry map, and LRU
// eviction min-heap, so concurrent hits proceed in parallel and eviction is
// O(log n). The Execution service also implements the paged getPR
// protocol: results flow to clients in cursor-addressed chunks (a paged
// ogsi.Call to its ogsi.Server entry point) instead of one envelope per
// result set.
//
// The Site type at the bottom of the package assembles one complete
// PPerfGrid site: hosting containers, factories, Manager, and wrappers.
package core

import (
	"hash/maphash"

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
// an unbounded cache.
type CacheConfig struct {
	// MaxEntries bounds the entry count; <= 0 means unbounded.
	MaxEntries int
	// MaxBytes bounds the total footprint estimate of cached entries —
	// decoded results plus attached wire envelopes (see EntryFootprint).
	// <= 0 means unbounded. Entries that alone exceed the budget are not
	// cached.
	MaxBytes int64
	// Shards hints the shard count (rounded down to a power of two and
	// clamped so every shard owns at least one entry / one byte of
	// budget); <= 0 picks DefaultCacheShards.
	Shards int
}

// Cache is the Performance Results cache: query-key to result-list,
// evicting the least recently used entry when a budget is full. It is
// safe for concurrent use.
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
// indefinitely but must treat it as immutable. The cache upholds the
// other direction: Put of new results for a key replaces the stored slice
// wholesale and eviction only drops references, so a slice already handed
// out is never mutated. The same applies to wire bytes: callers must not
// mutate a slice passed to AttachWire or returned by GetWire.
type Cache struct {
	seed   maphash.Seed
	shards []cacheShard
	mask   uint64

	perShardEntries int   // 0 = unbounded
	perShardBytes   int64 // 0 = unbounded
}

// NewCache builds a Performance Results cache bounded to capacity entries
// (<= 0 means unbounded — the behaviour of the paper's prototype, which
// never evicted); use NewCacheFromConfig for byte budgets or shard
// control.
func NewCache(capacity int) *Cache {
	return NewCacheFromConfig(CacheConfig{MaxEntries: capacity})
}

// NewCacheFromConfig builds a Performance Results cache from a full
// configuration. Budgets divide across shards by floor division, so
// shards*perShard never exceeds the configured total; the shard count is
// clamped so every shard owns at least one entry (and a useful byte
// budget) of its bound.
func NewCacheFromConfig(cfg CacheConfig) *Cache {
	n := cfg.Shards
	if n <= 0 {
		n = DefaultCacheShards
		if cfg.MaxBytes > 0 {
			for n > 1 && cfg.MaxBytes/int64(n) < minShardBudgetBytes {
				n /= 2
			}
		}
		if cfg.MaxEntries > 0 {
			for n > 1 && cfg.MaxEntries/n < minShardEntries {
				n /= 2
			}
		}
	}
	if cfg.MaxEntries > 0 && n > cfg.MaxEntries {
		n = cfg.MaxEntries
	}
	if cfg.MaxBytes > 0 && int64(n) > cfg.MaxBytes {
		n = int(cfg.MaxBytes)
	}
	shards := 1
	for shards*2 <= n {
		shards *= 2
	}
	c := &Cache{
		seed:   maphash.MakeSeed(),
		shards: make([]cacheShard, shards),
		mask:   uint64(shards - 1),
	}
	if cfg.MaxEntries > 0 {
		c.perShardEntries = cfg.MaxEntries / shards
	}
	if cfg.MaxBytes > 0 {
		c.perShardBytes = cfg.MaxBytes / int64(shards)
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*shardEntry)
	}
	return c
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
	// heap slot.
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
