package core

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"pperfgrid/internal/perfdata"
)

func rs(v float64) []perfdata.Result {
	return []perfdata.Result{{Metric: "m", Focus: "/", Type: "t", Time: perfdata.TimeRange{Start: 0, End: 1}, Value: v}}
}

func TestCacheHitMiss(t *testing.T) {
	for _, policy := range []string{"lru", "lfu", "cost"} {
		c := NewCache(policy, 10)
		if _, ok := c.Get("k"); ok {
			t.Errorf("%s: hit on empty cache", policy)
		}
		c.Put("k", rs(1), time.Millisecond)
		got, ok := c.Get("k")
		if !ok || got[0].Value != 1 {
			t.Errorf("%s: Get after Put = %v, %v", policy, got, ok)
		}
		s := c.Stats()
		if s.Hits != 1 || s.Misses != 1 {
			t.Errorf("%s: stats = %+v", policy, s)
		}
		if c.Len() != 1 {
			t.Errorf("%s: Len = %d", policy, c.Len())
		}
		if c.SizeBytes() <= 0 {
			t.Errorf("%s: SizeBytes = %d after Put", policy, c.SizeBytes())
		}
		if c.Policy() != policy {
			t.Errorf("%s: Policy() = %q", policy, c.Policy())
		}
	}
}

func TestCachePutOverwrites(t *testing.T) {
	for _, policy := range []string{"lru", "lfu", "cost"} {
		c := NewCache(policy, 2)
		c.Put("k", rs(1), 0)
		c.Put("k", rs(2), 0)
		got, _ := c.Get("k")
		if got[0].Value != 2 {
			t.Errorf("%s: overwrite failed", policy)
		}
		if c.Len() != 1 {
			t.Errorf("%s: Len = %d after overwrite", policy, c.Len())
		}
	}
}

func TestCacheUnbounded(t *testing.T) {
	c := NewCache("lru", 0)
	for i := 0; i < 1000; i++ {
		c.Put(fmt.Sprintf("k%d", i), rs(float64(i)), 0)
	}
	if c.Len() != 1000 {
		t.Errorf("unbounded cache evicted: %d", c.Len())
	}
	if c.Stats().Evictions != 0 {
		t.Error("unbounded cache recorded evictions")
	}
}

// The policy scenarios below build through NewCache's default shard count,
// which clamps a capacity-2 cache to one shard so the victim choice is the
// policy's exact one.

func TestLRUEvictsLeastRecent(t *testing.T) {
	c := NewCache("lru", 2)
	if c.Shards() != 1 {
		t.Fatalf("shards = %d, want 1", c.Shards())
	}
	c.Put("a", rs(1), 0)
	c.Put("b", rs(2), 0)
	c.Get("a") // a is now most recent
	c.Put("c", rs(3), 0)
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should have survived")
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d", c.Stats().Evictions)
	}
}

func TestLFUEvictsLeastFrequent(t *testing.T) {
	c := NewCache("lfu", 2)
	if c.Shards() != 1 {
		t.Fatalf("shards = %d, want 1", c.Shards())
	}
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
}

func TestCostAwareKeepsExpensive(t *testing.T) {
	c := NewCache("cost", 2)
	if c.Shards() != 1 {
		t.Fatalf("shards = %d, want 1", c.Shards())
	}
	c.Put("cheap", rs(1), time.Millisecond)
	c.Put("expensive", rs(2), time.Minute) // SMG98-style long query
	c.Put("new", rs(3), time.Second)
	if _, ok := c.Get("expensive"); !ok {
		t.Error("expensive entry evicted despite cost-aware policy")
	}
	if _, ok := c.Get("cheap"); ok {
		t.Error("cheap entry survived over expensive")
	}
}

func TestNewCacheDefaultsToLRU(t *testing.T) {
	if got := NewCache("bogus", 1).Policy(); got != "lru" {
		t.Errorf("default policy = %q", got)
	}
	if got := NewCache("lfu", 1).Policy(); got != "lfu" {
		t.Errorf("lfu = %q", got)
	}
	if got := NewCache("cost", 1).Policy(); got != "cost" {
		t.Errorf("cost = %q", got)
	}
}

func TestHitRate(t *testing.T) {
	var s CacheStats
	if s.HitRate() != 0 {
		t.Error("empty hit rate nonzero")
	}
	s = CacheStats{Hits: 3, Misses: 1}
	if s.HitRate() != 0.75 {
		t.Errorf("hit rate = %v", s.HitRate())
	}
}

func TestCacheConcurrent(t *testing.T) {
	for _, policy := range []string{"lru", "lfu", "cost"} {
		c := NewCache(policy, 64)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					k := fmt.Sprintf("k%d", i%100)
					if _, ok := c.Get(k); !ok {
						c.Put(k, rs(float64(i)), time.Duration(i))
					}
				}
			}(w)
		}
		wg.Wait()
		if c.Len() > 64 {
			t.Errorf("%s: capacity exceeded: %d", policy, c.Len())
		}
	}
}

// Property: a bounded cache never exceeds its capacity and a Get right
// after a Put always hits.
func TestQuickCacheInvariants(t *testing.T) {
	f := func(keys []uint8, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		for _, policy := range []string{"lru", "lfu", "cost"} {
			c := NewCache(policy, capacity)
			for i, k := range keys {
				key := fmt.Sprintf("k%d", k)
				c.Put(key, rs(float64(i)), time.Duration(k))
				if _, ok := c.Get(key); !ok {
					return false
				}
				if c.Len() > capacity {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
