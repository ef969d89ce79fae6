package core

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"pperfgrid/internal/perfdata"
)

func rs(v float64) []perfdata.Result {
	return []perfdata.Result{{Metric: "m", Focus: "/", Type: "t", Time: perfdata.TimeRange{Start: 0, End: 1}, Value: v}}
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(10)
	if _, ok := c.Get("k"); ok {
		t.Error("hit on empty cache")
	}
	c.Put("k", rs(1))
	got, ok := c.Get("k")
	if !ok || got[0].Value != 1 {
		t.Errorf("Get after Put = %v, %v", got, ok)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
	if c.SizeBytes() <= 0 {
		t.Errorf("SizeBytes = %d after Put", c.SizeBytes())
	}
}

func TestCachePutOverwrites(t *testing.T) {
	c := NewCache(2)
	c.Put("k", rs(1))
	c.Put("k", rs(2))
	got, _ := c.Get("k")
	if got[0].Value != 2 {
		t.Error("overwrite failed")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d after overwrite", c.Len())
	}
}

func TestCacheUnbounded(t *testing.T) {
	c := NewCache(0)
	for i := 0; i < 1000; i++ {
		c.Put(fmt.Sprintf("k%d", i), rs(float64(i)))
	}
	if c.Len() != 1000 {
		t.Errorf("unbounded cache evicted: %d", c.Len())
	}
	if c.Stats().Evictions != 0 {
		t.Error("unbounded cache recorded evictions")
	}
}

// The eviction scenarios below build through NewCache's default shard
// count, which clamps a capacity-2 cache to one shard so the victim
// choice is exact.

func TestLRUEvictsLeastRecent(t *testing.T) {
	c := NewCache(2)
	if c.Shards() != 1 {
		t.Fatalf("shards = %d, want 1", c.Shards())
	}
	c.Put("a", rs(1))
	c.Put("b", rs(2))
	c.Get("a") // a is now most recent
	c.Put("c", rs(3))
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

// TestNewCacheDefaultsToLRU: recency alone picks the victim — an entry
// hit many times is still evicted once it is the least recently used.
func TestNewCacheDefaultsToLRU(t *testing.T) {
	c := NewCache(2)
	c.Put("often", rs(1))
	c.Put("once", rs(2))
	for i := 0; i < 5; i++ {
		c.Get("often")
	}
	c.Get("once") // one hit, but the most recent
	c.Put("new", rs(3))
	if _, ok := c.Get("often"); ok {
		t.Error("frequently hit but least recent entry survived")
	}
	if _, ok := c.Get("once"); !ok {
		t.Error("most recent entry evicted")
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
	c := NewCache(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", i%100)
				if _, ok := c.Get(k); !ok {
					c.Put(k, rs(float64(i)))
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Errorf("capacity exceeded: %d", c.Len())
	}
}

// Property: a bounded cache never exceeds its capacity and a Get right
// after a Put always hits.
func TestQuickCacheInvariants(t *testing.T) {
	f := func(keys []uint8, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		c := NewCache(capacity)
		for i, k := range keys {
			key := fmt.Sprintf("k%d", k)
			c.Put(key, rs(float64(i)))
			if _, ok := c.Get(key); !ok {
				return false
			}
			if c.Len() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
