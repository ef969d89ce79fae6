// Benchmarks that regenerate the paper's evaluation (section 6): one
// bench per table and figure, plus micro-benchmarks for the substrates
// those experiments exercise. Run with:
//
//	go test -bench=. -benchmem
//
// For the full paper-vs-measured reports (with shape checks), use
// cmd/pperfgrid-bench instead; these benches express the same workloads
// through the standard testing.B harness.
package pperfgrid_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"pperfgrid/internal/client"
	"pperfgrid/internal/container"
	"pperfgrid/internal/core"
	"pperfgrid/internal/datagen"
	"pperfgrid/internal/experiment"
	"pperfgrid/internal/flatfile"
	"pperfgrid/internal/gsi"
	"pperfgrid/internal/mapping"
	"pperfgrid/internal/minidb"
	"pperfgrid/internal/perfdata"
	"pperfgrid/internal/soap"
)

// benchCfg keeps bench runtimes sane: mapping latencies at 1/1000 of the
// paper's (the ratios, not the absolutes, are what matter).
func benchCfg() experiment.Config {
	return experiment.Config{
		Scale: 0.001,
		Seed:  1,
		SMG98: datagen.SMG98Config{Executions: 2, Processes: 2, TimeBins: 8},
	}
}

// BenchmarkTable4 measures one calibrated getPR through the full stack
// (client stub -> SOAP -> container -> Execution instance -> Mapping
// Layer -> store) per data source, caching off — the per-query cost whose
// decomposition is the paper's Table 4.
func BenchmarkTable4(b *testing.B) {
	for _, name := range experiment.AllSourceNames {
		b.Run(name, func(b *testing.B) {
			cfg := benchCfg()
			cfg.CachingOff = true
			src, err := experiment.NewSource(name, cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer src.Close()
			c := client.NewWithoutRegistry()
			binding, err := c.BindFactory(src.Name, src.Site.ApplicationFactoryHandle())
			if err != nil {
				b.Fatal(err)
			}
			refs, err := binding.QueryExecutions(nil)
			if err != nil {
				b.Fatal(err)
			}
			_, q := src.QueryFor(0)
			payload := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rs, err := refs[i%len(refs)].PerformanceResults(q)
				if err != nil {
					b.Fatal(err)
				}
				payload = 0
				for _, s := range perfdata.EncodeResults(rs) {
					payload += len(s)
				}
			}
			b.ReportMetric(float64(payload), "payload-bytes")
		})
	}
}

// BenchmarkTable5 measures the same getPR with the Performance Results
// cache off and on — the per-query cost pair behind the paper's Table 5
// speedups.
func BenchmarkTable5(b *testing.B) {
	for _, name := range experiment.AllSourceNames {
		for _, caching := range []string{"CachingOff", "CachingOn"} {
			b.Run(name+"/"+caching, func(b *testing.B) {
				cfg := benchCfg()
				cfg.CachingOff = caching == "CachingOff"
				src, err := experiment.NewSource(name, cfg)
				if err != nil {
					b.Fatal(err)
				}
				defer src.Close()
				c := client.NewWithoutRegistry()
				binding, err := c.BindFactory(src.Name, src.Site.ApplicationFactoryHandle())
				if err != nil {
					b.Fatal(err)
				}
				refs, err := binding.QueryExecutions(nil)
				if err != nil {
					b.Fatal(err)
				}
				_, q := src.QueryFor(0)
				ref := refs[0]
				if _, err := ref.PerformanceResults(q); err != nil { // warm
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := ref.PerformanceResults(q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFigure12 measures one threaded query batch (10 repeats per
// Execution instance) against HPL sites along the replicas axis at the
// paper's batch sizes — the workload of Figure 12, extended past the
// paper's two-host testbed.
func BenchmarkFigure12(b *testing.B) {
	for _, hosts := range []int{1, 2, 4, 8} {
		for _, n := range []int{2, 8, 32} {
			b.Run(fmt.Sprintf("hosts=%d/execs=%d", hosts, n), func(b *testing.B) {
				cfg := benchCfg()
				cfg.Replicas = hosts
				cfg.Workers = 1
				cfg.CachingOff = true
				src, err := experiment.NewHPLSource(cfg)
				if err != nil {
					b.Fatal(err)
				}
				defer src.Close()
				c := client.NewWithoutRegistry()
				binding, err := c.BindFactory(src.Name, src.Site.ApplicationFactoryHandle())
				if err != nil {
					b.Fatal(err)
				}
				refs, err := binding.QueryExecutions(nil)
				if err != nil {
					b.Fatal(err)
				}
				q := perfdata.Query{Metric: "gflops", Time: perfdata.TimeRange{Start: 0, End: 1e9}, Type: "hpl"}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					results := client.QueryPerformanceResults(refs[:n], q, client.ParallelOptions{Repeats: 10})
					for _, r := range results {
						if r.Err != nil {
							b.Fatal(r.Err)
						}
					}
				}
			})
		}
	}
}

// BenchmarkSOAPRoundTrip isolates the marshalling component of Table 4's
// overhead at the paper's three payload scales (~8 B, ~5.7 KB, ~60 KB+)
// through the hand-rolled codec, the one wire path.
func BenchmarkSOAPRoundTrip(b *testing.B) {
	for _, items := range []int{1, 80, 1000} {
		b.Run(fmt.Sprintf("HandRolled/items=%d", items), func(b *testing.B) {
			vals := make([]string, items)
			for i := range vals {
				vals[i] = fmt.Sprintf("gflops|/Process/%d|hpl|0.0-132.5|%d.25", i, i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				data, err := soap.EncodeResponse("getPR", nil, vals)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := soap.DecodeResponse(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchSMGRefs stands up an uncalibrated (no injected latency) SMG98-
// shaped site and binds one execution, so transport benches measure the
// wire path itself rather than the calibrated mapping delay.
func benchSMGRefs(b *testing.B, cachingOff bool) (*client.ExecutionRef, perfdata.Query) {
	b.Helper()
	d := datagen.SMG98(datagen.SMG98Config{Executions: 1, Processes: 8, TimeBins: 32, Seed: 3})
	w := mapping.NewMemory(d)
	site, err := core.StartSite(core.SiteConfig{AppName: "SMG98", Wrappers: []mapping.ApplicationWrapper{w}, CachingOff: cachingOff})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(site.Close)
	c := client.NewWithoutRegistry()
	binding, err := c.BindFactory("SMG98", site.ApplicationFactoryHandle())
	if err != nil {
		b.Fatal(err)
	}
	refs, err := binding.QueryExecutions(nil)
	if err != nil || len(refs) == 0 {
		b.Fatalf("QueryExecutions: %v, %v", refs, err)
	}
	ref := refs[0]
	tr, err := ref.TimeStartEnd()
	if err != nil {
		b.Fatal(err)
	}
	metrics, err := ref.Metrics()
	if err != nil || len(metrics) == 0 {
		b.Fatalf("metrics: %v, %v", metrics, err)
	}
	return ref, perfdata.Query{Metric: metrics[0], Time: tr, Type: perfdata.UndefinedType}
}

// BenchmarkTransportGetPR measures one full-stack getPR (stub -> SOAP ->
// container -> Execution -> store) with no injected mapping latency: the
// pure wire-path cost the overhaul targets. CacheOff re-marshals every
// reply; CacheHit is served from the encoded-response cache with zero XML
// marshalling.
func BenchmarkTransportGetPR(b *testing.B) {
	b.Run("CacheOff", func(b *testing.B) {
		ref, q := benchSMGRefs(b, true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ref.PerformanceResults(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("CacheHit", func(b *testing.B) {
		ref, q := benchSMGRefs(b, false)
		if _, err := ref.PerformanceResults(q); err != nil { // warm
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ref.PerformanceResults(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTransportPagedGetPR measures the paged protocol draining the
// same result set at several page sizes (0 = service default, one page
// per DefaultPageSize values).
func BenchmarkTransportPagedGetPR(b *testing.B) {
	for _, pageSize := range []int{64, 512, 0} {
		b.Run(fmt.Sprintf("pageSize=%d", pageSize), func(b *testing.B) {
			ref, q := benchSMGRefs(b, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ref.PerformanceResultsPaged(q, pageSize).Collect(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMinidb measures the SQL engine behind the relational wrappers:
// the wide-table point query (HPL) and the star fact-table join (SMG98).
func BenchmarkMinidb(b *testing.B) {
	b.Run("WidePointQuery", func(b *testing.B) {
		db := minidb.NewDatabase()
		d := datagen.HPL(datagen.HPLConfig{Executions: 124, Seed: 1})
		if err := datagen.LoadWideTable(db, "executions", d); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Query("SELECT gflops FROM executions WHERE execid = '150'"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("StarFactJoin", func(b *testing.B) {
		db := minidb.NewDatabase()
		d := datagen.SMG98(datagen.SMG98Config{Executions: 2, Processes: 2, TimeBins: 8, Seed: 1})
		if err := datagen.LoadStarSchema(db, d); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, err := db.Query("SELECT f.path, r.value FROM results r JOIN foci f ON r.fociid = f.fociid WHERE r.execid = '1' AND r.metricid = 1")
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMinidbJoin pits the planned star fact-table join (hash join
// plus secondary index probes, the production configuration built by
// mapping.NewStar) against the retained naive nested-loop executor on the
// same database — the speedup the query-engine overhaul buys before any
// caching.
func BenchmarkMinidbJoin(b *testing.B) {
	db := minidb.NewDatabase()
	d := datagen.SMG98(datagen.SMG98Config{Executions: 2, Processes: 2, TimeBins: 8, Seed: 1})
	if err := datagen.LoadStarSchema(db, d); err != nil {
		b.Fatal(err)
	}
	for _, ix := range mapping.StarIndexes {
		if err := db.CreateIndex(ix[0], ix[1]); err != nil {
			b.Fatal(err)
		}
	}
	const q = "SELECT f.path, r.value FROM results r JOIN foci f ON r.fociid = f.fociid WHERE r.execid = '1' AND r.metricid = 1"
	b.Run("PlannedIndexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("NaiveNestedLoop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.QueryNaive(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMinidbPrepared measures what Prepare saves per query: the
// parsed variant re-lexes and re-parses the SQL text on every call, the
// prepared variant binds a parameter into a cached statement, and the
// streamed variant additionally skips materializing the result set.
func BenchmarkMinidbPrepared(b *testing.B) {
	db := minidb.NewDatabase()
	d := datagen.HPL(datagen.HPLConfig{Executions: 124, Seed: 1})
	if err := datagen.LoadWideTable(db, "executions", d); err != nil {
		b.Fatal(err)
	}
	if err := db.CreateIndex("executions", "execid"); err != nil {
		b.Fatal(err)
	}
	b.Run("Parsed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.Query("SELECT gflops FROM executions WHERE execid = '150'"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Prepared", func(b *testing.B) {
		st, err := db.Prepare("SELECT gflops FROM executions WHERE execid = ?")
		if err != nil {
			b.Fatal(err)
		}
		arg := minidb.Text("150")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.Query(arg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("PreparedStream", func(b *testing.B) {
		st, err := db.Prepare("SELECT gflops FROM executions WHERE execid = ?")
		if err != nil {
			b.Fatal(err)
		}
		arg := minidb.Text("150")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rows, err := st.QueryStream(arg)
			if err != nil {
				b.Fatal(err)
			}
			for rows.Next() {
			}
			if err := rows.Err(); err != nil {
				b.Fatal(err)
			}
			rows.Close()
		}
	})
}

// BenchmarkFlatfileParse measures the custom ASCII parser's per-query
// re-parse cost — the RMA Mapping-Layer path.
func BenchmarkFlatfileParse(b *testing.B) {
	d := datagen.PrestaRMA(datagen.RMAConfig{Executions: 1, MessageSizes: 20, Seed: 1}).ToFlatfile()
	files, err := flatfile.Encode(d)
	if err != nil {
		b.Fatal(err)
	}
	store, err := flatfile.OpenFiles(files)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Execution("1"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkManagerHandles measures the Manager's two regimes: the
// instance-cache hit path (the paper's justification for caching
// Execution GSHs), and a cold 124-ID batch resolved through remote
// factories — batched (one plural CreateServices SOAP call per replica,
// run concurrently) against a per-ID reference (refs that hide
// CreateExecutions, so every ID costs one CreateService round trip), at
// 1/2/4 replicas. The batched-vs-per-ID gap is the
// before/after of the scale-out overhaul.
func BenchmarkManagerHandles(b *testing.B) {
	ids := make([]string, 124)
	for i := range ids {
		ids[i] = fmt.Sprint(100 + i)
	}
	b.Run("CachedHit", func(b *testing.B) {
		d := datagen.HPL(datagen.HPLConfig{Executions: 124, Seed: 1})
		w, err := mapping.NewWideTable(d)
		if err != nil {
			b.Fatal(err)
		}
		site, err := core.StartSite(core.SiteConfig{AppName: "HPL", Wrappers: []mapping.ApplicationWrapper{w}})
		if err != nil {
			b.Fatal(err)
		}
		defer site.Close()
		if _, err := site.Manager().ExecutionHandles(ids); err != nil { // create once
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := site.Manager().ExecutionHandles(ids); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, replicas := range []int{1, 2, 4} {
		for _, mode := range []string{"ColdBatched", "ColdPerID"} {
			b.Run(fmt.Sprintf("%s/replicas=%d", mode, replicas), func(b *testing.B) {
				d := datagen.HPL(datagen.HPLConfig{Executions: 124, Seed: 1})
				wrappers := make([]mapping.ApplicationWrapper, replicas)
				for i := range wrappers {
					wrappers[i] = mapping.NewMemory(d)
				}
				site, err := core.StartSite(core.SiteConfig{AppName: "HPL", Wrappers: wrappers})
				if err != nil {
					b.Fatal(err)
				}
				defer site.Close()
				refs := make([]core.ExecutionFactoryRef, replicas)
				for i, host := range site.Hosts() {
					refs[i] = core.NewRemoteFactoryRef(host)
					if mode == "ColdPerID" {
						refs[i] = perIDRef{refs[i]}
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// A fresh Manager per iteration keeps every batch cold.
					m, err := core.NewManager(nil, refs...)
					if err != nil {
						b.Fatal(err)
					}
					handles, err := m.ExecutionHandles(ids)
					if err != nil {
						b.Fatal(err)
					}
					// Destroy the transient instances outside the timer so
					// the hosting tables stay flat across iterations.
					b.StopTimer()
					for _, h := range handles {
						stub, err := container.DialString(h)
						if err != nil {
							b.Fatal(err)
						}
						if err := stub.Destroy(); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
				}
			})
		}
	}
}

// perIDRef hides a factory ref's CreateExecutions, so the Manager creates
// each ID with its own CreateService round trip.
type perIDRef struct{ core.ExecutionFactoryRef }

// BenchmarkCachePolicies measures Get/Put throughput per replacement
// policy under capacity pressure.
func BenchmarkCachePolicies(b *testing.B) {
	results := []perfdata.Result{{Metric: "m", Focus: "/", Type: "t", Time: perfdata.TimeRange{Start: 0, End: 1}, Value: 1}}
	for _, policy := range []string{"lru", "lfu", "cost"} {
		b.Run(policy, func(b *testing.B) {
			cache := core.NewCache(policy, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := fmt.Sprintf("k%d", i%128)
				if _, ok := cache.Get(key); !ok {
					cache.Put(key, results, time.Millisecond)
				}
			}
		})
	}
}

// rsBench is a one-result payload for the cache micro-benches.
var rsBench = []perfdata.Result{{Metric: "func_calls", Focus: "/Process/0", Type: "vampir", Time: perfdata.TimeRange{Start: 0, End: 1}, Value: 1}}

// benchCacheAt builds a cache prefilled to capacity with distinct keys,
// for the eviction and churn benches.
func benchCacheAt(policy string, capacity int) *core.Cache {
	cache := core.NewCache(policy, capacity)
	for i := 0; i < capacity; i++ {
		cache.Put(fmt.Sprintf("fill%d|/Process/%d|vampir|0.0-1.0", i, i%8), rsBench, time.Millisecond)
	}
	return cache
}

// BenchmarkCacheHit measures the warmed single-reader hit path (the
// latency the Table 5 steady state is made of).
func BenchmarkCacheHit(b *testing.B) {
	// Unbounded: no hash imbalance can evict a warmed key out from under
	// the measurement.
	cache := core.NewCache("cost", 0)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("fill%d|/Process/%d|vampir|0.0-1.0", i, i%8)
		cache.Put(keys[i], rsBench, time.Millisecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := cache.Get(keys[i%len(keys)]); !ok {
			b.Fatal("warmed key missed")
		}
	}
}

// BenchmarkCacheEvict measures one insertion into a full cache — which
// must evict a victim first, popping a per-shard min-heap in O(log n).
func BenchmarkCacheEvict(b *testing.B) {
	results := []perfdata.Result{{Metric: "excl_time", Focus: "/Process/0/Code/MPI/MPI_Waitall", Type: "vampir", Time: perfdata.TimeRange{Start: 0, End: 1}, Value: 1}}
	for _, policy := range []string{"lru", "lfu", "cost"} {
		b.Run(fmt.Sprintf("%s/n=4096", policy), func(b *testing.B) {
			cache := benchCacheAt(policy, 4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cache.Put(fmt.Sprintf("new%d|/Process/%d|vampir|0.0-1.0", i, i%8), results, time.Millisecond)
			}
		})
	}
}

// BenchmarkCacheConcurrentMixed is the concurrent Table 5 workload as a
// testing.B harness: parallel readers hammering a warmed hot set while a
// tail of misses forces eviction churn.
func BenchmarkCacheConcurrentMixed(b *testing.B) {
	hot := make([]perfdata.Result, 64)
	for i := range hot {
		hot[i] = perfdata.Result{Metric: "func_calls", Focus: fmt.Sprintf("/Process/%d", i), Type: "vampir", Time: perfdata.TimeRange{Start: 0, End: 1}, Value: float64(i)}
	}
	cache := benchCacheAt("cost", 4096)
	hotKeys := make([]string, 16)
	for i := range hotKeys {
		hotKeys[i] = fmt.Sprintf("hot%d|/Process/%d|vampir|0.0-1.0", i, i%8)
		cache.Put(hotKeys[i], hot, time.Minute)
	}
	var tailSeq atomic.Int64
	b.SetParallelism(16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if i%20 == 19 { // 5% tail: miss + insert + evict
				k := fmt.Sprintf("tail%d|/Process/%d|vampir|0.0-1.0", tailSeq.Add(1), i%8)
				if _, ok := cache.Get(k); !ok {
					cache.Put(k, hot[:1], time.Millisecond)
				}
			} else if _, ok := cache.Get(hotKeys[i%len(hotKeys)]); !ok {
				b.Fatal("hot key missed")
			}
			i++
		}
	})
}

// BenchmarkGSISignVerify measures the security extension's per-request
// cost: header signing plus verification.
func BenchmarkGSISignVerify(b *testing.B) {
	authority, err := gsi.NewAuthority([]byte("bench-master"))
	if err != nil {
		b.Fatal(err)
	}
	cred, err := authority.Issue("bench@pdx.edu")
	if err != nil {
		b.Fatal(err)
	}
	verifier := gsi.NewVerifier(authority)
	provider := cred.HeaderProvider()
	params := []string{"gflops", "0", "132.5", "hpl"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := &soap.Request{Operation: "getPR", Params: params, Headers: provider("getPR", params)}
		if _, err := verifier.Verify(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinidbBatch pits the vectorized NextBatch scan against the
// retained row-at-a-time iterator on the star fact-table join — the
// per-row []Value allocation the cold-path overhaul removes.
func BenchmarkMinidbBatch(b *testing.B) {
	db := minidb.NewDatabase()
	d := datagen.SMG98(datagen.SMG98Config{Executions: 2, Processes: 2, TimeBins: 8, Seed: 1})
	if err := datagen.LoadStarSchema(db, d); err != nil {
		b.Fatal(err)
	}
	for _, ix := range mapping.StarIndexes {
		if err := db.CreateIndex(ix[0], ix[1]); err != nil {
			b.Fatal(err)
		}
	}
	st, err := db.Prepare("SELECT f.path, r.starttime, r.endtime, r.value, r.typeid " +
		"FROM results r JOIN foci f ON r.fociid = f.fociid WHERE r.execid = ? AND r.metricid = ?")
	if err != nil {
		b.Fatal(err)
	}
	args := []minidb.Value{minidb.Text("1"), minidb.Int(1)}
	b.Run("RowAtATime", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows, err := st.QueryStream(args...)
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			for rows.Next() {
				n += len(rows.Row())
			}
			rows.Close()
			if rows.Err() != nil || n == 0 {
				b.Fatal(rows.Err(), n)
			}
		}
	})
	b.Run("NextBatch", func(b *testing.B) {
		batch := minidb.NewBatch()
		defer batch.Release()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows, err := st.QueryStream(args...)
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			for rows.NextBatch(batch, 0) {
				n += batch.Rows() * batch.Cols()
			}
			rows.Close()
			if rows.Err() != nil || n == 0 {
				b.Fatal(rows.Err(), n)
			}
		}
	})
}

// BenchmarkColdGetPR measures one cold (cache-off) getPR through the
// Execution service's wire encode per store shape: batch decode into a
// pooled arena, results streamed straight into the envelope buffer.
// allocs/op is the headline number; the benchmark module's cold-getpr
// workload measures the same path over a socket.
func BenchmarkColdGetPR(b *testing.B) {
	shapes := []struct {
		name  string
		build func() (mapping.ApplicationWrapper, string, perfdata.Query, error)
	}{
		{"HPL", func() (mapping.ApplicationWrapper, string, perfdata.Query, error) {
			d := datagen.HPL(datagen.HPLConfig{Executions: 124, Seed: 1})
			w, err := mapping.NewWideTable(d)
			return w, d.Execs[0].ID, perfdata.Query{Metric: "gflops", Time: d.Execs[0].Time, Type: "hpl"}, err
		}},
		{"RMA", func() (mapping.ApplicationWrapper, string, perfdata.Query, error) {
			d := datagen.PrestaRMA(datagen.RMAConfig{Executions: 12, MessageSizes: 20, Seed: 1})
			w, err := mapping.NewFlatFile(d)
			return w, d.Execs[0].ID, perfdata.Query{Metric: "bandwidth", Time: d.Execs[0].Time, Type: "presta"}, err
		}},
		{"SMG98", func() (mapping.ApplicationWrapper, string, perfdata.Query, error) {
			d := datagen.SMG98(datagen.SMG98Config{Executions: 2, Processes: 2, TimeBins: 8, Seed: 1})
			w, err := mapping.NewStar(d)
			return w, d.Execs[0].ID, perfdata.Query{Metric: "func_calls", Time: d.Execs[0].Time, Type: "vampir"}, err
		}},
	}
	for _, shape := range shapes {
		w, id, q, err := shape.build()
		if err != nil {
			b.Fatal(err)
		}
		ew, err := w.ExecutionWrapper(id)
		if err != nil {
			b.Fatal(err)
		}
		svc := core.NewExecutionService(id, ew, nil, nil)
		params := q.WireParams()
		b.Run(shape.name+"/vectorized", func(b *testing.B) {
			buf := soap.GetBuffer()
			defer soap.PutBuffer(buf)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				took, err := svc.InvokeRawToContext(context.Background(), core.OpGetPR, params, buf)
				if err != nil || !took {
					b.Fatal(took, err)
				}
			}
		})
	}
}

// BenchmarkScaleEngine measures the million-row engine paths on a
// reduced (10^5-row) scale star schema: ordered-index range probes and
// the ORDER BY+LIMIT ordered walk against the naive full-scan executor,
// plus the hot execid point query. The benchmark's store-analytic
// workload times the same statements at 10^6 rows on the disk engine.
func BenchmarkScaleEngine(b *testing.B) {
	db := minidb.NewDatabase()
	scale, err := datagen.LoadScaleStar(db, datagen.ScaleConfig{
		Executions: 100, ResultsPerExec: 1000, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := mapping.DeclareStarIndexes(db); err != nil {
		b.Fatal(err)
	}
	lo, hi := scale.TimeWindow(scale.Executions / 3)
	rangeSQL := fmt.Sprintf(
		"SELECT execid, starttime, value FROM results WHERE starttime >= %g AND starttime <= %g", lo, hi)
	const topkSQL = "SELECT execid, starttime, value FROM results ORDER BY value DESC LIMIT 10"
	if _, err := db.Query(rangeSQL); err != nil { // warm the lazy indexes
		b.Fatal(err)
	}
	if _, err := db.Query(topkSQL); err != nil {
		b.Fatal(err)
	}

	b.Run("RangeProbe", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(rangeSQL); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("TopKWalk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(topkSQL); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("NaiveRangeScan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.QueryNaive(rangeSQL); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("NaiveTopKSort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.QueryNaive(topkSQL); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("HotPointStream", func(b *testing.B) {
		stmt, err := db.Prepare("SELECT starttime, value FROM results WHERE execid = ?")
		if err != nil {
			b.Fatal(err)
		}
		id := minidb.Text(scale.ExecID(scale.Executions / 2))
		batch := minidb.NewBatch()
		defer batch.Release()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows, err := stmt.QueryStream(id)
			if err != nil {
				b.Fatal(err)
			}
			for rows.NextBatch(batch, 0) {
			}
			if err := rows.Err(); err != nil {
				b.Fatal(err)
			}
			rows.Close()
		}
	})
}
