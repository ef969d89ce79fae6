package main

import (
	"bytes"
	"fmt"
	"time"

	"pperfgrid/internal/core"
	"pperfgrid/internal/mapping"
	"pperfgrid/internal/minidb"
	"pperfgrid/internal/perfdata"
	"pperfgrid/internal/soap"
)

// factJoinSQL is the benchmark's own copy of the Mapping Layer's native
// fact-table join for an untyped, unfocused getPR: Table 4's "native
// query" column. A check asserts it returns as many rows as the Mapping
// Layer returns results.
const factJoinSQL = "SELECT f.path, r.starttime, r.endtime, r.value, r.typeid FROM results r JOIN foci f ON r.fociid = f.fociid " +
	"WHERE r.execid = ? AND r.metricid = ? AND r.endtime > ? AND r.starttime < ?"

// insertSQL is the Mapping Layer's fact-table insert, one commit per row.
const insertSQL = "INSERT INTO results VALUES (?, ?, ?, ?, ?, ?, ?)"

// pagedPageSize is the page size of the paged-getPR protocol variant.
const pagedPageSize = 64

// traceStar is the traced run of a getPR workload: a single caller, a
// fixed number of ops, the same seeded sequence on every run, so counter
// movements repeat exactly.
//
// The sequence is executed once per layer boundary, outermost first: over
// the socket (client), on the Execution service (core), on the wrapper
// (mapping) and as the native SQL (minidb). Every pass issues the same
// reads and writes in the same order, so each finds the engine's caches
// in the state the previous pass left — the state a full pass of this
// very sequence produces — and the layers are timed on equal terms. A
// layer below core is replayed only for ops that reached it: a getPR
// answered from the Performance Results cache never touches the Mapping
// Layer, and replaying it there would charge the op for work it did not
// do. Self times are the paper's Table 4 subtraction, per op.
func traceStar(cfg runCfg, e *starEnv, shape genShape, res *Result) error {
	n := cfg.scale.traceGetPROps
	if cfg.workload == wlMixed {
		n = cfg.scale.traceMixedOps
	}
	ops := newGen(shape, cfg.seed, 0).Take(n)
	cached := cfg.workload != wlCold
	metricIDs := make([]int64, len(readMetrics))
	for i, name := range readMetrics {
		rs, err := e.db.Query("SELECT metricid FROM metrics WHERE name = '" + name + "'")
		if err != nil || len(rs.Rows) != 1 {
			return fmt.Errorf("look up metric %s: %v", name, err)
		}
		metricIDs[i] = rs.Rows[0][0].Int
	}

	// Warm up with the workload's own mix, as the untraced run does, then
	// make the untraced pass trace.overhead_pct compares with.
	do := func(_ int, op Op) opOutcome { return e.do(op) }
	if warm := closedLoop([]*Gen{newGen(shape, cfg.seed, 1000)}, secs(cfg.scale.warmupSeconds), 1<<16, do); warm.firstErr != nil {
		return fmt.Errorf("warm-up: %w", warm.firstErr)
	}
	base := make([]int64, n)
	for i, op := range ops {
		t0 := time.Now()
		if out := e.do(op); out.err != nil {
			return out.err
		}
		base[i] = time.Since(t0).Nanoseconds()
	}

	// Client pass: the traced run proper. Counters are read around it.
	var (
		clientStart = make([]int64, n)
		clientNs    = make([]int64, n)
		pubs        int64
	)
	before := e.snapshot()
	traceT0 := time.Now()
	for i, op := range ops {
		t0 := time.Now()
		out := e.do(op)
		clientNs[i] = time.Since(t0).Nanoseconds()
		clientStart[i] = t0.Sub(traceT0).Nanoseconds()
		if out.err != nil {
			return out.err
		}
		if out.write {
			pubs++
		}
	}
	after := e.snapshot()
	res.Attempted, res.Samples = int64(n), n-int(pubs)
	reportDelta(res, before, after, int64(n), pubs)

	// Core pass.
	var (
		coreNs  = make([]int64, n)
		decNs   = make([]int64, n)
		parseNs = make([]int64, n)
		reached = make([]bool, n)
		rawLen  = make([]int, n)
		bytesN  float64
		buf     bytes.Buffer
	)
	for i, op := range ops {
		svc := e.svcs[op.Exec]
		if op.Kind == opPublish {
			params := perfdata.EncodeResults(e.batch(op))
			t0 := time.Now()
			_, err := svc.InvokeContext(ctx, core.OpPublishPR, params)
			coreNs[i] = time.Since(t0).Nanoseconds()
			if err != nil {
				return err
			}
			e.ackedRows.Add(publishBatch)
			continue
		}
		params := query(op.Metric).WireParams()
		missesBefore := svc.CacheStats().Misses
		buf.Reset()
		t0 := time.Now()
		raw, err := coreGetPR(svc, params, &buf)
		coreNs[i] = time.Since(t0).Nanoseconds()
		if err != nil {
			return err
		}
		reached[i] = !cached || svc.CacheStats().Misses > missesBefore
		rawLen[i] = len(raw)
		bytesN += float64(len(raw))
		t0 = time.Now()
		resp, err := soap.DecodeResponse(raw)
		decNs[i] = time.Since(t0).Nanoseconds()
		if err != nil {
			return err
		}
		t0 = time.Now()
		rs, err := perfdata.ParseResults(resp.Returns)
		parseNs[i] = time.Since(t0).Nanoseconds()
		if err != nil {
			return err
		}
		if len(rs) == 0 {
			return fmt.Errorf("core getPR on execution %d returned no results", op.Exec)
		}
	}

	// Mapping pass.
	var (
		mapNs    = make([]int64, n)
		encNs    = make([]int64, n)
		nResults = make([]int, n)
		arena    []perfdata.Result
		scratch  []byte
	)
	for i, op := range ops {
		ew := e.ews[op.Exec]
		if op.Kind == opPublish {
			rs := e.batch(op)
			t0 := time.Now()
			err := ew.(mapping.ResultWriter).PublishResults(rs)
			mapNs[i] = time.Since(t0).Nanoseconds()
			if err != nil {
				return err
			}
			e.ackedRows.Add(publishBatch)
			continue
		}
		if !reached[i] {
			continue
		}
		t0 := time.Now()
		rs, err := mappingGetPR(ew, query(op.Metric), arena[:0])
		mapNs[i] = time.Since(t0).Nanoseconds()
		if err != nil {
			return err
		}
		arena, nResults[i] = rs, len(rs)
		buf.Reset()
		t0 = time.Now()
		err = encodeEnvelope(&buf, rs, &scratch)
		encNs[i] = time.Since(t0).Nanoseconds()
		if err != nil {
			return err
		}
		// With publishes in the sequence every pass finds more rows than the
		// one before, so replies can only be compared on read-only workloads.
		if cfg.workload != wlMixed && buf.Len() != rawLen[i] {
			return fmt.Errorf("replayed getPR envelope for execution %d is %d bytes, the Execution service's %d", op.Exec, buf.Len(), rawLen[i])
		}
	}

	// Engine pass.
	var (
		dbNs     = make([]int64, n)
		commitNs []int64
	)
	join, err := e.db.Prepare(factJoinSQL)
	if err != nil {
		return err
	}
	ins, err := e.db.Prepare(insertSQL)
	if err != nil {
		return err
	}
	batch := minidb.NewBatch()
	defer batch.Release()
	for i, op := range ops {
		execID := minidb.Text(e.cfg.ExecID(op.Exec))
		if op.Kind == opPublish {
			for _, r := range e.batch(op) {
				t0 := time.Now()
				_, err := ins.Exec(execID, minidb.Int(1), minidb.Int(metricIDs[op.Metric]), minidb.Int(1),
					minidb.Float(r.Time.Start), minidb.Float(r.Time.End), minidb.Float(r.Value))
				d := time.Since(t0).Nanoseconds()
				if err != nil {
					return err
				}
				commitNs = append(commitNs, d)
				dbNs[i] += d
			}
			e.ackedRows.Add(publishBatch)
			continue
		}
		if !reached[i] {
			continue
		}
		t0 := time.Now()
		rows, err := join.QueryStream(execID, minidb.Int(metricIDs[op.Metric]), minidb.Float(fullRange.Start), minidb.Float(fullRange.End))
		if err != nil {
			return err
		}
		got := 0
		for rows.NextBatch(batch, 0) {
			got += batch.Rows()
		}
		err = rows.Err()
		rows.Close()
		dbNs[i] = time.Since(t0).Nanoseconds()
		if err != nil {
			return err
		}
		if got < nResults[i] || (cfg.workload != wlMixed && got != nResults[i]) {
			return fmt.Errorf("native fact join on execution %d returned %d rows, the Mapping Layer %d results", op.Exec, got, nResults[i])
		}
	}
	res.check("the benchmark's native fact join returns as many rows as the Mapping Layer returns results", nil)

	// Paged protocol variant, cold-getpr only (informational).
	var pagedNs []int64
	if cfg.workload == wlCold {
		pagedNs = make([]int64, n)
		for i, op := range ops {
			t0 := time.Now()
			rs, err := e.refs[op.Exec].PerformanceResultsPaged(query(op.Metric), pagedPageSize).Collect()
			pagedNs[i] = time.Since(t0).Nanoseconds()
			if err != nil {
				return err
			}
			if len(rs) != nResults[i] {
				return fmt.Errorf("paged getPR on execution %d returned %d results, want %d", op.Exec, len(rs), nResults[i])
			}
		}
	}

	// Spans and metrics.
	var (
		rec                                                 Recorder
		rdClient, rdBase, rdCore, rdMap, rdDB, rdEnc, rdDec []int64
		rdParse, wireSelf, coreSelf, mapSelf                []int64
		wrClient, wrCore, wrMap                             []int64
	)
	for i, op := range ops {
		if op.Kind == opPublish {
			wrClient, wrCore, wrMap = append(wrClient, clientNs[i]), append(wrCore, coreNs[i]), append(wrMap, mapNs[i])
			rec.AddTree(i, &node{name: "client.publish", dur: clientNs[i], children: []*node{
				{name: "core.publish", dur: coreNs[i], children: []*node{
					{name: "mapping.publish", dur: mapNs[i], children: []*node{
						{name: "minidb.insert", dur: dbNs[i]}}}}}}}, clientStart[i])
			continue
		}
		rdClient, rdBase, rdCore = append(rdClient, clientNs[i]), append(rdBase, base[i]), append(rdCore, coreNs[i])
		rdDec, rdParse = append(rdDec, decNs[i]), append(rdParse, parseNs[i])
		wireSelf = append(wireSelf, clientNs[i]-coreNs[i])
		coreNode := &node{name: "core.getpr", dur: coreNs[i]}
		if reached[i] {
			rdMap, rdDB, rdEnc = append(rdMap, mapNs[i]), append(rdDB, dbNs[i]), append(rdEnc, encNs[i])
			coreSelf = append(coreSelf, coreNs[i]-mapNs[i]-encNs[i])
			mapSelf = append(mapSelf, mapNs[i]-dbNs[i])
			coreNode.children = []*node{
				{name: "mapping.getpr", dur: mapNs[i], children: []*node{{name: "minidb.factjoin", dur: dbNs[i]}}},
				{name: "soap.encode", dur: encNs[i]},
			}
		} else {
			coreSelf = append(coreSelf, coreNs[i])
		}
		rec.AddTree(i, &node{name: "client.getpr", dur: clientNs[i], children: []*node{
			coreNode, {name: "soap.decode", dur: decNs[i]}, {name: "perfdata.parse", dur: parseNs[i]},
		}}, clientStart[i])
		if pagedNs != nil {
			rec.AddTree(i, &node{name: "container.paged_getpr", dur: pagedNs[i]}, clientStart[i])
		}
	}
	m := res.Metrics
	medUs := func(ns []int64) float64 { return median(nsToUs(ns)) }
	m["client.getpr_us"] = medUs(rdClient)
	m["core.getpr_us"] = medUs(rdCore)
	m["mapping.getpr_us"] = medUs(rdMap)
	m["minidb.factjoin_us"] = medUs(rdDB)
	m["soap.encode_us"] = medUs(rdEnc)
	m["soap.decode_us"] = medUs(rdDec)
	m["perfdata.parse_us"] = medUs(rdParse)
	m["soap.bytes_per_op"] = ratio(bytesN, float64(len(rdClient)))
	m["container.wire_self_us"] = medUs(wireSelf)
	m["core.self_us"] = medUs(coreSelf)
	m["mapping.self_us"] = medUs(mapSelf)
	m["container.paged_getpr_us"] = medUs(pagedNs)
	writes := sortedCopy(nsToMs(wrClient))
	m["write_p50_ms"] = percentile(writes, 50)
	m["write_p99_ms"] = percentile(writes, 99)
	m["core.publish_us"] = medUs(wrCore)
	m["mapping.publish_us"] = medUs(wrMap)
	m["minidb.insert_commit_us"] = medUs(commitNs)
	m["trace.overhead_pct"] = 100 * ratio(medUs(rdClient)-medUs(rdBase), medUs(rdBase))
	res.Info["trace"] = map[string]any{
		"ops": n, "reads": len(rdClient), "publishes": len(wrClient), "reads_reaching_mapping": len(rdMap),
		"untraced_p50_us": medUs(rdBase), "traced_p50_us": medUs(rdClient), "clamped_spans": rec.clamped,
	}
	return flushTrace(cfg, res, &rec)
}

// mappingGetPR is the Mapping Layer's getPR as the Execution service
// calls it: the appending form where the wrapper has one.
func mappingGetPR(ew mapping.ExecutionWrapper, q perfdata.Query, dst []perfdata.Result) ([]perfdata.Result, error) {
	if a, ok := ew.(mapping.ResultAppender); ok {
		return a.AppendPerformanceResults(q, dst)
	}
	return ew.PerformanceResults(q)
}

// encodeEnvelope renders a getPR response envelope the way the Execution
// service does on a cache miss: each result's wire bytes go through one
// reused scratch slice straight into the streaming SOAP encoder.
func encodeEnvelope(buf *bytes.Buffer, rs []perfdata.Result, scratch *[]byte) error {
	var enc soap.ResponseEncoder
	if err := enc.Begin(buf, core.OpGetPR, nil); err != nil {
		return err
	}
	for i := range rs {
		*scratch = rs[i].AppendEncode((*scratch)[:0])
		enc.ReturnBytes(*scratch)
	}
	return enc.Close()
}

// coreGetPR calls the Execution service the way the container does for a
// getPR: the cached-envelope responder first, then the streaming encoder.
// It returns the response envelope; buf backs it on the streamed path.
func coreGetPR(svc *core.ExecutionService, params []string, buf *bytes.Buffer) ([]byte, error) {
	raw, took, err := svc.InvokeRawContext(ctx, core.OpGetPR, params)
	if err != nil {
		return nil, err
	}
	if took {
		return raw, nil
	}
	streamed, err := svc.InvokeRawToContext(ctx, core.OpGetPR, params, buf)
	if err != nil {
		return nil, err
	}
	if !streamed {
		return nil, fmt.Errorf("execution service took neither raw getPR path")
	}
	return buf.Bytes(), nil
}
