package core

// Differential tests for the cold getPR path: the pooled-arena,
// zero-intermediate wire path (AppendPerformanceResults into a recycled
// arena + the soap streaming encoder, which Serve takes for every
// uncached instance — through InvokeRawToContext unpaged, one encoded
// page per paged call) must produce byte-identical envelopes and
// identical result sets to the string-building oracle, on the full and
// paged protocols, for every store shape. The oracle lives here: a
// service over a sliceWrapper fetches each result set as one plain
// materialized slice, and its envelopes are built from its results with
// perfdata.EncodeResults + soap.EncodeResponse.

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"pperfgrid/internal/datagen"
	"pperfgrid/internal/mapping"
	"pperfgrid/internal/ogsi"
	"pperfgrid/internal/perfdata"
	"pperfgrid/internal/soap"
)

// coldShapes builds one uncached wrapper + representative query per
// store shape (the paper's three data sources plus the native-XML store).
func coldShapes(t *testing.T) map[string]struct {
	build func() (mapping.ExecutionWrapper, error)
	q     perfdata.Query
	id    string
} {
	t.Helper()
	hpl := datagen.HPL(datagen.HPLConfig{Executions: 6, Seed: 41})
	rma := datagen.PrestaRMA(datagen.RMAConfig{Executions: 2, MessageSizes: 12, Seed: 42})
	smg := datagen.SMG98(datagen.SMG98Config{Executions: 2, Processes: 2, TimeBins: 8, Seed: 43})
	return map[string]struct {
		build func() (mapping.ExecutionWrapper, error)
		q     perfdata.Query
		id    string
	}{
		"HPL-wide": {
			build: func() (mapping.ExecutionWrapper, error) {
				w, err := mapping.NewWideTable(hpl)
				if err != nil {
					return nil, err
				}
				return w.ExecutionWrapper(hpl.Execs[0].ID)
			},
			q:  perfdata.Query{Metric: "gflops", Time: hpl.Execs[0].Time, Type: perfdata.UndefinedType},
			id: hpl.Execs[0].ID,
		},
		"RMA-flat": {
			build: func() (mapping.ExecutionWrapper, error) {
				w, err := mapping.NewFlatFile(rma)
				if err != nil {
					return nil, err
				}
				return w.ExecutionWrapper(rma.Execs[0].ID)
			},
			q:  perfdata.Query{Metric: "bandwidth", Time: rma.Execs[0].Time, Type: perfdata.UndefinedType},
			id: rma.Execs[0].ID,
		},
		"SMG98-star": {
			build: func() (mapping.ExecutionWrapper, error) {
				w, err := mapping.NewStar(smg)
				if err != nil {
					return nil, err
				}
				return w.ExecutionWrapper(smg.Execs[0].ID)
			},
			q:  perfdata.Query{Metric: "func_calls", Time: smg.Execs[0].Time, Type: perfdata.UndefinedType},
			id: smg.Execs[0].ID,
		},
		"HPL-xml": {
			build: func() (mapping.ExecutionWrapper, error) {
				w, err := mapping.NewXML(hpl)
				if err != nil {
					return nil, err
				}
				return w.ExecutionWrapper(hpl.Execs[1].ID)
			},
			q:  perfdata.Query{Metric: "gflops", Time: hpl.Execs[1].Time, Type: perfdata.UndefinedType},
			id: hpl.Execs[1].ID,
		},
	}
}

// sliceWrapper is the oracle's Mapping Layer: each getPR is the inner
// wrapper's plain materialized PerformanceResults slice, copied into
// dst — no pre-sized or pooled arena reaches the store.
type sliceWrapper struct{ mapping.ExecutionWrapper }

func (s sliceWrapper) AppendPerformanceResults(q perfdata.Query, dst []perfdata.Result) ([]perfdata.Result, error) {
	rs, err := s.PerformanceResults(q)
	return append(dst, rs...), err
}

// newOracleService builds an uncached service over a sliceWrapper of w.
func newOracleService(id string, w mapping.ExecutionWrapper) *ExecutionService {
	return NewExecutionService(id, sliceWrapper{w}, nil, nil)
}

// oracleEncode renders results the string way: perfdata.EncodeResults,
// then the generic response encode.
func oracleEncode(t *testing.T, headers []soap.HeaderEntry, rs []perfdata.Result) []byte {
	t.Helper()
	env, err := soap.EncodeResponse(OpGetPR, headers, perfdata.EncodeResults(rs))
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// oracleEnvelope renders the oracle's unpaged getPR envelope for q.
func oracleEnvelope(t *testing.T, id string, w mapping.ExecutionWrapper, q perfdata.Query) []byte {
	t.Helper()
	rs, err := newOracleService(id, w).PerformanceResults(q)
	if err != nil {
		t.Fatal(err)
	}
	return oracleEncode(t, nil, rs)
}

func TestColdWireEnvelopeByteIdentical(t *testing.T) {
	for name, shape := range coldShapes(t) {
		shape := shape
		t.Run(name, func(t *testing.T) {
			ew, err := shape.build()
			if err != nil {
				t.Fatal(err)
			}
			svc := NewExecutionService(shape.id, ew, nil, nil)
			want := oracleEnvelope(t, shape.id, ew, shape.q)

			buf := soap.GetBuffer()
			defer soap.PutBuffer(buf)
			took, err := svc.InvokeRawToContext(context.Background(), OpGetPR, shape.q.WireParams(), buf)
			if err != nil {
				t.Fatal(err)
			}
			if !took {
				t.Fatal("uncached service must take the raw stream path")
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("cold envelope diverges from the string oracle:\nstreamed %d bytes\noracle   %d bytes", buf.Len(), len(want))
			}
			// Serve answers the unpaged getPR with the same streamed bytes.
			sbuf := soap.GetBuffer()
			defer soap.PutBuffer(sbuf)
			reply, err := svc.Serve(context.Background(), ogsi.Call{Op: OpGetPR, Params: shape.q.WireParams()}, sbuf)
			if err != nil {
				t.Fatal(err)
			}
			if reply.Raw == nil || reply.Values != nil || !bytes.Equal(reply.Raw, want) {
				t.Fatalf("Serve did not stream the oracle envelope (raw %d bytes, %d values)", len(reply.Raw), len(reply.Values))
			}
			if n := svc.WireEncodes(); n != 2 {
				t.Fatalf("wireEncodes = %d after two streamed getPRs, want 2", n)
			}
			// The envelope carries real results, not a degenerate empty set.
			resp, err := soap.DecodeResponse(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.Returns) == 0 {
				t.Fatal("representative query returned no results; byte identity is vacuous")
			}
		})
	}
}

// TestColdPagedEnvelopeByteIdentical pages the same query through two
// fresh services (so cursor tokens align) — one on the streamed raw
// paged path, the plain-slice oracle's pages rendered the string way — and
// requires byte-identical envelopes page by page.
func TestColdPagedEnvelopeByteIdentical(t *testing.T) {
	for name, shape := range coldShapes(t) {
		shape := shape
		t.Run(name, func(t *testing.T) {
			ewA, err := shape.build()
			if err != nil {
				t.Fatal(err)
			}
			ewB, err := shape.build()
			if err != nil {
				t.Fatal(err)
			}
			fast := NewExecutionService(shape.id, ewA, nil, nil)
			oracle := newOracleService(shape.id, ewB)

			const limit = 7
			cursorF, cursorO := "", ""
			pages := 0
			for {
				buf := soap.GetBuffer()
				reply, err := fast.Serve(context.Background(), ogsi.Call{Op: OpGetPR, Params: shape.q.WireParams(), Paged: true, Cursor: cursorF, Limit: limit}, buf)
				if err != nil {
					t.Fatal(err)
				}
				if reply.Raw == nil {
					t.Fatal("uncached service must take the raw paged path")
				}
				resp, err := soap.DecodeResponse(reply.Raw)
				if err != nil {
					t.Fatal(err)
				}
				next, _ := resp.Header(ogsi.HeaderCursor)

				page, nextO, err := oracle.pagedResults(context.Background(), shape.q.WireParams(), cursorO, limit)
				if err != nil {
					t.Fatal(err)
				}
				var headers []soap.HeaderEntry
				if nextO != "" {
					headers = []soap.HeaderEntry{{Name: ogsi.HeaderCursor, Value: nextO}}
				}
				want := oracleEncode(t, headers, page)
				if !bytes.Equal(reply.Raw, want) {
					t.Fatalf("page %d envelope diverges (%d vs %d bytes)", pages, len(reply.Raw), len(want))
				}
				soap.PutBuffer(buf)
				pages++
				if (next == "") != (nextO == "") {
					t.Fatalf("cursor divergence at page %d: %q vs %q", pages, next, nextO)
				}
				if next == "" {
					break
				}
				cursorF, cursorO = next, nextO
			}
			if n := fast.WireEncodes(); n != int64(pages) {
				t.Fatalf("wireEncodes = %d after %d pages, want one per page", n, pages)
			}
			// HPL is a whole-run dataset: one result, one terminal page. The
			// multi-page cursor machinery must be exercised by the series
			// shapes.
			if !strings.HasPrefix(name, "HPL-") && pages < 2 {
				t.Fatalf("query paged in %d page(s); the paged comparison is vacuous", pages)
			}
		})
	}
}

// TestColdResultSetMatchesOracle pins decoded result-set equality end to
// end: the wire envelope from the streamed path decodes (with the
// zero-copy parser, as the client does) to exactly the oracle's decoded
// results.
func TestColdResultSetMatchesOracle(t *testing.T) {
	for name, shape := range coldShapes(t) {
		shape := shape
		t.Run(name, func(t *testing.T) {
			ew, err := shape.build()
			if err != nil {
				t.Fatal(err)
			}
			svc := NewExecutionService(shape.id, ew, nil, nil)

			want, err := newOracleService(shape.id, ew).PerformanceResults(shape.q)
			if err != nil {
				t.Fatal(err)
			}

			buf := soap.GetBuffer()
			defer soap.PutBuffer(buf)
			if _, err := svc.InvokeRawToContext(context.Background(), OpGetPR, shape.q.WireParams(), buf); err != nil {
				t.Fatal(err)
			}
			resp, err := soap.DecodeResponse(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			got, err := perfdata.ParseResults(resp.Returns)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("result count diverges: %d vs %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("result %d diverges:\nstreamed %+v\noracle   %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestColdCachedRawMatchesOracleBytes pins the cached miss path's
// streamed encode to the string oracle's bytes, and the repeat hit to
// the attached envelope, verbatim.
func TestColdCachedRawMatchesOracleBytes(t *testing.T) {
	shape := coldShapes(t)["SMG98-star"]
	ew, err := shape.build()
	if err != nil {
		t.Fatal(err)
	}
	svc := NewExecutionService(shape.id, ew, NewCache(16), nil)
	raw, took, err := svc.InvokeRawContext(context.Background(), OpGetPR, shape.q.WireParams())
	if err != nil || !took {
		t.Fatalf("cached InvokeRaw: took=%v err=%v", took, err)
	}

	ew2, err := shape.build()
	if err != nil {
		t.Fatal(err)
	}
	want := oracleEnvelope(t, shape.id, ew2, shape.q)
	if !bytes.Equal(raw, want) {
		t.Fatalf("cached-miss streamed envelope diverges from oracle (%d vs %d bytes)", len(raw), len(want))
	}
	again, took, err := svc.InvokeRawContext(context.Background(), OpGetPR, shape.q.WireParams())
	if err != nil || !took {
		t.Fatalf("repeat InvokeRaw: took=%v err=%v", took, err)
	}
	if !bytes.Equal(again, raw) {
		t.Fatal("repeat hit did not serve the attached envelope verbatim")
	}
	if n := svc.WireEncodes(); n != 1 {
		t.Fatalf("wireEncodes = %d after miss+hit, want 1", n)
	}
}

// TestColdPathAllocs pins the acceptance criterion at the service level:
// the streamed cold path must allocate at least 5x less than the
// plain-slice/string oracle on an SMG98-shaped query.
func TestColdPathAllocs(t *testing.T) {
	shape := coldShapes(t)["SMG98-star"]
	ew, err := shape.build()
	if err != nil {
		t.Fatal(err)
	}
	svc := NewExecutionService(shape.id, ew, nil, nil)
	oracleSvc := newOracleService(shape.id, ew)
	params := shape.q.WireParams()

	measure := func(oracle bool) (allocs float64) {
		buf := soap.GetBuffer()
		defer soap.PutBuffer(buf)
		run := func() {
			buf.Reset()
			if oracle {
				returns, err := oracleSvc.Invoke(OpGetPR, params)
				if err != nil {
					t.Fatal(err)
				}
				if err := soap.EncodeResponseTo(buf, OpGetPR, nil, returns); err != nil {
					t.Fatal(err)
				}
			} else {
				took, err := svc.InvokeRawToContext(context.Background(), OpGetPR, params, buf)
				if err != nil || !took {
					t.Fatalf("took=%v err=%v", took, err)
				}
			}
		}
		run()
		return testing.AllocsPerRun(10, run)
	}

	fast := measure(false)
	oracle := measure(true)
	if oracle < 5*fast {
		t.Fatalf("cold-path allocation reduction below 5x: oracle %.0f allocs/op, streamed %.0f", oracle, fast)
	}
	t.Logf("cold SMG98 getPR allocs/op: oracle %.0f, streamed %.0f (%.1fx)", oracle, fast, oracle/fast)
}
