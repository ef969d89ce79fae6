package main

import "math/rand"

// The five workloads. The names are final: later issues refer to them.
const (
	wlHot       = "hot-getpr"
	wlCold      = "cold-getpr"
	wlMixed     = "mixed-publish"
	wlFederated = "federated-hetero"
	wlAnalytic  = "store-analytic"
)

var workloadNames = []string{wlHot, wlCold, wlMixed, wlFederated, wlAnalytic}

// Op kinds.
const (
	opGetPR = iota
	opPublish
	opFederated
	opSQL
)

// readMetrics is the getPR read mix on scale-star: the four hottest
// metrics of the Zipf-skewed generator (about 170 results per execution
// each).
var readMetrics = []string{"func_calls_0", "excl_time_0", "incl_time_0", "msg_bytes_0"}

// fedMetrics is the federated query cycle: one headline metric per store
// family (HPL and HPLXML answer gflops, SMG98 func_calls, RMA bandwidth).
var fedMetrics = []string{"gflops", "func_calls", "bandwidth"}

// publishEvery makes every 20th op of a mixed-publish client a publishPR:
// a 5% write share. The share is dealt by stride, not by chance (and the
// strides of several clients would be offset evenly), because on the seed
// code one publish costs a later getPR a rebuild of the fact table's
// ordered indexes (about 0.4 s at 10^6 rows): with publishes drawn at
// random, the number that falls into a window, not the program, would
// decide ops_per_s.
const publishEvery = 20

// Op is one generated operation. Which fields matter depends on Kind.
type Op struct {
	Kind   int
	Exec   int     // 0-based execution index (getPR, publish)
	Metric int     // index into readMetrics or fedMetrics
	Offset float64 // position of the SQL window on the time axis, in [0,1)
}

// genShape is everything the generator knows about a workload beyond its
// seed: constants of the workload definition, never values read back from
// the program under test.
type genShape struct {
	workload string
	execs    int // executions in scale-star
	hotSet   int // size of the hot execution set
	clients  int // closed-loop clients sharing the workload
}

// Gen produces a workload's op sequence from a seed and nothing else: the
// same (shape, seed, stream) always yields the same sequence, whatever the
// program under test does or how fast it runs.
type Gen struct {
	shape genShape
	rng   *rand.Rand
	n     int
	phase int // start of the federated metric cycle
	turn  int // where in its stride this client's publishes fall
}

// newGen returns the generator of one stream of a workload. Streams
// 0..clients-1 are the measured clients; others (warm-up, verification)
// are independent sequences of the same shape.
func newGen(shape genShape, seed int64, stream int) *Gen {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(stream)*7919 + 1))
	clients := max(shape.clients, 1)
	client := ((stream % clients) + clients) % clients
	return &Gen{shape: shape, rng: rng, phase: rng.Intn(len(fedMetrics)), turn: client * publishEvery / clients}
}

// hotExec maps a hot-set slot to its execution: the fixed hot set is
// spread evenly over the executions, the same on every run.
func (s genShape) hotExec(slot int) int { return slot * (s.execs / s.hotSet) }

// Next returns the next op of the sequence.
func (g *Gen) Next() Op {
	g.n++
	switch g.shape.workload {
	case wlHot:
		return Op{Kind: opGetPR, Exec: g.shape.hotExec(g.rng.Intn(g.shape.hotSet)), Metric: g.rng.Intn(len(readMetrics))}
	case wlCold:
		return Op{Kind: opGetPR, Exec: g.rng.Intn(g.shape.execs), Metric: g.rng.Intn(len(readMetrics))}
	case wlMixed:
		kind := opGetPR
		if (g.n+g.turn)%publishEvery == 0 {
			kind = opPublish
		}
		return Op{Kind: kind, Exec: g.shape.hotExec(g.rng.Intn(g.shape.hotSet)), Metric: g.rng.Intn(len(readMetrics))}
	case wlFederated:
		return Op{Kind: opFederated, Metric: (g.phase + g.n) % len(fedMetrics)}
	default: // wlAnalytic
		return Op{Kind: opSQL, Offset: g.rng.Float64()}
	}
}

// Take returns the next n ops.
func (g *Gen) Take(n int) []Op {
	out := make([]Op, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}
