package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// digest is a hex SHA-256 over an op sequence; equal digests mean equal
// sequences.
func digest(ops []Op) string {
	h := sha256.New()
	var b [32]byte
	for _, op := range ops {
		binary.LittleEndian.PutUint64(b[0:], uint64(op.Kind))
		binary.LittleEndian.PutUint64(b[8:], uint64(op.Exec))
		binary.LittleEndian.PutUint64(b[16:], uint64(op.Metric))
		binary.LittleEndian.PutUint64(b[24:], math.Float64bits(op.Offset))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

var testShape = genShape{execs: 1000, hotSet: 64, clients: 2}

func shapeOf(workload string) genShape {
	s := testShape
	s.workload = workload
	return s
}

func TestGeneratorIsDeterministic(t *testing.T) {
	for _, wl := range workloadNames {
		a := digest(newGen(shapeOf(wl), 42, 0).Take(5000))
		// A second generator, built later and after another one has been
		// drained, yields the same sequence: the seed is its only input.
		newGen(shapeOf(wl), 99, 0).Take(777)
		b := digest(newGen(shapeOf(wl), 42, 0).Take(5000))
		if a != b {
			t.Errorf("%s: same seed, different op sequences", wl)
		}
	}
}

func TestGeneratorSeedsAndStreamsDiffer(t *testing.T) {
	for _, wl := range []string{wlHot, wlCold, wlMixed, wlAnalytic} {
		base := digest(newGen(shapeOf(wl), 1, 0).Take(5000))
		if base == digest(newGen(shapeOf(wl), 2, 0).Take(5000)) {
			t.Errorf("%s: seeds 1 and 2 give the same op sequence", wl)
		}
		if base == digest(newGen(shapeOf(wl), 1, 1).Take(5000)) {
			t.Errorf("%s: clients 0 and 1 give the same op sequence", wl)
		}
	}
}

func TestGeneratorShapes(t *testing.T) {
	hot := map[int]bool{}
	for slot := 0; slot < testShape.hotSet; slot++ {
		hot[testShape.hotExec(slot)] = true
	}
	if len(hot) != testShape.hotSet {
		t.Fatalf("hot set has %d distinct executions, want %d", len(hot), testShape.hotSet)
	}
	for _, op := range newGen(shapeOf(wlHot), 3, 0).Take(5000) {
		if op.Kind != opGetPR || !hot[op.Exec] || op.Metric < 0 || op.Metric >= len(readMetrics) {
			t.Fatalf("hot-getpr generated %+v", op)
		}
	}
	seen := map[int]bool{}
	for _, op := range newGen(shapeOf(wlCold), 3, 0).Take(20000) {
		if op.Exec < 0 || op.Exec >= testShape.execs {
			t.Fatalf("cold-getpr generated execution %d", op.Exec)
		}
		seen[op.Exec] = true
	}
	if len(seen) < testShape.execs*9/10 {
		t.Errorf("cold-getpr touched %d of %d executions in 20000 ops", len(seen), testShape.execs)
	}
	for i, op := range newGen(shapeOf(wlFederated), 3, 0).Take(30) {
		if i > 0 && op.Metric != (newGen(shapeOf(wlFederated), 3, 0).Take(i)[i-1].Metric+1)%len(fedMetrics) {
			t.Fatalf("federated-hetero does not cycle its metrics at op %d", i)
		}
	}
}

func TestMixedPublishShareAndStride(t *testing.T) {
	var turns [2]int
	for client := 0; client < 2; client++ {
		ops := newGen(shapeOf(wlMixed), 5, client).Take(2000)
		pubs := 0
		for i, op := range ops {
			if op.Kind == opPublish {
				if pubs == 0 {
					turns[client] = i
				}
				pubs++
			}
		}
		if pubs != len(ops)/publishEvery {
			t.Errorf("client %d: %d publishes in %d ops, want exactly 1 in %d", client, pubs, len(ops), publishEvery)
		}
	}
	if d := turns[0] - turns[1]; d != publishEvery/2 && d != -publishEvery/2 {
		t.Errorf("the two clients' first publishes fall at ops %d and %d, want them half a stride apart", turns[0], turns[1])
	}
}
