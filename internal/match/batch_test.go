package match

import (
	"fmt"
	"math"
	"testing"

	"fttt/internal/deploy"
	"fttt/internal/field"
	"fttt/internal/geom"
	"fttt/internal/randx"
	"fttt/internal/rf"
	"fttt/internal/sampling"
	"fttt/internal/vector"
)

// requireIdenticalResult asserts two Results agree bit for bit — the
// MatchBatch contract. Similarity and the estimate coordinates are
// compared through Float64bits so a "same value, different rounding
// path" drift cannot hide behind ==.
func requireIdenticalResult(t *testing.T, label string, want, got Result) {
	t.Helper()
	if want.Face != got.Face {
		t.Fatalf("%s: face %v, want %v", label, faceID(got.Face), faceID(want.Face))
	}
	if math.Float64bits(want.Similarity) != math.Float64bits(got.Similarity) {
		t.Fatalf("%s: similarity %v (bits %x), want %v (bits %x)", label,
			got.Similarity, math.Float64bits(got.Similarity),
			want.Similarity, math.Float64bits(want.Similarity))
	}
	if math.Float64bits(want.Estimate.X) != math.Float64bits(got.Estimate.X) ||
		math.Float64bits(want.Estimate.Y) != math.Float64bits(got.Estimate.Y) {
		t.Fatalf("%s: estimate %v, want %v (bitwise)", label, got.Estimate, want.Estimate)
	}
	if want.Tied != got.Tied || want.Visited != got.Visited ||
		want.Rounds != got.Rounds || want.FellBack != got.FellBack {
		t.Fatalf("%s: stats (tied %d visited %d rounds %d fellback %v), want (%d %d %d %v)", label,
			got.Tied, got.Visited, got.Rounds, got.FellBack,
			want.Tied, want.Visited, want.Rounds, want.FellBack)
	}
}

func faceID(f *field.Face) int {
	if f == nil {
		return -1
	}
	return f.ID
}

// batchProbes builds a deterministic mixed workload over the division:
// sampled Basic (ternary/Star) and Extended (Def. 10 fractional)
// vectors plus hand-made corner cases, with a mix of cold and warm
// starts.
func batchProbes(t *testing.T, div *field.Division, nodes []geom.Point, seed uint64, n int) ([]vector.Vector, []*field.Face) {
	t.Helper()
	s := &sampling.Sampler{Model: rf.Default(), Nodes: nodes, Range: 40, Epsilon: 1, ReportLoss: 0.2}
	rng := randx.New(seed)
	vs := make([]vector.Vector, n)
	prevs := make([]*field.Face, n)
	for i := range vs {
		p := geom.Pt(rng.Uniform(2, 98), rng.Uniform(2, 98))
		g := s.Sample(p, 5, rng.SplitN("probe", i))
		switch i % 3 {
		case 0:
			vs[i] = g.Vector()
		case 1:
			vs[i] = g.ExtendedVector()
		default:
			// An exact face signature, sometimes star-punched: exercises
			// exact matches (d² == 0) and the early-exit path.
			vs[i] = vec(div.Faces[i%div.NumFaces()].Signature)
			if i%4 == 3 {
				vs[i][i%len(vs[i])] = vector.Star
			}
		}
		if i%2 == 0 {
			prevs[i] = div.FaceAt(p)
		}
	}
	return vs, prevs
}

// TestMatchBatchEquivalentHeuristic is the headline differential: batch
// results must be byte-identical to the serial Heuristic across warm
// starts, incremental on/off, and every way of splitting the same lanes
// into batches.
func TestMatchBatchEquivalentHeuristic(t *testing.T) {
	div := buildDivision(t, 16, 2)
	if div.SoA() == nil {
		t.Fatal("division has no SoA store")
	}
	nodes := gridNodes(t, 16)
	vs, prevs := batchProbes(t, div, nodes, 42, 48)
	for _, incremental := range []bool{false, true} {
		t.Run(fmt.Sprintf("incremental=%v", incremental), func(t *testing.T) {
			serial := &Heuristic{Div: div, Incremental: incremental}
			want := make([]Result, len(vs))
			for i := range vs {
				want[i] = serial.Match(vs[i], prevs[i])
			}
			b := &Batch{Div: div, Incremental: incremental}
			for _, split := range []int{len(vs), 1, 7} {
				var got []Result
				for lo := 0; lo < len(vs); lo += split {
					hi := min(lo+split, len(vs))
					got = b.MatchBatch(got, vs[lo:hi], prevs[lo:hi])
				}
				for i := range vs {
					requireIdenticalResult(t, fmt.Sprintf("split=%d lane=%d", split, i), want[i], got[i])
				}
			}
		})
	}
}

// TestMatchBatchEquivalentExhaustive covers the Exhaustive lane
// semantics, including maximum-similarity ties and their averaged
// estimates.
func TestMatchBatchEquivalentExhaustive(t *testing.T) {
	div := buildDivision(t, 16, 2)
	nodes := gridNodes(t, 16)
	vs, prevs := batchProbes(t, div, nodes, 7, 48)
	ex := &Exhaustive{Div: div}
	b := &Batch{Div: div, Exhaustive: true}
	got := b.MatchBatch(nil, vs, prevs)
	sawTie := false
	for i := range vs {
		want := ex.Match(vs[i], prevs[i])
		requireIdenticalResult(t, fmt.Sprintf("lane=%d", i), want, got[i])
		if want.Tied > 1 {
			sawTie = true
		}
	}
	if !sawTie {
		t.Error("workload produced no similarity tie; tie averaging untested")
	}
}

// TestMatchBatchEquivalentFallback forces the below-threshold
// exhaustive rescan and checks the combined statistics match.
func TestMatchBatchEquivalentFallback(t *testing.T) {
	div := buildDivision(t, 16, 2)
	nodes := gridNodes(t, 16)
	vs, prevs := batchProbes(t, div, nodes, 11, 24)
	serial := &Heuristic{Div: div, Incremental: true, Fallback: true, FallbackBelow: 1e9}
	b := &Batch{Div: div, Incremental: true, Fallback: true, FallbackBelow: 1e9}
	got := b.MatchBatch(nil, vs, prevs)
	fellBack := 0
	for i := range vs {
		want := serial.Match(vs[i], prevs[i])
		if want.FellBack {
			fellBack++ // exact-signature lanes (+Inf similarity) never fall back
		}
		requireIdenticalResult(t, fmt.Sprintf("lane=%d", i), want, got[i])
	}
	if fellBack == 0 {
		t.Fatal("no lane fell back under the 1e9 threshold; rescan path untested")
	}
}

// gridNodes returns the node positions buildDivision used.
func gridNodes(t *testing.T, n int) []geom.Point {
	t.Helper()
	return deploy.Grid(fieldRect, n).Positions()
}

// BenchmarkMatchBatch64 prices one MatchBatch pass over 64 ternary
// lanes on the paper-sized fixture; compare per-vector against
// BenchmarkMatchSerial64 (the same 64 lanes, serial Heuristic) for the
// layout speedup the perfbench match/heuristic-batch64 scenario gates.
func BenchmarkMatchBatch64(b *testing.B) {
	vs, prevs, div := benchLanes64(b)
	m := &Batch{Div: div, Incremental: true}
	out := m.MatchBatch(nil, vs, prevs) // warm scratch + result capacity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = m.MatchBatch(out[:0], vs, prevs)
	}
	sink = out
}

// BenchmarkMatchSerial64 runs the same 64 lanes through the default
// serial Heuristic (the match/heuristic perfbench configuration);
// BenchmarkMatchSerialIncr64 through the incremental variant. The
// batch-vs-serial per-vector ratio these report is the >4× layout claim
// in EXPERIMENTS.md.
func BenchmarkMatchSerial64(b *testing.B) {
	benchSerial64(b, false)
}

func BenchmarkMatchSerialIncr64(b *testing.B) {
	benchSerial64(b, true)
}

func benchSerial64(b *testing.B, incremental bool) {
	vs, prevs, div := benchLanes64(b)
	m := &Heuristic{Div: div, Incremental: incremental}
	var last Result
	for i := range vs {
		last = m.Match(vs[i], prevs[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range vs {
			last = m.Match(vs[j], prevs[j])
		}
	}
	b.StopTimer()
	sink = last
}

var sink any

func benchLanes64(b *testing.B) ([]vector.Vector, []*field.Face, *field.Division) {
	b.Helper()
	d := deploy.Random(fieldRect, 20, randx.New(6))
	rc, err := field.NewRatioClassifier(d.Positions(), rf.Default().UncertaintyC(1))
	if err != nil {
		b.Fatal(err)
	}
	div, err := field.Divide(fieldRect, rc, 2)
	if err != nil {
		b.Fatal(err)
	}
	s := &sampling.Sampler{Model: rf.Default(), Nodes: d.Positions(), Range: 40, Epsilon: 1}
	rng := randx.New(9)
	vs := make([]vector.Vector, 64)
	prevs := make([]*field.Face, 64)
	for i := range vs {
		p := geom.Pt(rng.Uniform(5, 95), rng.Uniform(5, 95))
		vs[i] = s.Sample(p, 5, rng.SplitN("probe", i)).Vector()
		if i%3 != 0 {
			prevs[i] = div.FaceAt(p)
		}
	}
	return vs, prevs, div
}

// TestMatchBatchResultSliceReuse pins the append contract: reusing dst
// across calls must not corrupt earlier results.
func TestMatchBatchResultSliceReuse(t *testing.T) {
	div := buildDivision(t, 9, 2)
	nodes := gridNodes(t, 9)
	vs, prevs := batchProbes(t, div, nodes, 3, 8)
	b := &Batch{Div: div, Incremental: true}
	first := b.MatchBatch(nil, vs, prevs)
	snapshot := make([]Result, len(first))
	copy(snapshot, first)
	_ = b.MatchBatch(first[:0], vs, prevs)
	again := b.MatchBatch(nil, vs, prevs)
	for i := range again {
		requireIdenticalResult(t, fmt.Sprintf("lane=%d", i), snapshot[i], again[i])
	}
}
