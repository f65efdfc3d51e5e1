package match

import (
	"fmt"
	"testing"

	"fttt/internal/faults"
	"fttt/internal/field"
	"fttt/internal/geom"
	"fttt/internal/randx"
	"fttt/internal/rf"
	"fttt/internal/sampling"
	"fttt/internal/vector"
)

// trustProbes builds a deterministic adversarial workload: vectors
// sampled through a fault scheduler running the full Byzantine behavior
// set (spoof, invert, collude on top of the benign crash/drain kinds),
// paired with per-lane trust weight vectors — nil, all-ones, floored
// low-trust, and uniformly random — the §15 differential domain.
func trustProbes(t *testing.T, div *field.Division, nodes []geom.Point, seed uint64, n int) ([]vector.Vector, []*field.Face, [][]float64) {
	t.Helper()
	script, err := faults.Parse(`
		spoof   at=0 nodes=1 bias=12
		invert  at=0 nodes=3,7
		collude at=0 frac=0.2 x=80 y=15
		crash   at=4 nodes=5
	`)
	if err != nil {
		t.Fatal(err)
	}
	sched := faults.New(*script, len(nodes), seed)
	sched.SetGeometry(nodes, rf.Default())
	s := &sampling.Sampler{Model: rf.Default(), Nodes: nodes, Range: 40, Epsilon: 1, Faults: sched}
	rng := randx.New(seed)
	wrng := randx.New(seed ^ 0x5eed)
	vs := make([]vector.Vector, n)
	prevs := make([]*field.Face, n)
	ws := make([][]float64, n)
	for i := range vs {
		sched.Seek(float64(i % 8))
		p := geom.Pt(rng.Uniform(2, 98), rng.Uniform(2, 98))
		g := s.Sample(p, 5, rng.SplitN("probe", i))
		if i%3 == 1 {
			vs[i] = g.ExtendedVector()
		} else {
			vs[i] = g.Vector()
		}
		if i%2 == 0 {
			prevs[i] = div.FaceAt(p)
		}
		switch i % 4 {
		case 0: // nil: the unweighted kernels
		case 1: // all-ones: must also equal the unweighted kernels bitwise
			w := make([]float64, len(vs[i]))
			for k := range w {
				w[k] = 1
			}
			ws[i] = w
		case 2: // floored low trust on a node's pairs, like a flagged suspect
			w := make([]float64, len(vs[i]))
			for k := range w {
				a, b := vector.PairAt(k, len(nodes))
				if a == i%len(nodes) || b == i%len(nodes) {
					w[k] = 0.05
				} else {
					w[k] = 1
				}
			}
			ws[i] = w
		default: // arbitrary trust vector
			w := make([]float64, len(vs[i]))
			for k := range w {
				w[k] = wrng.Uniform(0.05, 1)
			}
			ws[i] = w
		}
	}
	return vs, prevs, ws
}

// TestMatchWeightedBatchEquivalent is the trust-weighted differential:
// MatchBatchWeighted must be byte-identical to the serial MatchWeighted
// for every lane — heuristic and exhaustive, incremental on and off,
// any batch split — under adversarial vectors and any trust vector.
func TestMatchWeightedBatchEquivalent(t *testing.T) {
	div := buildDivision(t, 16, 2)
	if div.SoA() == nil {
		t.Fatal("division has no SoA store")
	}
	nodes := gridNodes(t, 16)
	vs, prevs, ws := trustProbes(t, div, nodes, 99, 48)
	for _, incremental := range []bool{false, true} {
		t.Run(fmt.Sprintf("heuristic/incremental=%v", incremental), func(t *testing.T) {
			serial := &refHeuristic{Div: div, Incremental: incremental}
			want := make([]Result, len(vs))
			for i := range vs {
				want[i] = serial.MatchWeighted(vs[i], prevs[i], ws[i])
			}
			b := &Batch{Div: div, Incremental: incremental}
			for _, split := range []int{len(vs), 1, 7} {
				var got []Result
				for lo := 0; lo < len(vs); lo += split {
					hi := min(lo+split, len(vs))
					got = b.MatchBatchWeighted(got, vs[lo:hi], prevs[lo:hi], ws[lo:hi])
				}
				for i := range vs {
					requireIdenticalResult(t, fmt.Sprintf("split=%d lane=%d", split, i), want[i], got[i])
				}
			}
		})
	}
	t.Run("exhaustive", func(t *testing.T) {
		ex := &refExhaustive{Div: div}
		b := &Batch{Div: div, Exhaustive: true}
		got := b.MatchBatchWeighted(nil, vs, prevs, ws)
		for i := range vs {
			want := ex.MatchWeighted(vs[i], prevs[i], ws[i])
			requireIdenticalResult(t, fmt.Sprintf("lane=%d", i), want, got[i])
		}
	})
}

// TestMatchWeightedAllOnesIsUnweighted pins the degenerate case the byz
// honest-fleet contract leans on: an all-ones trust vector produces the
// unweighted matcher's results bit for bit (×1.0 is IEEE-exact), and a
// nil weight slice delegates outright.
func TestMatchWeightedAllOnesIsUnweighted(t *testing.T) {
	div := buildDivision(t, 16, 2)
	nodes := gridNodes(t, 16)
	vs, prevs, _ := trustProbes(t, div, nodes, 5, 24)
	ones := make([]float64, len(vs[0]))
	for k := range ones {
		ones[k] = 1
	}
	serial := &Heuristic{Div: div, Incremental: true}
	ex := &Batch{Div: div, Exhaustive: true}
	for i := range vs {
		want := serial.Match(vs[i], prevs[i])
		requireIdenticalResult(t, fmt.Sprintf("heuristic ones lane=%d", i),
			want, serial.MatchWeighted(vs[i], prevs[i], ones))
		requireIdenticalResult(t, fmt.Sprintf("heuristic nil lane=%d", i),
			want, serial.MatchWeighted(vs[i], prevs[i], nil))
		exWant := ex.Match(vs[i], prevs[i])
		requireIdenticalResult(t, fmt.Sprintf("exhaustive ones lane=%d", i),
			exWant, ex.MatchWeighted(vs[i], prevs[i], ones))
	}
}

// TestMatchWeightedFallbackEquivalent forces the weighted below-
// threshold exhaustive rescan on both paths.
func TestMatchWeightedFallbackEquivalent(t *testing.T) {
	div := buildDivision(t, 16, 2)
	nodes := gridNodes(t, 16)
	vs, prevs, ws := trustProbes(t, div, nodes, 13, 24)
	serial := &refHeuristic{Div: div, Incremental: true, Fallback: true, FallbackBelow: 1e9}
	b := &Batch{Div: div, Incremental: true, FallbackBelow: 1e9}
	got := b.MatchBatchWeighted(nil, vs, prevs, ws)
	fellBack := 0
	for i := range vs {
		want := serial.MatchWeighted(vs[i], prevs[i], ws[i])
		if want.FellBack {
			fellBack++
		}
		requireIdenticalResult(t, fmt.Sprintf("lane=%d", i), want, got[i])
	}
	if fellBack == 0 {
		t.Fatal("no lane fell back under the 1e9 threshold; weighted rescan untested")
	}
}
