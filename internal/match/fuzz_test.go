package match

import (
	"math"
	"sync"
	"testing"

	"fttt/internal/field"
	"fttt/internal/geom"
	"fttt/internal/vector"
)

// fuzzDiv lazily builds one small shared division for the matcher fuzz
// target (divisions are immutable, so sharing across iterations is safe).
var fuzzDiv = sync.OnceValue(func() *field.Division {
	nodes := []geom.Point{
		geom.Pt(8, 8), geom.Pt(32, 8), geom.Pt(20, 20),
		geom.Pt(8, 32), geom.Pt(32, 32), geom.Pt(20, 36),
	}
	cls, err := field.NewRatioClassifier(nodes, 1.2)
	if err != nil {
		panic(err)
	}
	div, err := field.Divide(geom.NewRect(geom.Pt(0, 0), geom.Pt(40, 40)), cls, 2)
	if err != nil {
		panic(err)
	}
	return div
})

// decodeValue maps one fuzz byte onto a legal sampling-vector value
// (ternary, Star, or a Def. 10 fractional).
func decodeValue(b byte) vector.Value {
	switch b % 6 {
	case 0:
		return vector.Farther
	case 1:
		return vector.Flipped
	case 2:
		return vector.Nearer
	case 3:
		return vector.Star
	default:
		return vector.Value(float64(b)/127.5 - 1)
	}
}

// FuzzMatchBatchEquivalence is the batch matcher's differential fuzz
// target: arbitrary legal sampling vectors (ternary, Star and Def. 10
// fractional values), arbitrary warm starts, batch sizes and split
// points must produce results byte-identical to the serial reference
// matchers (reference_test.go) —
// same face IDs, bitwise-equal similarity and estimate, same search
// statistics — in both heuristic and exhaustive modes.
func FuzzMatchBatchEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5, 0, 1, 2}, uint16(0), uint8(4), false)
	f.Add([]byte{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3}, uint16(7), uint8(1), true)
	f.Add([]byte{4, 5, 4, 5, 4, 5, 4, 5, 4, 5, 4, 5, 4, 5, 4}, uint16(99), uint8(3), false)
	f.Fuzz(func(t *testing.T, data []byte, warm uint16, nlanes uint8, exhaustive bool) {
		div := fuzzDiv()
		dim := vector.NumPairs(6)
		lanes := 1 + int(nlanes)%8
		vs := make([]vector.Vector, lanes)
		prevs := make([]*field.Face, lanes)
		for l := 0; l < lanes; l++ {
			v := make(vector.Vector, dim)
			for k := 0; k < dim; k++ {
				idx := l*dim + k
				if idx < len(data) {
					v[k] = decodeValue(data[idx])
				} else {
					v[k] = decodeValue(byte(idx) * 31)
				}
			}
			vs[l] = v
			if l%2 == 0 {
				prevs[l] = &div.Faces[(int(warm)+l)%div.NumFaces()]
			}
		}

		want := make([]Result, lanes)
		if exhaustive {
			ex := &refExhaustive{Div: div}
			for l := range vs {
				want[l] = ex.MatchWeighted(vs[l], prevs[l], nil)
			}
		} else {
			serial := &refHeuristic{Div: div, Incremental: true}
			for l := range vs {
				want[l] = serial.MatchWeighted(vs[l], prevs[l], nil)
			}
		}

		b := &Batch{Div: div, Incremental: true, Exhaustive: exhaustive}
		// One whole-batch pass plus a split at a data-derived point:
		// regrouping the same lanes must not change a single bit.
		split := 1 + int(warm)%lanes
		for _, bounds := range [][2]int{{0, lanes}, {0, split}, {split, lanes}} {
			lo, hi := bounds[0], bounds[1]
			if lo == hi {
				continue
			}
			got := b.MatchBatchWeighted(nil, vs[lo:hi], prevs[lo:hi], nil)
			for l := range got {
				w, g := want[lo+l], got[l]
				if w.Face != g.Face ||
					math.Float64bits(w.Similarity) != math.Float64bits(g.Similarity) ||
					math.Float64bits(w.Estimate.X) != math.Float64bits(g.Estimate.X) ||
					math.Float64bits(w.Estimate.Y) != math.Float64bits(g.Estimate.Y) ||
					w.Tied != g.Tied || w.Visited != g.Visited ||
					w.Rounds != g.Rounds || w.FellBack != g.FellBack {
					t.Fatalf("lane %d (of [%d:%d], exhaustive=%v): batch %+v, serial %+v",
						lo+l, lo, hi, exhaustive, g, w)
				}
			}
		}
	})
}

// FuzzHeuristicMatch checks Algorithm 2's bounded best-first search
// against the exhaustive ground truth on arbitrary sampling vectors and
// warm starts: it never panics, always returns an in-division face, is
// never better than the global optimum, and — warm-started at the
// exhaustive winner — always attains it.
func FuzzHeuristicMatch(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5, 0, 1, 2}, uint16(0), false)
	f.Add([]byte{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3}, uint16(7), true)
	f.Add([]byte{2, 2, 2, 2, 2}, uint16(999), true)
	f.Fuzz(func(t *testing.T, data []byte, warm uint16, incremental bool) {
		div := fuzzDiv()
		dim := vector.NumPairs(6)
		v := make(vector.Vector, dim)
		for k := 0; k < dim; k++ {
			if k < len(data) {
				v[k] = decodeValue(data[k])
			} else {
				v[k] = vector.Flipped
			}
		}

		ex := (&refExhaustive{Div: div}).MatchWeighted(v, nil, nil)
		if ex.Face == nil || ex.Face.ID < 0 || ex.Face.ID >= div.NumFaces() {
			t.Fatalf("exhaustive returned face %+v", ex.Face)
		}

		start := &div.Faces[int(warm)%div.NumFaces()]
		h := &Heuristic{Div: div, Incremental: incremental}
		got := h.Match(v, start)
		if got.Face == nil || got.Face.ID < 0 || got.Face.ID >= div.NumFaces() {
			t.Fatalf("heuristic returned face %+v", got.Face)
		}
		if math.IsNaN(got.Similarity) || got.Similarity < 0 {
			t.Fatalf("heuristic similarity = %v", got.Similarity)
		}
		if !div.Field.Contains(got.Estimate) {
			t.Fatalf("estimate %v outside the field", got.Estimate)
		}
		// The local search can converge short of the global optimum but
		// never beyond it (small slack for incremental-update rounding).
		if got.Similarity > ex.Similarity*(1+1e-9)+1e-12 && !math.IsInf(ex.Similarity, 1) {
			t.Fatalf("heuristic similarity %v beats exhaustive %v", got.Similarity, ex.Similarity)
		}
		// Soundness anchor: warm-started at the exhaustive winner the
		// search cannot lose it — the start face is always in the frontier.
		anchored := h.Match(v, ex.Face)
		as, es := anchored.Similarity, ex.Similarity
		if math.IsInf(es, 1) {
			if !math.IsInf(as, 1) {
				t.Fatalf("anchored search lost the exact match: %v", as)
			}
		} else if as < es*(1-1e-9)-1e-12 {
			t.Fatalf("anchored similarity %v below exhaustive %v", as, es)
		}
	})
}
