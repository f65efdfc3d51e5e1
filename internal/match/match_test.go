package match

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"fttt/internal/deploy"
	"fttt/internal/field"
	"fttt/internal/geom"
	"fttt/internal/randx"
	"fttt/internal/rf"
	"fttt/internal/vector"
)

var fieldRect = geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))

// vec is the signature vector of a face's code row.
func vec(row []int8) vector.Vector { return vector.AppendCodes(nil, row) }

func buildDivision(t testing.TB, n int, cell float64) *field.Division {
	t.Helper()
	div, _ := buildDivisionClassifier(t, n, cell)
	return div
}

func buildDivisionClassifier(t testing.TB, n int, cell float64) (*field.Division, *field.RatioClassifier) {
	t.Helper()
	d := deploy.Grid(fieldRect, n)
	c := rf.Default().UncertaintyC(1)
	rc, err := field.NewRatioClassifier(d.Positions(), c)
	if err != nil {
		t.Fatal(err)
	}
	div, err := field.Divide(fieldRect, rc, cell)
	if err != nil {
		t.Fatal(err)
	}
	return div, rc
}

func TestExhaustiveFindsExactSignature(t *testing.T) {
	div := buildDivision(t, 4, 2)
	m := &Exhaustive{Div: div}
	for _, f := range div.Faces[:minInt(20, len(div.Faces))] {
		r := m.Match(vec(f.Signature), nil)
		if !math.IsInf(r.Similarity, 1) {
			t.Fatalf("face %d: exact signature similarity = %v, want +Inf", f.ID, r.Similarity)
		}
		if r.Tied == 1 && r.Face.ID != f.ID {
			t.Fatalf("face %d: matched %d instead", f.ID, r.Face.ID)
		}
	}
}

func TestExhaustiveVisitsAll(t *testing.T) {
	div := buildDivision(t, 4, 2)
	m := &Exhaustive{Div: div}
	r := m.Match(vec(div.Faces[0].Signature), nil)
	if r.Visited != div.NumFaces() {
		t.Errorf("Visited = %d, want %d", r.Visited, div.NumFaces())
	}
}

func TestExhaustiveNearestForPerturbed(t *testing.T) {
	// Perturb one component of a face signature; the original face should
	// still be among the best (distance 1).
	div := buildDivision(t, 4, 2)
	m := &Exhaustive{Div: div}
	f := &div.Faces[div.NumFaces()/2]
	v := vec(f.Signature)
	// Flip a certain component to uncertain (distance 1 from original).
	flipped := false
	for k := range v {
		if v[k] != vector.Flipped {
			v[k] = vector.Flipped
			flipped = true
			break
		}
	}
	if !flipped {
		t.Skip("face has all-flipped signature")
	}
	r := m.Match(v, nil)
	if r.Similarity < 1 { // distance must be ≤ 1
		t.Errorf("similarity = %v, want ≥ 1", r.Similarity)
	}
}

func TestTieEstimateIsMeanOfCentroids(t *testing.T) {
	// Craft a division-like tie using the real matcher: find two faces at
	// equal distance from a probe vector.
	div := buildDivision(t, 4, 2)
	m := &Exhaustive{Div: div}
	// Probe with an impossible all-star-free vector far from everything:
	// all zeros is plausible; just assert the invariant Estimate == mean
	// of tied centroids whenever Tied > 1.
	r := m.Match(vector.New(4), nil)
	if r.Tied > 1 {
		if !fieldRect.Contains(r.Estimate) {
			t.Errorf("tied estimate %v outside field", r.Estimate)
		}
	}
	_ = r
}

func TestHeuristicConvergesToExhaustiveNearPrev(t *testing.T) {
	// When warm-started at the true face, the heuristic must return a
	// face at least as similar as the start.
	div := buildDivision(t, 9, 2)
	h := &Heuristic{Div: div}
	rng := randx.New(1)
	for trial := 0; trial < 100; trial++ {
		p := geom.Pt(rng.Uniform(5, 95), rng.Uniform(5, 95))
		f := div.FaceAt(p)
		r := h.Match(vec(f.Signature), f)
		if !math.IsInf(r.Similarity, 1) {
			t.Fatalf("warm start at exact face should match exactly, got sim %v", r.Similarity)
		}
	}
}

func TestHeuristicVisitsFewerThanExhaustive(t *testing.T) {
	div := buildDivision(t, 9, 2)
	ex := &Exhaustive{Div: div}
	h := &Heuristic{Div: div}
	rng := randx.New(2)
	sumEx, sumH := 0, 0
	for trial := 0; trial < 50; trial++ {
		p := geom.Pt(rng.Uniform(5, 95), rng.Uniform(5, 95))
		f := div.FaceAt(p)
		// Probe with the face's own signature warm-started nearby.
		q := geom.Pt(p.X+3, p.Y)
		prev := div.FaceAt(fieldRect.Clamp(q))
		sumEx += ex.Match(vec(f.Signature), nil).Visited
		sumH += h.Match(vec(f.Signature), prev).Visited
	}
	if sumH >= sumEx {
		t.Errorf("heuristic visited %d ≥ exhaustive %d", sumH, sumEx)
	}
}

func TestHeuristicColdStart(t *testing.T) {
	div := buildDivision(t, 4, 2)
	h := &Heuristic{Div: div}
	r := h.Match(vec(div.Faces[0].Signature), nil)
	if r.Face == nil {
		t.Fatal("nil face")
	}
	if r.Rounds < 1 {
		t.Errorf("Rounds = %d, want ≥ 1", r.Rounds)
	}
}

func TestHeuristicFallback(t *testing.T) {
	div := buildDivision(t, 9, 2)
	noFB := &Heuristic{Div: div}
	fb := &Heuristic{Div: div, Fallback: true, FallbackBelow: math.Inf(1)}
	// With an infinite threshold the fallback always fires, so the result
	// must equal the exhaustive answer.
	ex := &Exhaustive{Div: div}
	rng := randx.New(3)
	for trial := 0; trial < 30; trial++ {
		p := geom.Pt(rng.Uniform(5, 95), rng.Uniform(5, 95))
		v := vec(div.FaceAt(p).Signature)
		want := ex.Match(v, nil)
		got := fb.Match(v, nil)
		if got.Similarity != want.Similarity {
			t.Fatalf("fallback similarity %v != exhaustive %v", got.Similarity, want.Similarity)
		}
		// When the climb already matched exactly (+Inf) the fallback does
		// not fire; otherwise the fallback scan adds to Visited.
		if !math.IsInf(got.Similarity, 1) && got.Visited <= want.Visited {
			t.Fatalf("fallback should visit more than exhaustive alone")
		}
		_ = noFB
	}
}

func TestHeuristicEstimateInsideField(t *testing.T) {
	div := buildDivision(t, 9, 2)
	h := &Heuristic{Div: div}
	rng := randx.New(4)
	for trial := 0; trial < 50; trial++ {
		p := geom.Pt(rng.Uniform(0, 100), rng.Uniform(0, 100))
		r := h.Match(vec(div.FaceAt(p).Signature), nil)
		if !fieldRect.Contains(r.Estimate) {
			t.Fatalf("estimate %v outside field", r.Estimate)
		}
	}
}

func TestMatchersAgreeOnExactSignatures(t *testing.T) {
	// For exact face signatures, heuristic warm-started at a neighbor
	// should land on a face with infinite similarity (the face itself or
	// an identical-signature face).
	div := buildDivision(t, 9, 2)
	h := &Heuristic{Div: div}
	for i := range div.Faces[:minInt(30, len(div.Faces))] {
		f := &div.Faces[i]
		if len(f.Neighbors) == 0 {
			continue
		}
		prev := &div.Faces[f.Neighbors[0]]
		r := h.Match(vec(f.Signature), prev)
		if !math.IsInf(r.Similarity, 1) {
			// A one-step climb can stall on plateaus; allow distance 1.
			if r.Similarity < 1 {
				t.Errorf("face %d from neighbor: sim %v too low", f.ID, r.Similarity)
			}
		}
	}
}

func TestWeightedTopMOneEqualsExhaustive(t *testing.T) {
	div := buildDivision(t, 9, 2)
	ex := &Exhaustive{Div: div}
	w1 := &WeightedTopM{Div: div, M: 1}
	rng := randx.New(7)
	for trial := 0; trial < 40; trial++ {
		p := geom.Pt(rng.Uniform(5, 95), rng.Uniform(5, 95))
		v := vec(div.FaceAt(p).Signature)
		re := ex.Match(v, nil)
		rw := w1.Match(v, nil)
		if re.Face.ID != rw.Face.ID && re.Tied == 1 {
			t.Fatalf("M=1 winner %d != exhaustive %d", rw.Face.ID, re.Face.ID)
		}
	}
}

func TestWeightedTopMExactMatchAveragesOnlyExact(t *testing.T) {
	div := buildDivision(t, 4, 2)
	w := &WeightedTopM{Div: div, M: 5}
	f := &div.Faces[div.NumFaces()/3]
	r := w.Match(vec(f.Signature), nil)
	if !math.IsInf(r.Similarity, 1) {
		t.Fatalf("exact signature should match with +Inf, got %v", r.Similarity)
	}
	// With a unique exact match the estimate is that face's centroid.
	if r.Tied == 1 && !r.Estimate.Eq(f.Centroid) {
		t.Errorf("estimate %v, want centroid %v", r.Estimate, f.Centroid)
	}
}

func TestWeightedTopMEstimateInField(t *testing.T) {
	div := buildDivision(t, 9, 2)
	w := &WeightedTopM{Div: div, M: 8}
	rng := randx.New(8)
	for trial := 0; trial < 40; trial++ {
		// Perturbed vector: flip a few components.
		p := geom.Pt(rng.Uniform(5, 95), rng.Uniform(5, 95))
		v := vec(div.FaceAt(p).Signature)
		for j := 0; j < 3; j++ {
			v[rng.Intn(len(v))] = vector.Flipped
		}
		r := w.Match(v, nil)
		if !fieldRect.Contains(r.Estimate) {
			t.Fatalf("estimate %v outside field", r.Estimate)
		}
	}
}

func TestWeightedTopMDefaultsM(t *testing.T) {
	div := buildDivision(t, 4, 2)
	w := &WeightedTopM{Div: div} // M unset → 1
	r := w.Match(vec(div.Faces[0].Signature), nil)
	if r.Face == nil {
		t.Fatal("nil face")
	}
	if r.Visited != div.NumFaces() {
		t.Errorf("Visited = %d, want all", r.Visited)
	}
}

func TestIncrementalMatchesFull(t *testing.T) {
	div := buildDivision(t, 16, 2)
	full := &Heuristic{Div: div}
	inc := &Heuristic{Div: div, Incremental: true}
	rng := randx.New(21)
	var prevF, prevI *field.Face
	for trial := 0; trial < 200; trial++ {
		// Noisy probe vectors, including stars.
		p := geom.Pt(rng.Uniform(5, 95), rng.Uniform(5, 95))
		v := vec(div.FaceAt(p).Signature)
		for j := 0; j < 4; j++ {
			k := rng.Intn(len(v))
			switch rng.Intn(3) {
			case 0:
				v[k] = vector.Flipped
			case 1:
				v[k] = vector.Nearer
			default:
				v[k] = vector.Star
			}
		}
		rf := full.Match(v, prevF)
		ri := inc.Match(v, prevI)
		prevF, prevI = rf.Face, ri.Face
		if rf.Face.ID != ri.Face.ID {
			// Heap ties can break differently under float drift; accept
			// equal-distance winners.
			df := vector.Distance(v, vec(rf.Face.Signature))
			di := vector.Distance(v, vec(ri.Face.Signature))
			if math.Abs(df-di) > 1e-9 {
				t.Fatalf("trial %d: incremental face %d (d=%v) != full %d (d=%v)",
					trial, ri.Face.ID, di, rf.Face.ID, df)
			}
		}
	}
}

func TestIncrementalExactMatch(t *testing.T) {
	div := buildDivision(t, 9, 2)
	inc := &Heuristic{Div: div, Incremental: true}
	for i := 0; i < minInt(20, div.NumFaces()); i++ {
		f := &div.Faces[i]
		if len(f.Neighbors) == 0 {
			continue
		}
		prev := &div.Faces[f.Neighbors[0]]
		r := inc.Match(vec(f.Signature), prev)
		if r.Similarity < 1 {
			t.Errorf("face %d from neighbor: similarity %v too low", f.ID, r.Similarity)
		}
	}
}

func TestNeighborDiffsConsistent(t *testing.T) {
	div := buildDivision(t, 9, 2)
	for _, f := range div.Faces {
		if len(f.NeighborDiffs) != len(f.Neighbors) {
			t.Fatalf("face %d: %d diffs for %d neighbors", f.ID, len(f.NeighborDiffs), len(f.Neighbors))
		}
		for ni, nb := range f.Neighbors {
			nbSig := div.Faces[nb].Signature
			// Every listed component differs, every unlisted matches.
			listed := map[int]bool{}
			for _, k := range f.NeighborDiffs[ni] {
				listed[k] = true
				if f.Signature[k] == nbSig[k] {
					t.Fatalf("face %d↔%d: component %d listed but equal", f.ID, nb, k)
				}
			}
			for k := range f.Signature {
				if !listed[k] && f.Signature[k] != nbSig[k] {
					t.Fatalf("face %d↔%d: component %d differs but unlisted", f.ID, nb, k)
				}
			}
		}
	}
}

func BenchmarkHeuristicFull(b *testing.B) {
	benchHeuristic(b, false)
}

func BenchmarkHeuristicIncremental(b *testing.B) {
	benchHeuristic(b, true)
}

func benchHeuristic(b *testing.B, incremental bool) {
	d := deploy.Grid(fieldRect, 36)
	c := rf.Default().UncertaintyC(1)
	rc, err := field.NewRatioClassifier(d.Positions(), c)
	if err != nil {
		b.Fatal(err)
	}
	div, err := field.Divide(fieldRect, rc, 2)
	if err != nil {
		b.Fatal(err)
	}
	h := &Heuristic{Div: div, Incremental: incremental}
	rng := randx.New(5)
	v := vec(div.FaceAt(geom.Pt(47, 53)).Signature)
	for j := 0; j < 10; j++ {
		v[rng.Intn(len(v))] = vector.Flipped
	}
	prev := div.FaceAt(geom.Pt(50, 50))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := h.Match(v, prev)
		prev = r.Face
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestWeightedTopMTieCountMatchesExhaustive(t *testing.T) {
	// WeightedTopM used to hardcode Tied: 1; it must report the true
	// number of maximum-similarity faces, exactly like Exhaustive.
	div, rc := buildDivisionClassifier(t, 9, 2)
	ex := &Exhaustive{Div: div}
	w := &WeightedTopM{Div: div, M: 3}
	rng := randx.New(11)
	sawTie := false
	for trial := 0; trial < 200; trial++ {
		p := geom.Pt(rng.Uniform(-5, 105), rng.Uniform(-5, 105))
		v := field.Signature(rc, fieldRect.Clamp(p))
		// Perturb some components to provoke inexact, tie-prone probes.
		if trial%2 == 0 {
			for k := 0; k < len(v); k += 7 {
				v[k] = vector.Flipped
			}
		}
		want := ex.Match(v, nil).Tied
		got := w.Match(v, nil).Tied
		if got != want {
			t.Fatalf("trial %d: WeightedTopM Tied = %d, Exhaustive Tied = %d", trial, got, want)
		}
		if want > 1 {
			sawTie = true
		}
	}
	if !sawTie {
		t.Error("no trial produced a tie; test exercises nothing")
	}
}

func TestHeuristicScratchReuseDeterministic(t *testing.T) {
	// A matcher reused across many calls (epoch-stamped visited slice,
	// recycled frontier heap) must return exactly what a fresh matcher
	// returns on every call.
	div, rc := buildDivisionClassifier(t, 9, 2)
	reused := &Heuristic{Div: div}
	rng := randx.New(12)
	var prev *field.Face
	for trial := 0; trial < 300; trial++ {
		p := geom.Pt(rng.Uniform(2, 98), rng.Uniform(2, 98))
		v := field.Signature(rc, p)
		if trial%5 == 0 {
			prev = nil // exercise cold starts amid warm ones
		}
		fresh := &Heuristic{Div: div}
		a := reused.Match(v, prev)
		b := fresh.Match(v, prev)
		if a.Face.ID != b.Face.ID || a.Similarity != b.Similarity ||
			a.Estimate != b.Estimate || a.Tied != b.Tied ||
			a.Visited != b.Visited || a.Rounds != b.Rounds {
			t.Fatalf("trial %d: reused %+v vs fresh %+v", trial, a, b)
		}
		prev = a.Face
	}
}

func TestHeuristicPerGoroutineOverSharedDivision(t *testing.T) {
	// The documented concurrency model: one Heuristic per goroutine, all
	// sharing one immutable Division. Run under -race; also check each
	// goroutine's results equal the serial reference.
	div, rc := buildDivisionClassifier(t, 9, 2)
	const goroutines, probes = 8, 60

	type probe struct {
		v    vector.Vector
		prev *field.Face
	}
	mkProbes := func(seed uint64) []probe {
		rng := randx.New(seed)
		ps := make([]probe, probes)
		for i := range ps {
			p := geom.Pt(rng.Uniform(2, 98), rng.Uniform(2, 98))
			ps[i].v = field.Signature(rc, p)
			if i%3 != 0 {
				ps[i].prev = div.FaceAt(p)
			}
		}
		return ps
	}
	serial := func(ps []probe) []Result {
		h := &Heuristic{Div: div}
		out := make([]Result, len(ps))
		for i, pr := range ps {
			out[i] = h.Match(pr.v, pr.prev)
		}
		return out
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ps := mkProbes(uint64(100 + g))
			want := serial(ps)
			h := &Heuristic{Div: div}
			for i, pr := range ps {
				got := h.Match(pr.v, pr.prev)
				if got.Face.ID != want[i].Face.ID || got.Estimate != want[i].Estimate {
					errs <- fmt.Errorf("goroutine %d probe %d: %+v vs %+v", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
