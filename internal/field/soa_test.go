package field

import (
	"bytes"
	"fmt"
	"math/bits"
	"testing"

	"fttt/internal/geom"
	"fttt/internal/vector"
)

// TestSoASignatureEquality is the SoA-vs-AoS property over seeded
// random deployments: every face's quantized row and column decode to
// exactly the AoS Face.Signature, the bitplanes agree component by
// component, and the popcount distance kernel reproduces the float
// Def. 8 squared distance for ternary queries.
func TestSoASignatureEquality(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			div, _ := randomDivision(t, seed, 6, 1.2, 2)
			s := div.SoA()
			if s == nil {
				t.Fatal("ternary division has no SoA store")
			}
			if s.Denom != 1 {
				t.Fatalf("ternary division quantized at denom %d, want 1", s.Denom)
			}
			if s.NumFaces != div.NumFaces() || s.Dim != div.Faces[0].Signature.Dim() {
				t.Fatalf("SoA dims %dx%d, division %dx%d",
					s.NumFaces, s.Dim, div.NumFaces(), div.Faces[0].Signature.Dim())
			}
			var scratch vector.Vector
			for f := range div.Faces {
				aos := div.Faces[f].Signature
				scratch = s.Signature(scratch[:0], f)
				if !vector.Equal(scratch, aos) {
					t.Fatalf("face %d: SoA row decodes to %v, AoS %v", f, scratch, aos)
				}
				pos, neg := s.FacePlanes(f)
				for k := 0; k < s.Dim; k++ {
					if got := s.Cols[k*s.NumFaces+f]; got != s.Rows[f*s.Dim+k] {
						t.Fatalf("face %d comp %d: col code %d != row code %d", f, k, got, s.Rows[f*s.Dim+k])
					}
					wantPos := aos[k] == vector.Nearer
					wantNeg := aos[k] == vector.Farther
					if gotPos := pos[k/64]&(1<<(k%64)) != 0; gotPos != wantPos {
						t.Fatalf("face %d comp %d: PosBits %v, want %v", f, k, gotPos, wantPos)
					}
					if gotNeg := neg[k/64]&(1<<(k%64)) != 0; gotNeg != wantNeg {
						t.Fatalf("face %d comp %d: NegBits %v, want %v", f, k, gotNeg, wantNeg)
					}
				}
			}
		})
	}
}

// TestSoAPopcountDistance checks the bitplane distance kernel against
// the float Def. 8 distance for ternary/star queries: the float sum of
// integer-valued terms is exactly the popcount integer.
func TestSoAPopcountDistance(t *testing.T) {
	div, _ := randomDivision(t, 3, 6, 1.2, 2)
	s := div.SoA()
	dim := s.Dim
	// A few query shapes: all values of one kind, then mixtures keyed off
	// the component index.
	queries := make([]vector.Vector, 0, 8)
	for _, fill := range []vector.Value{vector.Nearer, vector.Farther, vector.Flipped, vector.Star} {
		q := make(vector.Vector, dim)
		for k := range q {
			q[k] = fill
		}
		queries = append(queries, q)
	}
	for variant := 0; variant < 4; variant++ {
		q := make(vector.Vector, dim)
		for k := range q {
			switch (k + variant) % 4 {
			case 0:
				q[k] = vector.Nearer
			case 1:
				q[k] = vector.Farther
			case 2:
				q[k] = vector.Flipped
			default:
				q[k] = vector.Star
			}
		}
		queries = append(queries, q)
	}
	qPos := make([]uint64, s.Words)
	qNeg := make([]uint64, s.Words)
	qMask := make([]uint64, s.Words)
	for _, q := range queries {
		for w := range qPos {
			qPos[w], qNeg[w], qMask[w] = 0, 0, 0
		}
		for k, x := range q {
			if x.IsStar() {
				continue
			}
			qMask[k/64] |= 1 << (k % 64)
			switch x {
			case vector.Nearer:
				qPos[k/64] |= 1 << (k % 64)
			case vector.Farther:
				qNeg[k/64] |= 1 << (k % 64)
			}
		}
		for f := range div.Faces {
			// The serial matcher's squared distance: a float sum of the
			// per-component squared diffs in ascending pair order. All
			// terms are small integers, so the float sum is exact and
			// must equal the popcount integer bit for bit.
			sig := div.Faces[f].Signature
			var want float64
			for k := range q {
				if q[k].IsStar() || sig[k].IsStar() {
					continue
				}
				d := float64(q[k] - sig[k])
				want += d * d
			}
			got := s.popcountDiff(qPos, qNeg, qMask, f)
			if float64(got) != want {
				t.Fatalf("face %d query %v: popcount d2 %d, float d2 %v", f, q, got, want)
			}
		}
	}
}

// TestSoASurvivesSaveLoad pins that a loaded division rebuilds a store
// identical to the one built at divide time — the fieldcache disk-spill
// path must batch-match exactly like the original.
func TestSoASurvivesSaveLoad(t *testing.T) {
	rc := gridClassifier(t, 9, defaultC())
	orig, err := Divide(fieldRect, rc, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, b := orig.SoA(), loaded.SoA()
	if a == nil || b == nil {
		t.Fatalf("SoA store missing: orig=%v loaded=%v", a != nil, b != nil)
	}
	if a.NumFaces != b.NumFaces || a.Dim != b.Dim || a.Denom != b.Denom || a.Words != b.Words {
		t.Fatalf("header mismatch: %+v vs %+v", a, b)
	}
	if !bytes.Equal(int8Bytes(a.Cols), int8Bytes(b.Cols)) || !bytes.Equal(int8Bytes(a.Rows), int8Bytes(b.Rows)) {
		t.Fatal("quantized codes differ after Save/Load")
	}
	for i := range a.PosBits {
		if a.PosBits[i] != b.PosBits[i] || a.NegBits[i] != b.NegBits[i] {
			t.Fatalf("bitplane word %d differs after Save/Load", i)
		}
	}
}

func int8Bytes(s []int8) []byte {
	out := make([]byte, len(s))
	for i, v := range s {
		out[i] = byte(v)
	}
	return out
}

// TestSoANilOnUnquantizable pins the fallback contract: a classifier
// emitting values no int8 denominator represents leaves SoA nil
// instead of storing a lossy approximation.
func TestSoANilOnUnquantizable(t *testing.T) {
	div, err := Divide(geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10)), irrationalClassifier{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if div.SoA() != nil {
		t.Fatal("unquantizable signatures produced an SoA store")
	}
}

// irrationalClassifier emits a value representable by no denominator.
type irrationalClassifier struct{}

func (irrationalClassifier) NumNodes() int { return 2 }
func (irrationalClassifier) Classify(p geom.Point, i, j int) vector.Value {
	return vector.Value(0.123456789)
}

// TestSoAStarSignatureHasNoPlanes pins the bitplane guard: a signature
// containing Star still quantizes (Star has a reserved code), but the
// two-plane ternary form cannot encode its always-zero Def. 8
// contribution — such a store must carry codes only, no planes.
func TestSoAStarSignatureHasNoPlanes(t *testing.T) {
	div, err := Divide(geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10)), starClassifier{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := div.SoA()
	if s == nil {
		t.Fatal("star-bearing ternary division has no SoA store")
	}
	if s.Denom != 1 {
		t.Fatalf("denom %d, want 1", s.Denom)
	}
	if s.PosBits != nil || s.NegBits != nil {
		t.Fatal("star-bearing signatures built bitplanes; stored Star would alias 0")
	}
	var scratch vector.Vector
	for f := range div.Faces {
		scratch = s.Signature(scratch[:0], f)
		if !vector.Equal(scratch, div.Faces[f].Signature) {
			t.Fatalf("face %d: SoA row decodes to %v, AoS %v", f, scratch, div.Faces[f].Signature)
		}
	}
}

// starClassifier emits one Star pair amid ternary values.
type starClassifier struct{}

func (starClassifier) NumNodes() int { return 3 }
func (starClassifier) Classify(p geom.Point, i, j int) vector.Value {
	if i == 0 && j == 1 {
		return vector.Star
	}
	if p.X < 5 {
		return vector.Nearer
	}
	return vector.Farther
}

// TestSoAAdaptiveDivide pins that the double-level AdaptiveDivide path
// (which ends in the same assembly as Divide and Load) also carries
// a store, and that every stored row decodes to its face's AoS
// signature — face ordering may differ from Divide's, the per-face
// content may not.
func TestSoAAdaptiveDivide(t *testing.T) {
	rc := gridClassifier(t, 9, defaultC())
	adaptive, err := AdaptiveDivide(fieldRect, rc, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := adaptive.SoA()
	if s == nil {
		t.Fatal("adaptive division has no SoA store")
	}
	var scratch vector.Vector
	for f := range adaptive.Faces {
		scratch = s.Signature(scratch[:0], f)
		if !vector.Equal(scratch, adaptive.Faces[f].Signature) {
			t.Fatalf("face %d: SoA row decodes to %v, AoS %v", f, scratch, adaptive.Faces[f].Signature)
		}
	}
}

// popcountDiff is the tests' reference popcount kernel: the bitplane
// squared distance of a ternary query against face f, computed the
// popcount way (4·|sign flips| + 1·|one-sided zeros|).
func (s *SigSoA) popcountDiff(qPos, qNeg, qMask []uint64, f int) int {
	base := f * s.Words
	c4, c1 := 0, 0
	for w := 0; w < s.Words; w++ {
		sp, sn := s.PosBits[base+w], s.NegBits[base+w]
		qp, qn, qm := qPos[w], qNeg[w], qMask[w]
		c4 += bits.OnesCount64((qp & sn) | (qn & sp))
		qz := qm &^ (qp | qn)
		c1 += bits.OnesCount64((qz & (sp | sn)) | ((qp | qn) &^ (sp | sn)))
	}
	return 4*c4 + c1
}
