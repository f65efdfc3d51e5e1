package field

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"fttt/internal/vector"
)

// TestSoASignatureEquality is the store property over seeded random
// deployments: every face's Signature is its row of the store (the
// same memory, not a copy), every code is ternary, and the bitplanes
// agree component by component.
func TestSoASignatureEquality(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			div, _ := randomDivision(t, seed, 6, 1.2, 2)
			s := div.SoA()
			if s.NumFaces != div.NumFaces() || s.Dim != len(div.Faces[0].Signature) {
				t.Fatalf("SoA dims %dx%d, division %dx%d",
					s.NumFaces, s.Dim, div.NumFaces(), len(div.Faces[0].Signature))
			}
			for f := range div.Faces {
				sig := div.Faces[f].Signature
				if &sig[0] != &s.Rows[f*s.Dim] || len(sig) != s.Dim || cap(sig) != s.Dim {
					t.Fatalf("face %d: Signature is not a capped view of its store row", f)
				}
				pos, neg := s.FacePlanes(f)
				for k, c := range sig {
					if c < -1 || c > 1 {
						t.Fatalf("face %d comp %d: code %d is not ternary", f, k, c)
					}
					wantPos := c == 1
					wantNeg := c == -1
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
				if q[k].IsStar() {
					continue
				}
				d := float64(q[k]) - float64(sig[k])
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
	if a.NumFaces != b.NumFaces || a.Dim != b.Dim || a.Words != b.Words {
		t.Fatalf("header mismatch: %+v vs %+v", a, b)
	}
	if !slices.Equal(a.Rows, b.Rows) {
		t.Fatal("codes differ after Save/Load")
	}
	for i := range a.PosBits {
		if a.PosBits[i] != b.PosBits[i] || a.NegBits[i] != b.NegBits[i] {
			t.Fatalf("bitplane word %d differs after Save/Load", i)
		}
	}
}

// TestSoAAdaptiveDivide pins that the double-level AdaptiveDivide path
// (which ends in the same assembly as Divide and Load) also carries a
// store with bitplanes, and that every stored row is its face's
// signature — face ordering may differ from Divide's, the per-face
// content may not.
func TestSoAAdaptiveDivide(t *testing.T) {
	rc := gridClassifier(t, 9, defaultC())
	adaptive, err := AdaptiveDivide(fieldRect, rc, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := adaptive.SoA()
	if len(s.PosBits) != s.NumFaces*s.Words || len(s.NegBits) != s.NumFaces*s.Words {
		t.Fatalf("adaptive store bitplanes %d/%d words, want %d", len(s.PosBits), len(s.NegBits), s.NumFaces*s.Words)
	}
	for f := range adaptive.Faces {
		if !slices.Equal(s.FaceRow(f), adaptive.Faces[f].Signature) {
			t.Fatalf("face %d: store row %v, signature %v", f, s.FaceRow(f), adaptive.Faces[f].Signature)
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
