package field

import (
	"math/bits"

	"fttt/internal/vector"
)

// SigSoA is the division's structure-of-arrays signature store: every
// face signature quantized to int8 (vector.Quantize, lossless by
// construction) and laid out contiguously so the batch matcher
// (internal/match.Batch) streams it with blocked loops instead of
// chasing per-face float64 slices.
//
// Three derived views share the one quantized truth:
//
//   - Cols holds one contiguous column per node pair: Cols[k*NumFaces+f]
//     is component k of face f's signature. Scanning all faces at one
//     component is a unit-stride walk.
//   - Rows is the row-major transpose: Rows[f*Dim+k]. Scanning one
//     face's whole signature is a unit-stride walk.
//   - PosBits/NegBits are two bitplanes over Rows for ternary
//     signatures: bit k of face f's Words-word block is set in PosBits
//     iff the component is +1, in NegBits iff it is −1 (0 sets
//     neither). With 64 components per word, a whole squared modified
//     distance (Def. 8) against a ternary query reduces to a handful of
//     AND/OR/popcount ops per 64 pairs.
//
// A SigSoA is immutable after construction and shared like the Division
// that owns it.
type SigSoA struct {
	// NumFaces and Dim are the store's dimensions (faces × node pairs).
	NumFaces int
	Dim      int
	// Denom is the quantization denominator every code decodes against
	// (vector.Dequantize). Ternary divisions — every division the
	// RatioClassifier builds — have Denom 1.
	Denom int
	// Cols is the column-major (pair-major) view: Cols[k*NumFaces+f].
	Cols []int8
	// Rows is the row-major (face-major) view: Rows[f*Dim+k].
	Rows []int8
	// Words is the per-face bitplane word count: ⌈Dim/64⌉.
	Words int
	// PosBits and NegBits are the per-face bitplanes: bit k%64 of word
	// f*Words + k/64 reflects component k of face f. Nil when Denom != 1
	// or any stored component is Star (such signatures have no two-plane
	// form; the matcher's float kernel reads Rows instead).
	PosBits []uint64
	NegBits []uint64
}

// buildSigSoA quantizes the face signatures into a fresh SigSoA. It
// returns nil when the signatures do not quantize losslessly into int8
// (possible only with a custom PairClassifier emitting exotic values) —
// callers fall back to the AoS Face.Signature path then.
func buildSigSoA(faces []Face) *SigSoA {
	if len(faces) == 0 {
		return nil
	}
	dim := faces[0].Signature.Dim()
	sigs := make([]vector.Vector, len(faces))
	for i := range faces {
		if faces[i].Signature.Dim() != dim {
			return nil
		}
		sigs[i] = faces[i].Signature
	}
	denom := vector.CommonDenominator(sigs...)
	if denom == 0 {
		return nil
	}
	s := &SigSoA{
		NumFaces: len(faces),
		Dim:      dim,
		Denom:    denom,
		Rows:     make([]int8, len(faces)*dim),
		Words:    (dim + 63) / 64,
	}
	for f, sig := range sigs {
		// Append into the row's exact sub-slice: capacity dim means the
		// appends land in place in Rows without reallocating.
		if _, err := vector.QuantizeVector(s.Rows[f*dim:f*dim:(f+1)*dim], sig, denom); err != nil {
			return nil // CommonDenominator vouched for every value; defensive
		}
	}
	s.deriveViews()
	return s
}

// deriveViews fills the views derived from Rows: the Cols transpose and,
// for pure ternary stores, the bitplanes. Divide and Load both end here,
// so a loaded store is built by the same code as a divided one.
func (s *SigSoA) deriveViews() {
	nf, dim := s.NumFaces, s.Dim
	s.Cols = make([]int8, dim*nf)
	// Tiled transpose Rows → Cols: a naive double loop strides one of
	// the two slabs by thousands of bytes per write, missing cache on
	// every element. Square tiles keep both the 64-byte column runs and
	// the tile's rows resident while they are traded.
	const tile = 64
	for k0 := 0; k0 < dim; k0 += tile {
		k1 := min(k0+tile, dim)
		for f0 := 0; f0 < nf; f0 += tile {
			f1 := min(f0+tile, nf)
			for k := k0; k < k1; k++ {
				col := s.Cols[k*nf : (k+1)*nf]
				for f := f0; f < f1; f++ {
					col[f] = s.Rows[f*dim+k]
				}
			}
		}
	}
	// Bitplanes require pure ternary content: a Star component (legal in
	// any signature a custom classifier emits) contributes 0 to Def. 8
	// regardless of the query, which the two-plane form cannot encode —
	// it would alias a stored 0. Such stores keep the codes but no planes.
	if s.Denom != 1 {
		return
	}
	pos := make([]uint64, nf*s.Words)
	neg := make([]uint64, nf*s.Words)
	var star uint64
	for f := 0; f < nf; f++ {
		row := s.Rows[f*dim : (f+1)*dim]
		for w := 0; w < s.Words; w++ {
			// Branch-free on random ternary rows: −1 is the byte 0xFF,
			// +1 is 0x01, 0 is 0x00, and Star's 0x80 is the one byte
			// with the top bit set and the low bit clear.
			var p, n uint64
			for k, c := range row[w*64 : min(w*64+64, dim)] {
				u := uint64(uint8(c))
				p |= ((u & 1) ^ u>>7) << (k & 63)
				n |= u >> 7 << (k & 63)
				star |= u >> 7 &^ u
			}
			pos[f*s.Words+w] = p
			neg[f*s.Words+w] = n
		}
	}
	if star&1 == 0 {
		s.PosBits, s.NegBits = pos, neg
	}
}

// Signature decodes face f's stored signature into dst (appended) —
// the inverse view the differential tests compare against the AoS
// Face.Signature.
func (s *SigSoA) Signature(dst vector.Vector, f int) vector.Vector {
	return vector.DequantizeVector(dst, s.Rows[f*s.Dim:(f+1)*s.Dim], s.Denom)
}

// FaceRow returns face f's row-major quantized signature codes.
func (s *SigSoA) FaceRow(f int) []int8 { return s.Rows[f*s.Dim : (f+1)*s.Dim] }

// FacePlanes returns face f's bitplane block (positives, negatives), or
// (nil, nil) when the store has no bitplanes.
func (s *SigSoA) FacePlanes(f int) (pos, neg []uint64) {
	if s.PosBits == nil {
		return nil, nil
	}
	return s.PosBits[f*s.Words : (f+1)*s.Words], s.NegBits[f*s.Words : (f+1)*s.Words]
}

// ApproxBytes estimates the store's resident memory for the fieldcache
// bytes gauge.
func (s *SigSoA) ApproxBytes() int64 {
	if s == nil {
		return 0
	}
	return int64(len(s.Cols)) + int64(len(s.Rows)) +
		8*(int64(len(s.PosBits))+int64(len(s.NegBits)))
}

// popcountDiff is a self-check helper used by tests: the bitplane
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

// linkDiffLen returns how many components faces a and b differ in,
// with Face.NeighborDiffs' float semantics (a Star component differs
// from everything, itself included, since NaN != NaN). On a bitplane
// store a component differs exactly when either plane differs, so the
// count is one popcount per 64 pairs.
func (s *SigSoA) linkDiffLen(a, b int) int {
	if s.PosBits != nil {
		n := 0
		pa, na := s.FacePlanes(a)
		pb, nb := s.FacePlanes(b)
		for w := range pa {
			n += bits.OnesCount64((pa[w] ^ pb[w]) | (na[w] ^ nb[w]))
		}
		return n
	}
	n := 0
	ra, rb := s.FaceRow(a), s.FaceRow(b)
	for k, c := range ra {
		if c != rb[k] || c == vector.StarCode {
			n++
		}
	}
	return n
}

// appendLinkDiff appends the components faces a and b differ in, in
// ascending order — the list linkDiffLen counts.
func (s *SigSoA) appendLinkDiff(dst []int, a, b int) []int {
	if s.PosBits != nil {
		pa, na := s.FacePlanes(a)
		pb, nb := s.FacePlanes(b)
		for w := range pa {
			for x := (pa[w] ^ pb[w]) | (na[w] ^ nb[w]); x != 0; x &= x - 1 {
				dst = append(dst, w*64+bits.TrailingZeros64(x))
			}
		}
		return dst
	}
	ra, rb := s.FaceRow(a), s.FaceRow(b)
	for k, c := range ra {
		if c != rb[k] || c == vector.StarCode {
			dst = append(dst, k)
		}
	}
	return dst
}
