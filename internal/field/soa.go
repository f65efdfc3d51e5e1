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

// deriveViews fills the views derived from Rows: the Cols transpose and,
// for pure ternary stores, the bitplanes, eight codes to a uint64.
func (s *SigSoA) deriveViews() {
	nf, dim := s.NumFaces, s.Dim
	s.Cols = make([]int8, dim*nf)
	// Transpose Rows → Cols in 8×8 blocks: eight 8-byte row loads, a
	// word-level byte transpose, eight 8-byte column stores. Walking the
	// faces eight at a time keeps every column's current cache line
	// resident (one line per pair); the ragged edges go byte by byte.
	f8, k8 := nf&^7, dim&^7
	var blk [8]uint64
	for f := 0; f < f8; f += 8 {
		for k := 0; k < k8; k += 8 {
			for i := range blk {
				blk[i] = load8(s.Rows[(f+i)*dim+k:])
			}
			transpose8(&blk)
			for i, w := range blk {
				store8(s.Cols[(k+i)*nf+f:], w)
			}
		}
	}
	for f := 0; f < nf; f++ {
		k := k8
		if f >= f8 {
			k = 0
		}
		for ; k < dim; k++ {
			s.Cols[k*nf+f] = s.Rows[f*dim+k]
		}
	}
	// Bitplanes require pure ternary content: a Star component (legal in
	// any signature a custom classifier emits) contributes 0 to Def. 8
	// regardless of the query, which the two-plane form cannot encode —
	// it would alias a stored 0. Such stores keep the codes but no planes.
	if s.Denom != 1 {
		return
	}
	// −1 is the byte 0xFF, +1 is 0x01, 0 is 0x00, and Star's 0x80 is the
	// one byte with the top bit set and the low bit clear. Masking eight
	// codes' low and top bits and multiplying by gather moves the eight
	// per-byte flags into the top byte, in component order.
	const (
		lsb    = 0x0101010101010101
		gather = 0x0102040810204080
	)
	pos := make([]uint64, nf*s.Words)
	neg := make([]uint64, nf*s.Words)
	var star uint64
	for f := 0; f < nf; f++ {
		row := s.Rows[f*dim : (f+1)*dim]
		for w := 0; w < s.Words; w++ {
			chunk := row[w*64 : min(w*64+64, dim)]
			var p, n uint64
			for g := 0; g < len(chunk); g += 8 {
				var x uint64 // a short last group reads as zero codes
				if g+8 <= len(chunk) {
					x = load8(chunk[g:])
				} else {
					for i, c := range chunk[g:] {
						x |= uint64(uint8(c)) << (8 * i)
					}
				}
				lo, hi := x&lsb, x>>7&lsb
				p |= (lo &^ hi) * gather >> 56 << g
				n |= (lo & hi) * gather >> 56 << g
				star |= hi &^ lo
			}
			pos[f*s.Words+w] = p
			neg[f*s.Words+w] = n
		}
	}
	if star == 0 {
		s.PosBits, s.NegBits = pos, neg
	}
}

// load8 reads b[0:8] as a little-endian word (one 8-byte load).
func load8(b []int8) uint64 {
	_ = b[7]
	return uint64(uint8(b[0])) | uint64(uint8(b[1]))<<8 | uint64(uint8(b[2]))<<16 | uint64(uint8(b[3]))<<24 |
		uint64(uint8(b[4]))<<32 | uint64(uint8(b[5]))<<40 | uint64(uint8(b[6]))<<48 | uint64(uint8(b[7]))<<56
}

// store8 writes x to b[0:8] little-endian (one 8-byte store).
func store8(b []int8, x uint64) {
	_ = b[7]
	b[0], b[1], b[2], b[3] = int8(x), int8(x>>8), int8(x>>16), int8(x>>24)
	b[4], b[5], b[6], b[7] = int8(x>>32), int8(x>>40), int8(x>>48), int8(x>>56)
}

// transpose8 transposes the 8×8 byte matrix whose row i is m[i] (byte j
// at bits 8j): it swaps the off-diagonal halves of 2×2 blocks of bytes,
// then of 16-bit pairs, then of 32-bit quads.
func transpose8(m *[8]uint64) {
	const b1, b2, b4 = 0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF
	m[0], m[1] = swapBlocks(m[0], m[1], 8, b1)
	m[2], m[3] = swapBlocks(m[2], m[3], 8, b1)
	m[4], m[5] = swapBlocks(m[4], m[5], 8, b1)
	m[6], m[7] = swapBlocks(m[6], m[7], 8, b1)
	m[0], m[2] = swapBlocks(m[0], m[2], 16, b2)
	m[1], m[3] = swapBlocks(m[1], m[3], 16, b2)
	m[4], m[6] = swapBlocks(m[4], m[6], 16, b2)
	m[5], m[7] = swapBlocks(m[5], m[7], 16, b2)
	m[0], m[4] = swapBlocks(m[0], m[4], 32, b4)
	m[1], m[5] = swapBlocks(m[1], m[5], 32, b4)
	m[2], m[6] = swapBlocks(m[2], m[6], 32, b4)
	m[3], m[7] = swapBlocks(m[3], m[7], 32, b4)
}

// swapBlocks trades a's upper and b's lower shift-bit block within each
// 2·shift-bit lane (mask selects the lower blocks).
func swapBlocks(a, b uint64, shift uint, mask uint64) (uint64, uint64) {
	t := (a>>shift ^ b) & mask
	return a ^ t<<shift, b ^ t
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

// appendLinkDiff appends the components faces a and b differ in, in
// ascending order, with Face.NeighborDiffs' float semantics (a Star
// component differs from everything, itself included, since NaN !=
// NaN). On a bitplane store a component differs exactly when either
// plane differs, so each 64 pairs cost one XOR and a bit walk.
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
