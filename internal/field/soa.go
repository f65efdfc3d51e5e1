package field

import "math/bits"

// SigSoA is the division's structure-of-arrays signature store, its one
// signature representation: every face signature as ternary int8 codes
// (+1, 0, −1), laid out contiguously so the matchers (internal/match)
// stream it instead of chasing per-face slices.
//
// Two views share the one truth:
//
//   - Rows is the row-major code slab: Rows[f*Dim+k] is component k of
//     face f's signature. Face.Signature is face f's row.
//   - PosBits/NegBits are two bitplanes over Rows: bit k of face f's
//     Words-word block is set in PosBits iff the component is +1, in
//     NegBits iff it is −1 (0 sets neither). With 64 components per
//     word, a whole squared modified distance (Def. 8) against a
//     ternary query reduces to a handful of AND/OR/popcount ops per 64
//     pairs.
//
// A SigSoA is immutable after construction and shared like the Division
// that owns it.
type SigSoA struct {
	// NumFaces and Dim are the store's dimensions (faces × node pairs).
	NumFaces int
	Dim      int
	// Rows is the row-major (face-major) code slab: Rows[f*Dim+k].
	Rows []int8
	// Words is the per-face bitplane word count: ⌈Dim/64⌉.
	Words int
	// PosBits and NegBits are the per-face bitplanes: bit k%64 of word
	// f*Words + k/64 reflects component k of face f.
	PosBits []uint64
	NegBits []uint64
}

// deriveBitplanes fills the bitplanes from Rows, eight codes to a
// uint64.
func (s *SigSoA) deriveBitplanes() {
	nf, dim := s.NumFaces, s.Dim
	s.PosBits = make([]uint64, nf*s.Words)
	s.NegBits = make([]uint64, nf*s.Words)
	for f := 0; f < nf; f++ {
		row := s.Rows[f*dim : (f+1)*dim]
		for w := 0; w < s.Words; w++ {
			s.PosBits[f*s.Words+w], s.NegBits[f*s.Words+w] = planes64(row[w*64 : min(w*64+64, dim)])
		}
	}
}

// planes64 returns the positive and negative bitplanes of up to 64
// codes. −1 is the byte 0xFF, +1 is 0x01 and 0 is 0x00: the low bit
// marks a nonzero code and the top bit a negative one. Masking eight
// codes' low and top bits and multiplying by gather moves the eight
// per-byte flags into the top byte, in component order; each group
// enters the planes from the top, so the planes shift right by a
// constant and land in place after the last group.
func planes64(chunk []int8) (p, n uint64) {
	const (
		lsb    = 0x0101010101010101
		gather = 0x0102040810204080
		top    = 0xFF << 56
	)
	g := 0
	for ; g < len(chunk); g += 8 {
		var x uint64 // a short last group reads as zero codes
		if g+8 <= len(chunk) {
			x = load8(chunk[g:])
		} else {
			for i, c := range chunk[g:] {
				x |= uint64(uint8(c)) << (8 * (i & 7))
			}
		}
		lo, hi := x&lsb, x>>7&lsb
		p = p>>8 | (lo&^hi)*gather&top
		n = n>>8 | (lo&hi)*gather&top
	}
	return p >> (64 - g), n >> (64 - g)
}

// load8 reads b[0:8] as a little-endian word (one 8-byte load).
func load8(b []int8) uint64 {
	_ = b[7]
	return uint64(uint8(b[0])) | uint64(uint8(b[1]))<<8 | uint64(uint8(b[2]))<<16 | uint64(uint8(b[3]))<<24 |
		uint64(uint8(b[4]))<<32 | uint64(uint8(b[5]))<<40 | uint64(uint8(b[6]))<<48 | uint64(uint8(b[7]))<<56
}

// FaceRow returns face f's row of signature codes.
func (s *SigSoA) FaceRow(f int) []int8 { return s.Rows[f*s.Dim : (f+1)*s.Dim : (f+1)*s.Dim] }

// FacePlanes returns face f's bitplane block (positives, negatives).
func (s *SigSoA) FacePlanes(f int) (pos, neg []uint64) {
	return s.PosBits[f*s.Words : (f+1)*s.Words], s.NegBits[f*s.Words : (f+1)*s.Words]
}

// ApproxBytes estimates the store's resident memory for the fieldcache
// bytes gauge.
func (s *SigSoA) ApproxBytes() int64 {
	if s == nil {
		return 0
	}
	return int64(len(s.Rows)) + 8*(int64(len(s.PosBits))+int64(len(s.NegBits)))
}

// linkDiffLen counts the components faces a and b differ in.
func (s *SigSoA) linkDiffLen(a, b int) int {
	pa, na := s.FacePlanes(a)
	pb, nb := s.FacePlanes(b)
	n := 0
	for w := range pa {
		n += bits.OnesCount64((pa[w] ^ pb[w]) | (na[w] ^ nb[w]))
	}
	return n
}

// appendLinkDiff appends the components faces a and b differ in, in
// ascending order. A component differs exactly when either plane
// differs, so each 64 pairs cost one XOR and a bit walk.
func (s *SigSoA) appendLinkDiff(dst []int, a, b int) []int {
	pa, na := s.FacePlanes(a)
	pb, nb := s.FacePlanes(b)
	for w := range pa {
		for x := (pa[w] ^ pb[w]) | (na[w] ^ nb[w]); x != 0; x &= x - 1 {
			dst = append(dst, w*64+bits.TrailingZeros64(x))
		}
	}
	return dst
}
