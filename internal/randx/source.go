package randx

import "math/rand"

// math/rand's rngSource is an additive lagged Fibonacci generator over a
// 607-word register (Mitchell & Reeds). Seeding fills the register from
// the Park–Miller LCG x ← 48271·x mod (2³¹−1), three LCG outputs per
// word, each word XORed with rngCooked: ~1 840 LCG steps and ~4.9 KB
// before the first draw. A substream that only draws a handful of
// Gaussians pays all of it.
//
// source produces the same outputs without the register. The LCG jumps
// ahead by multiplication, so word i is a pure function of the seed:
// three modular multiplies from wordMul[i], XOR rngCooked[i]. And the
// generator only reads words it has already overwritten from draw
// rngTap on, so draw j < rngTap is word(333−j) + word(606−j) of the
// freshly seeded register. A stream that reaches draw rngTap hands off to
// a real rand.NewSource with the same seed, advanced past the draws
// already served, and is exact from there on too.
const (
	rngLen   = 607
	rngTap   = 273
	int32max = (1 << 31) - 1
	lcgMul   = 48271
	// zeroSeed replaces a seed ≡ 0 mod 2³¹−1, as rngSource.Seed does.
	zeroSeed = 89482311
)

// wordMul[i] = 48271^(21+3i) mod (2³¹−1): rngSource.Seed discards 20 LCG
// outputs, then spends three per word, so word i starts at output 21+3i.
var wordMul = func() (t [rngLen]uint64) {
	p := uint64(1)
	for n := 1; n <= 21+3*(rngLen-1); n++ {
		p = p * lcgMul % int32max
		if n >= 21 && (n-21)%3 == 0 {
			t[(n-21)/3] = p
		}
	}
	return t
}()

// source is a rand.Source64 whose output is bit-identical to
// rand.NewSource(seed) for the same seed, at O(1) seeding cost.
type source struct {
	seed int64         // as passed to Seed, for the handoff
	x    uint64        // normalised seed: LCG state before output 1
	n    int           // draws served while lazy
	full rand.Source64 // stdlib source, armed at draw rngTap
}

// Seed resets the source to the sequence of rand.NewSource(seed).
func (s *source) Seed(seed int64) {
	x := seed % int32max
	if x < 0 {
		x += int32max
	}
	if x == 0 {
		x = zeroSeed
	}
	*s = source{seed: seed, x: uint64(x)}
}

// word returns register word i of a freshly seeded rngSource.
func (s *source) word(i int) int64 {
	a := s.x * wordMul[i] % int32max
	b := a * lcgMul % int32max
	c := b * lcgMul % int32max
	return int64(a<<40^b<<20^c) ^ rngCooked[i]
}

func (s *source) Uint64() uint64 {
	if s.n < rngTap {
		j := s.n
		s.n++
		return uint64(s.word(rngLen-rngTap-1-j) + s.word(rngLen-1-j))
	}
	if s.full == nil {
		s.full = rand.NewSource(s.seed).(rand.Source64)
		for range rngTap {
			s.full.Uint64()
		}
	}
	return s.full.Uint64()
}

func (s *source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }
