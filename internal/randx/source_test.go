package randx

import (
	"math/rand"
	"testing"
)

// sourceSeeds covers the seed normalisation edges of rngSource.Seed:
// zero and the multiples of 2³¹−1 (both map to zeroSeed), signs, and
// seeds far outside int32.
var sourceSeeds = []int64{
	0, 1, -1,
	int32max, -int32max, 2 * int32max, -3 * int32max, int32max * int32max,
	int32max - 1, int32max + 1,
	1 << 62, -(1 << 62),
	zeroSeed,
	-1 << 63, 1<<63 - 1,
}

func newLazy(seed int64) *source {
	s := new(source)
	s.Seed(seed)
	return s
}

// TestSourceMatchesStdlib compares every draw of the lazy source against
// rand.NewSource for 2 000 draws, across the lazy-to-stdlib handoff at
// draw rngTap, through both Uint64 and Int63. The handoff must discard
// exactly the draws already served.
func TestSourceMatchesStdlib(t *testing.T) {
	const draws = 2000
	for _, seed := range sourceSeeds {
		lazy, ref := newLazy(seed), rand.NewSource(seed).(rand.Source64)
		for j := 0; j < draws; j++ {
			if j%3 == 2 {
				if got, want := lazy.Int63(), ref.Int63(); got != want {
					t.Fatalf("seed %d: Int63 draw %d = %d, want %d", seed, j, got, want)
				}
				continue
			}
			if got, want := lazy.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d: Uint64 draw %d = %#x, want %#x", seed, j, got, want)
			}
		}
	}
}

// TestCookedTableMatchesStdlib checks the register words the lazy phase
// never reads, 0 to 60, so every rngCooked entry is pinned: draw
// j ∈ [273, 333] adds word 333−j to the sum draw j−273 wrote back, so
// the word is the difference of the two draws.
func TestCookedTableMatchesStdlib(t *testing.T) {
	const last = rngLen - rngTap - 1 // 333
	for _, seed := range sourceSeeds {
		ref := rand.NewSource(seed).(rand.Source64)
		draws := make([]uint64, last+1)
		for j := range draws {
			draws[j] = ref.Uint64()
		}
		lazy := newLazy(seed)
		for j := rngTap; j <= last; j++ {
			if got, want := lazy.word(last-j), int64(draws[j]-draws[j-rngTap]); got != want {
				t.Fatalf("seed %d: word %d = %d, want %d", seed, last-j, got, want)
			}
		}
	}
}

// TestSourceReseed checks that Seed restarts the sequence, also after
// the handoff.
func TestSourceReseed(t *testing.T) {
	s := newLazy(5)
	for range 3 * rngTap {
		s.Uint64()
	}
	s.Seed(7)
	ref := rand.NewSource(7).(rand.Source64)
	for j := 0; j < 2*rngTap; j++ {
		if got, want := s.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("after reseed: draw %d = %#x, want %#x", j, got, want)
		}
	}
}

// drawMix consumes r through every rand.Rand method Stream uses, in an
// order picked by op, and returns the values as float64s.
func drawMix(r *rand.Rand, ops []byte) []float64 {
	var out []float64
	for _, op := range ops {
		switch op % 7 {
		case 0:
			out = append(out, r.Float64())
		case 1:
			out = append(out, r.NormFloat64())
		case 2:
			out = append(out, r.ExpFloat64())
		case 3:
			out = append(out, float64(r.Intn(1+int(op))))
		case 4:
			for _, v := range r.Perm(1 + int(op)%40) {
				out = append(out, float64(v))
			}
		case 5:
			xs := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
			r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
			out = append(out, xs...)
		default:
			out = append(out, float64(r.Int63n(1<<40+int64(op))))
		}
	}
	return out
}

func sameDraws(t *testing.T, seed int64, ops []byte) {
	t.Helper()
	got := drawMix(rand.New(newLazy(seed)), ops)
	want := drawMix(rand.New(rand.NewSource(seed)), ops)
	if len(got) != len(want) {
		t.Fatalf("seed %d: %d values, want %d (ops %v)", seed, len(got), len(want), ops)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seed %d: value %d = %v, want %v (ops %v)", seed, i, got[i], want[i], ops)
		}
	}
}

// TestSourceSamplersMatchStdlib interleaves the rand.Rand samplers over
// the lazy source and over rand.NewSource; every value must agree, well
// past the handoff.
func TestSourceSamplersMatchStdlib(t *testing.T) {
	ops := make([]byte, 600)
	for i := range ops {
		ops[i] = byte(i*37 + i/7)
	}
	for _, seed := range sourceSeeds {
		sameDraws(t, seed, ops)
	}
}

// TestStreamMatchesStdlib pins Stream itself: New(seed) draws what
// math/rand seeded with mix(seed) draws.
func TestStreamMatchesStdlib(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 1 << 63} {
		s := New(seed)
		ref := rand.New(rand.NewSource(int64(mix(seed))))
		for j := 0; j < 700; j++ {
			if got, want := s.Normal(0, 1), ref.NormFloat64(); got != want {
				t.Fatalf("seed %d: Normal draw %d = %v, want %v", seed, j, got, want)
			}
		}
	}
}

// TestSplitNSeedUnchanged pins SplitN's derivation to the historical
// two-step form: the seed of New(Split(label).seed) mixed with n.
func TestSplitNSeedUnchanged(t *testing.T) {
	root := New(31)
	for n := 0; n < 8; n++ {
		c := root.Split("node")
		want := mix(c.seed ^ mix(uint64(n)+0x632be59bd9b4e019))
		if got := root.SplitN("node", n).Seed(); got != want {
			t.Fatalf("SplitN(node, %d) seed = %#x, want %#x", n, got, want)
		}
	}
}

// FuzzSourceMatchesStdlib drives the lazy source and rand.NewSource with
// the same seed through the same mix of samplers.
func FuzzSourceMatchesStdlib(f *testing.F) {
	f.Add(int64(0), []byte{1, 1, 1})
	f.Add(int64(int32max), []byte{4, 5, 6, 0, 2})
	f.Add(int64(-1<<62), make([]byte, 300))
	f.Add(int64(zeroSeed), []byte("interleave every sampler past the handoff"))
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 2000 {
			ops = ops[:2000]
		}
		sameDraws(t, seed, ops)
	})
}
