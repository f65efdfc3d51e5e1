// Package randx provides deterministic, splittable random number streams
// for reproducible simulation experiments.
//
// Every experiment in this repository takes a single root seed. The root
// seed is split into independent substreams — one per sensor node, one for
// the mobility model, one for deployment, and so on — so that changing the
// number of nodes, or reordering the construction of one component, does
// not perturb the random draws seen by the others. Splitting is done by
// hashing the parent seed with a stream label (SplitMix64 finalisation),
// which is cheap, collision-resistant for our purposes, and fully
// deterministic.
//
// A stream draws exactly the values math/rand's seeded source would, but
// seeds in O(1) (see source.go), and the stream, its source and its
// rand.Rand share one allocation, so a substream per node per round is
// cheap.
package randx

import (
	"math"
	"math/rand"
)

// Stream is a deterministic random stream. It wraps math/rand with a
// seeded source plus convenience samplers used by the simulator. A Stream
// is not safe for concurrent use; split one substream per goroutine.
type Stream struct {
	seed uint64
	src  source
	rng  rand.Rand
}

// New returns a stream rooted at seed. Its draws equal those of
// rand.New(rand.NewSource(int64(mix(seed)))).
func New(seed uint64) *Stream {
	s := &Stream{seed: seed}
	s.src.Seed(int64(mix(seed)))
	// rand.New inlines, so the *Rand it returns stays on the stack and
	// the copy into s is the only place it lives.
	s.rng = *rand.New(&s.src)
	return s
}

// Seed returns the seed this stream was created with.
func (s *Stream) Seed() uint64 { return s.seed }

// Split derives an independent child stream identified by label. Splitting
// is a pure function of (parent seed, label): the same pair always yields
// the same child, regardless of how many values the parent has produced.
func (s *Stream) Split(label string) *Stream {
	return New(labelSeed(s.seed, label))
}

// SplitN derives an independent child stream identified by an integer
// index, e.g. one stream per sensor node. Its seed is derived from the
// seed Split(label) would use, without building that stream.
func (s *Stream) SplitN(label string, n int) *Stream {
	return New(mix(labelSeed(s.seed, label) ^ mix(uint64(n)+0x632be59bd9b4e019)))
}

// labelSeed is the seed of the child stream Split(label) derives from a
// parent seeded with parent.
func labelSeed(parent uint64, label string) uint64 {
	h := parent
	for i := 0; i < len(label); i++ {
		h = mix(h ^ uint64(label[i]))
	}
	return mix(h ^ 0x9e3779b97f4a7c15)
}

// Float64 returns a uniform sample in [0, 1).
func (s *Stream) Float64() float64 { return s.rng.Float64() }

// Uniform returns a uniform sample in [lo, hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.rng.Float64()
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int { return s.rng.Intn(n) }

// Normal returns a Gaussian sample with the given mean and standard
// deviation.
func (s *Stream) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.rng.NormFloat64()
}

// Exponential returns an exponential sample with the given rate (mean
// 1/rate). It panics if rate <= 0.
func (s *Stream) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("randx: non-positive exponential rate")
	}
	return s.rng.ExpFloat64() / rate
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (s *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.rng.Float64() < p
}

// Perm returns a random permutation of [0, n).
func (s *Stream) Perm(n int) []int { return s.rng.Perm(n) }

// Shuffle pseudo-randomises the order of n elements using swap.
func (s *Stream) Shuffle(n int, swap func(i, j int)) { s.rng.Shuffle(n, swap) }

// mix is the SplitMix64 finalizer: a bijective avalanche function on
// uint64 used to decorrelate derived seeds.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mean of a sample slice; convenience for tests.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
