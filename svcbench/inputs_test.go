package main

import "testing"

// TestSeedsDetermineInputs pins the seed contract: one seed regenerates
// byte-identical inputs, and another seed changes them.
func TestSeedsDetermineInputs(t *testing.T) {
	gens := map[string]func(uint64) (interface{ digest() string }, error){
		"track-paper": func(s uint64) (interface{ digest() string }, error) { return trackPaperInputs(s) },
		"ingest-shared": func(s uint64) (interface{ digest() string }, error) {
			return ingestSharedInputs(s)
		},
		"cluster-churn": func(s uint64) (interface{ digest() string }, error) { return churnInputs(s, 1) },
	}
	for name, gen := range gens {
		digest := func(seed uint64) string {
			w, err := gen(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			return w.digest()
		}
		if a, b := digest(defaultSeed), digest(defaultSeed); a != b {
			t.Errorf("%s: seed %d generated different inputs on two calls", name, defaultSeed)
		}
		if digest(defaultSeed) == digest(heldOutSeed) {
			t.Errorf("%s: seeds %d and %d generated identical inputs", name, defaultSeed, heldOutSeed)
		}
	}
}
