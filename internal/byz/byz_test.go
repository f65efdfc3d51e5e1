package byz

import (
	"math"
	"sort"
	"testing"

	"fttt/internal/obs"
	"fttt/internal/randx"
	"fttt/internal/vector"
)

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config invalid: %v", err)
	}
	bad := []Config{
		{QuorumThreshold: 0.4},
		{QuorumThreshold: 1.5},
		{MinQuorum: 0.5},
		{SuspectAbove: 1.2},
		{SuspectAbove: 0.3, ClearBelow: 0.4},
		{LearnRate: 2},
		{TrustFloor: 1.5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: %+v validated", i, c)
		}
	}
}

func TestQuorumVote(t *testing.T) {
	v := func(sign int, w float64) Vote { return Vote{Sign: sign, Weight: w} }
	cases := []struct {
		name      string
		votes     []Vote
		minQ, thr float64
		wantSign  int
		wantOK    bool
	}{
		{"unanimous", []Vote{v(1, 1), v(1, 1), v(1, 1)}, 3, 2.0 / 3, 1, true},
		{"below min quorum", []Vote{v(1, 1), v(1, 1)}, 3, 2.0 / 3, 0, false},
		{"split below threshold", []Vote{v(1, 2), v(-1, 2)}, 3, 2.0 / 3, 0, false},
		{"supermajority negative", []Vote{v(-1, 3), v(1, 1)}, 3, 0.75, -1, true},
		{"zero weights ignored", []Vote{v(1, 0), v(-1, 3)}, 3, 2.0 / 3, -1, true},
		{"no votes", nil, 1, 0.6, 0, false},
	}
	for _, c := range cases {
		sign, ok := QuorumVote(c.votes, c.minQ, c.thr)
		if sign != c.wantSign || ok != c.wantOK {
			t.Errorf("%s: got (%d,%v), want (%d,%v)", c.name, sign, ok, c.wantSign, c.wantOK)
		}
	}
}

// honestVector builds the sampling vector a fully consistent distance
// ordering produces: node i is the i-th nearest, so every pair (i, j)
// with i < j reads Nearer.
func honestVector(n int) vector.Vector {
	v := vector.New(n)
	for k := range v {
		v[k] = vector.Nearer
	}
	return v
}

// corrupt inverts every pair involving the given node in place.
func corrupt(v vector.Vector, n int, node int) {
	for k := range v {
		i, j := vector.PairAt(k, n)
		if i == node || j == node {
			if !v[k].IsStar() {
				v[k] = -v[k]
			}
		}
	}
}

// TestHonestFleetStaysUntouched: under honest (even mildly noisy)
// sensing the defense must return nil weights and leave the vector
// alone — the byte-identity contract.
func TestHonestFleetStaysUntouched(t *testing.T) {
	const n = 8
	d := New(Config{Enabled: true}, n, 5, nil)
	for round := 0; round < 50; round++ {
		v := honestVector(n)
		// A little benign disagreement: one pair reads Flipped (target in
		// its uncertain area) — sign 0, never an inversion.
		v[round%v.Dim()] = vector.Flipped
		before := v.Clone()
		if w := d.Apply(v); w != nil {
			t.Fatalf("round %d: honest fleet got weights %v", round, w)
		}
		if !vector.Equal(v, before) {
			t.Fatalf("round %d: Apply modified an honest vector", round)
		}
		d.Observe(honestVector(n))
	}
	if s := d.Suspects(); len(s) != 0 {
		t.Fatalf("honest fleet flagged suspects %v", s)
	}
	for i := 0; i < n; i++ {
		if tr := d.NodeTrust(i); tr != 1 {
			t.Errorf("node %d trust %v, want 1 (benign floor must absorb mild mismatch)", i, tr)
		}
	}
}

// TestDetectsInvertingNode: a node that persistently inverts its pair
// reports gets flagged, its pairs are quorum-corrected back to the
// honest relation, and the pair weights drop for its pairs only.
func TestDetectsInvertingNode(t *testing.T) {
	const n, bad = 8, 2
	reg := obs.NewRegistry()
	d := New(Config{Enabled: true}, n, 5, reg)
	sig := honestVector(n)
	var w []float64
	for round := 0; round < 12; round++ {
		v := honestVector(n)
		corrupt(v, n, bad)
		w = d.Apply(v)
		if len(d.Suspects()) > 0 {
			// Post-detection: no corrupted pair may survive with its wrong
			// sign — each is either quorum-corrected back to the honest
			// relation or starred out; honest pairs stay untouched.
			// (Weights alone can appear earlier: the watch-level alert
			// downweights before the suspect threshold confirms.)
			corrected := 0
			for k := range v {
				i, j := vector.PairAt(k, n)
				if i == bad || j == bad {
					if v[k].IsStar() {
						continue
					}
					if v[k] != vector.Nearer {
						t.Fatalf("round %d: pair (%d,%d) kept corrupted value %v", round, i, j, v[k])
					}
					corrected++
				} else if v[k] != vector.Nearer {
					t.Fatalf("round %d: honest pair (%d,%d) modified to %v", round, i, j, v[k])
				}
			}
			if corrected == 0 {
				t.Fatalf("round %d: quorum corrected no pair at all", round)
			}
		}
		d.Observe(sig)
	}
	if s := d.Suspects(); len(s) != 1 || s[0] != bad {
		t.Fatalf("suspects = %v, want [%d]", d.Suspects(), bad)
	}
	if w == nil {
		t.Fatal("no weights emitted after detection")
	}
	for k := range w {
		i, j := vector.PairAt(k, n)
		touched := i == bad || j == bad
		if touched && w[k] >= 1 {
			t.Errorf("pair (%d,%d) weight %v, want < 1", i, j, w[k])
		}
		if !touched && w[k] != 1 {
			t.Errorf("honest pair (%d,%d) weight %v, want exactly 1", i, j, w[k])
		}
	}
	if got := reg.Counter("fttt_byz_suspects_total").Value(); got != 1 {
		t.Errorf("fttt_byz_suspects_total = %v, want 1", got)
	}
	if got := reg.Counter("fttt_byz_votes_overridden_total").Value(); got == 0 {
		t.Error("fttt_byz_votes_overridden_total stayed 0 despite corrections")
	}
	if tr := reg.Gauge("fttt_byz_node_trust{node=\"2\"}").Value(); tr > 0.7 {
		t.Errorf("bad node trust gauge %v, want low", tr)
	}
	if tr := reg.Gauge("fttt_byz_node_trust{node=\"0\"}").Value(); tr < 0.7 {
		t.Errorf("honest node trust gauge %v, want high", tr)
	}
}

// TestLastSigFreshOnAlert pins the invariant Observe's conditional copy
// relies on: whenever the defense leaves a round on alert, the next
// Apply's suspect-link votes read exactly that round's signature.
func TestLastSigFreshOnAlert(t *testing.T) {
	const n = 8
	d := New(Config{Enabled: true, MinRounds: 1}, n, 5, nil)
	alerted := 0
	for round := 0; round < 30; round++ {
		v := honestVector(n)
		corrupt(v, n, 2)
		d.Apply(v)
		sig := honestVector(n)
		sig[round%sig.Dim()] = vector.Flipped // a distinct signature per round
		d.Observe(sig)
		if d.alert {
			alerted++
			if !vector.Equal(d.lastSig, sig) {
				t.Fatalf("round %d: on alert with a stale lastSig", round)
			}
		}
	}
	if alerted == 0 {
		t.Fatal("defense never went on alert")
	}
}

// TestNoQuorumStarsOut: when too few witnesses remain to form a quorum,
// a suspect's pairs degrade to Star instead of being trusted or guessed.
func TestNoQuorumStarsOut(t *testing.T) {
	const n = 4 // pairs involving a suspect have only 2 witnesses < MinQuorum=3
	d := New(Config{Enabled: true, MinRounds: 1}, n, 5, nil)
	sig := honestVector(n)
	for round := 0; round < 10; round++ {
		v := honestVector(n)
		corrupt(v, n, 0)
		d.Apply(v)
		d.Observe(sig)
	}
	if len(d.Suspects()) == 0 {
		t.Fatal("inverting node not flagged")
	}
	v := honestVector(n)
	corrupt(v, n, 0)
	if w := d.Apply(v); w == nil {
		t.Fatal("no weights after detection")
	}
	for k := range v {
		i, _ := vector.PairAt(k, n)
		if i == 0 && !v[k].IsStar() {
			t.Errorf("pair %d involving the quorum-less suspect kept value %v, want Star", k, v[k])
		}
	}
}

// TestSuspectHysteresis: a flagged node whose behavior turns honest
// again decays below ClearBelow and is cleared.
func TestSuspectHysteresis(t *testing.T) {
	const n = 8
	d := New(Config{Enabled: true, MinRounds: 1}, n, 5, nil)
	sig := honestVector(n)
	for round := 0; round < 8; round++ {
		v := honestVector(n)
		corrupt(v, n, 3)
		d.Apply(v)
		d.Observe(sig)
	}
	if len(d.Suspects()) != 1 {
		t.Fatalf("suspects = %v, want exactly node 3", d.Suspects())
	}
	// Clearing is deliberately slow (DecayRate = LearnRate/5): evidence
	// must outlive episodic attacks, so redemption takes ~5× as long as
	// conviction.
	for round := 0; round < 80 && len(d.Suspects()) > 0; round++ {
		d.Apply(honestVector(n))
		d.Observe(sig)
	}
	if s := d.Suspects(); len(s) != 0 {
		t.Fatalf("suspect never cleared: %v (evid=%v)", s, d.evid[3])
	}
}

// TestBenignFloor pins the Def. 8-derived allowance: (1/2)^(k−1).
func TestBenignFloor(t *testing.T) {
	d := New(Config{Enabled: true}, 4, 5, nil)
	if got, want := d.benignFloor, math.Pow(0.5, 4); got != want {
		t.Errorf("benign floor for k=5: %v, want %v", got, want)
	}
	if d1 := New(Config{Enabled: true}, 4, 1, nil); d1.benignFloor != 1 {
		t.Errorf("k=1 floor %v, want 1 (single instant certifies nothing)", d1.benignFloor)
	}
}

// TestMedianMatchesSort pins the quickselect median to the sorted
// lower-middle element, ties and duplicates included.
func TestMedianMatchesSort(t *testing.T) {
	rng := randx.New(5)
	for trial := 0; trial < 500; trial++ {
		xs := make([]float64, 1+rng.Intn(40))
		for i := range xs {
			// Coarse values so ties are common, as quantized rates are.
			xs[i] = float64(rng.Intn(6)) / 5
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		if got, want := median(xs), sorted[(len(sorted)-1)/2]; got != want {
			t.Fatalf("trial %d: median(%v) = %v, want %v", trial, sorted, got, want)
		}
	}
	if median(nil) != 0 {
		t.Error("median(nil) must be 0")
	}
}
