package core

import (
	"fmt"
	"math"
	"testing"

	"fttt/internal/byz"
	"fttt/internal/faults"
	"fttt/internal/geom"
	"fttt/internal/randx"
)

// defendedConfig arms the Byzantine defense on the default fixture.
func defendedConfig(n int) Config {
	cfg := defaultConfig(n)
	cfg.Defense = &byz.Config{Enabled: true}
	return cfg
}

// byzTrace is a deterministic 40-step diagonal sweep.
func byzTrace() []geom.Point {
	pts := make([]geom.Point, 40)
	for i := range pts {
		f := float64(i) / float64(len(pts)-1)
		pts[i] = geom.Pt(10+80*f, 15+70*f)
	}
	return pts
}

// TestDefenseValidate pins the configuration seam: a bad byz config
// fails core validation.
func TestDefenseValidate(t *testing.T) {
	cfg := defendedConfig(16)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("defended config rejected: %v", err)
	}
	bad := cfg
	bad.Defense = &byz.Config{Enabled: true, QuorumThreshold: 0.2}
	if err := bad.Validate(); err == nil {
		t.Error("sub-majority quorum threshold should be rejected")
	}
}

// TestDefenseHonestByteIdentical is the §15 byte-identity contract at
// the tracker level: with zero malicious nodes a defended tracker's
// estimates equal a vanilla tracker's exactly (whole Estimate structs,
// which include bit-sensitive similarity floats).
func TestDefenseHonestByteIdentical(t *testing.T) {
	trace := byzTrace()
	vanilla, err := New(defaultConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	defended, err := New(defendedConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	want := vanilla.Track(trace, nil, randx.New(77))
	got := defended.Track(trace, nil, randx.New(77))
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("step %d: defended %+v, want vanilla %+v", i, got[i], want[i])
		}
	}
	if d := defended.Defense(); d == nil {
		t.Fatal("defended tracker has no Defense")
	} else if s := d.Suspects(); len(s) != 0 {
		t.Fatalf("honest run flagged suspects %v", s)
	}
}

// colludeScript makes the two nodes sitting on byzTrace's diagonal
// report the RSS a target at decoy (90, 10) would produce — a
// coordinated lie ("we are ~59 m away, always") that contradicts the
// true pair order whenever a colluder is among the nearer in-range
// nodes, which on this trace gives each a sustained detection window.
func colludeScript(t *testing.T) *faults.Script {
	t.Helper()
	s, err := faults.Parse("collude at=0 nodes=5,10 x=90 y=10")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDefenseDetectsColludingNodes runs a defended track against the
// collude script and checks the detector converges on exactly the
// scripted nodes — and that hysteresis keeps them flagged after their
// geometric detection window has passed.
func TestDefenseDetectsColludingNodes(t *testing.T) {
	cfg := defendedConfig(16)
	cfg.FaultScript = colludeScript(t)
	cfg.FaultSeed = 5
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr.Track(byzTrace(), nil, randx.New(3))
	sus := tr.Defense().Suspects()
	if len(sus) != 2 || sus[0] != 5 || sus[1] != 10 {
		t.Fatalf("suspects = %v, want [5 10]", sus)
	}
	if tr.Defense().NodeTrust(10) > 0.9 {
		t.Errorf("colluding node trust %v, want low", tr.Defense().NodeTrust(10))
	}
	if tr.Defense().NodeTrust(0) < 0.95 {
		t.Errorf("honest node trust %v, want high", tr.Defense().NodeTrust(0))
	}
}

// TestDefenseImprovesUnderCollusion: once the detector has converged,
// the defended tracker's error should beat the undefended one on the
// same faulted workload (the full-strength acceptance bound — 20%
// colluders, ≤ 0.5× — is asserted in internal/experiments).
func TestDefenseImprovesUnderCollusion(t *testing.T) {
	trace := byzTrace()
	run := func(defend bool) float64 {
		cfg := defaultConfig(16)
		if defend {
			cfg.Defense = &byz.Config{Enabled: true}
		}
		cfg.FaultScript = colludeScript(t)
		cfg.FaultSeed = 5
		tr, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pts := tr.Track(trace, nil, randx.New(3))
		// Score only the post-convergence tail: the first rounds are the
		// detector's learning window.
		var sum float64
		tail := pts[10:]
		for _, p := range tail {
			sum += p.Error
		}
		return sum / float64(len(tail))
	}
	undefended := run(false)
	defended := run(true)
	t.Logf("mean tail error: undefended %.2f m, defended %.2f m", undefended, defended)
	if defended >= undefended {
		t.Fatalf("defense did not improve tracking: defended %.2f ≥ undefended %.2f", defended, undefended)
	}
}

// TestDefenseBatchMatchesSerial extends the LocalizeBatch determinism
// contract to defended trackers: with active suspects the batch engine
// routes weighted lanes through MatchBatchWeighted, and the results
// must stay byte-identical to serial execution for every worker count.
func TestDefenseBatchMatchesSerial(t *testing.T) {
	cfg := defendedConfig(16)
	// A hair-trigger detector: this test pins bit-identity of the
	// weighted batch lanes against serial execution, so what matters is
	// that suspects (and therefore weights) appear at all on a short
	// scattered workload — not that the thresholds are deployment-grade.
	cfg.Defense.MinRounds = 1
	cfg.Defense.SuspectAbove = 0.05
	cfg.Defense.ClearBelow = 0.01
	cfg.Defense.LearnRate = 0.5
	cfg.FaultScript = colludeScript(t)
	cfg.FaultSeed = 9
	root := randx.New(31)

	mkReqs := func() []LocalizeRequest {
		var reqs []LocalizeRequest
		seq := map[string]int{}
		for i := 0; i < 36; i++ {
			id := fmt.Sprintf("t%d", i%4)
			n := seq[id]
			seq[id]++
			pos := geom.Pt(10+float64((i*7)%80), 10+float64((i*13)%80))
			reqs = append(reqs, LocalizeRequest{
				ID: id, Pos: pos,
				Rng: root.Split(id).SplitN("req", n),
			})
		}
		return reqs
	}

	ref, err := NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reqs := mkReqs()
	want := make([]Estimate, len(reqs))
	for i, r := range reqs {
		est, err := ref.LocalizeBatch([]LocalizeRequest{r}, 1)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = est[0]
	}
	// The faulted workload must actually trip the detector, or the
	// weighted batch path was never compared.
	tripped := false
	for _, id := range []string{"t0", "t1", "t2", "t3"} {
		ts, err := ref.target(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(ts.tr.Defense().Suspects()) > 0 {
			tripped = true
		}
	}
	if !tripped {
		t.Fatal("no target's defense flagged a suspect; weighted batch lanes untested")
	}

	for _, workers := range []int{1, 4} {
		m, err := NewMulti(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.LocalizeBatch(mkReqs(), workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d request %d: %+v, want %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestDefenseTrackParallelMatchesSerial pins per-clone defense state:
// every trace clone builds its own Defense, so parallel defended runs
// equal serial ones.
func TestDefenseTrackParallelMatchesSerial(t *testing.T) {
	cfg := defendedConfig(16)
	cfg.FaultScript = colludeScript(t)
	cfg.FaultSeed = 5
	const traces = 4
	ps := make([][]geom.Point, traces)
	for i := range ps {
		ps[i] = byzTrace()
	}
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tr.TrackParallel(ps, nil, randx.New(8), 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tr.TrackParallel(ps, nil, randx.New(8), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		for j := range want[i] {
			if want[i][j] != got[i][j] {
				t.Fatalf("trace %d step %d: %+v, want %+v", i, j, got[i][j], want[i][j])
			}
		}
	}
	if math.IsNaN(want[0][0].Error) {
		t.Fatal("NaN error")
	}
}
