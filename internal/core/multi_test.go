package core

import (
	"fmt"
	"sync"
	"testing"

	"fttt/internal/geom"
	"fttt/internal/randx"
	"fttt/internal/sampling"
	"fttt/internal/stats"
)

func TestMultiTrackerTracksTwoTargets(t *testing.T) {
	cfg := defaultConfig(16)
	m, err := NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := &sampling.Sampler{Model: cfg.Model, Nodes: cfg.Nodes, Range: cfg.Range, Epsilon: cfg.Epsilon}
	rng := randx.New(1)

	// Two targets in opposite corners walking inward.
	var errA, errB []float64
	for i := 0; i < 30; i++ {
		f := float64(i)
		posA := geom.Pt(20+f, 20+f)
		posB := geom.Pt(80-f, 80-f)
		gA := s.Sample(posA, cfg.SamplingTimes, rng.SplitN("a", i))
		gB := s.Sample(posB, cfg.SamplingTimes, rng.SplitN("b", i))
		eA, err := m.LocalizeGroup("alpha", gA)
		if err != nil {
			t.Fatal(err)
		}
		eB, err := m.LocalizeGroup("bravo", gB)
		if err != nil {
			t.Fatal(err)
		}
		errA = append(errA, eA.Pos.Dist(posA))
		errB = append(errB, eB.Pos.Dist(posB))
	}
	if got := m.Targets(); len(got) != 2 || got[0] != "alpha" || got[1] != "bravo" {
		t.Fatalf("Targets = %v", got)
	}
	if stats.Mean(errA) > 20 || stats.Mean(errB) > 20 {
		t.Errorf("multi-target errors too large: %.2f / %.2f",
			stats.Mean(errA), stats.Mean(errB))
	}
}

func TestMultiTrackerIndependentWarmStarts(t *testing.T) {
	// Target B's localizations must not perturb target A's estimates: A
	// alone and A alongside B give identical results.
	cfg := defaultConfig(9)
	s := &sampling.Sampler{Model: cfg.Model, Nodes: cfg.Nodes, Range: cfg.Range, Epsilon: cfg.Epsilon}

	run := func(withB bool) []geom.Point {
		m, err := NewMulti(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := randx.New(2)
		var out []geom.Point
		for i := 0; i < 15; i++ {
			posA := geom.Pt(30+float64(i), 40)
			gA := s.Sample(posA, cfg.SamplingTimes, rng.SplitN("a", i))
			if withB {
				gB := s.Sample(geom.Pt(70, 60), cfg.SamplingTimes, rng.SplitN("b", i))
				if _, err := m.LocalizeGroup("b", gB); err != nil {
					t.Fatal(err)
				}
			}
			eA, err := m.LocalizeGroup("a", gA)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, eA.Pos)
		}
		return out
	}
	alone, together := run(false), run(true)
	for i := range alone {
		if alone[i] != together[i] {
			t.Fatalf("target A perturbed by target B at step %d", i)
		}
	}
}

func TestMultiTrackerForget(t *testing.T) {
	cfg := defaultConfig(9)
	m, _ := NewMulti(cfg)
	s := &sampling.Sampler{Model: cfg.Model, Nodes: cfg.Nodes, Range: cfg.Range}
	g := s.Sample(geom.Pt(50, 50), cfg.SamplingTimes, randx.New(3))
	if _, err := m.LocalizeGroup("x", g); err != nil {
		t.Fatal(err)
	}
	m.Forget("x")
	if len(m.Targets()) != 0 {
		t.Errorf("Targets after Forget = %v", m.Targets())
	}
}

func TestMultiTrackerEmptyID(t *testing.T) {
	cfg := defaultConfig(9)
	m, _ := NewMulti(cfg)
	s := &sampling.Sampler{Model: cfg.Model, Nodes: cfg.Nodes}
	g := s.Sample(geom.Pt(50, 50), cfg.SamplingTimes, randx.New(4))
	if _, err := m.LocalizeGroup("", g); err == nil {
		t.Error("empty target ID should fail")
	}
}

func TestMultiTrackerSharesDivision(t *testing.T) {
	cfg := defaultConfig(9)
	m, _ := NewMulti(cfg)
	s := &sampling.Sampler{Model: cfg.Model, Nodes: cfg.Nodes}
	for _, id := range []string{"a", "b", "c"} {
		g := s.Sample(geom.Pt(50, 50), cfg.SamplingTimes, randx.New(5))
		if _, err := m.LocalizeGroup(id, g); err != nil {
			t.Fatal(err)
		}
	}
	// All per-target trackers point at the same division.
	div := m.Division()
	for id, ts := range m.targets {
		if ts.tr.Division() != div {
			t.Errorf("target %s has its own division", id)
		}
	}
}

func TestMultiTrackerConcurrentDistinctTargets(t *testing.T) {
	// Goroutines localizing distinct targets concurrently (run under
	// -race) must produce exactly the estimates each target gets when
	// localized alone on a fresh MultiTracker.
	cfg := defaultConfig(16)
	s := &sampling.Sampler{Model: cfg.Model, Nodes: cfg.Nodes, Range: cfg.Range, Epsilon: cfg.Epsilon}
	const targets, rounds = 8, 20

	pos := func(g, i int) geom.Point {
		return geom.Pt(10+float64(g*10+i)/2, 90-float64(g*8+i)/2)
	}
	reference := func(g int) []geom.Point {
		m, err := NewMulti(cfg)
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("t%d", g)
		out := make([]geom.Point, rounds)
		for i := 0; i < rounds; i++ {
			grp := s.Sample(pos(g, i), cfg.SamplingTimes, randx.New(uint64(g)).SplitN("r", i))
			e, err := m.LocalizeGroup(id, grp)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = e.Pos
		}
		return out
	}
	want := make([][]geom.Point, targets)
	for g := 0; g < targets; g++ {
		want[g] = reference(g)
	}

	m, err := NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, targets)
	for g := 0; g < targets; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("t%d", g)
			for i := 0; i < rounds; i++ {
				grp := s.Sample(pos(g, i), cfg.SamplingTimes, randx.New(uint64(g)).SplitN("r", i))
				e, err := m.LocalizeGroup(id, grp)
				if err != nil {
					errs <- err
					return
				}
				if e.Pos != want[g][i] {
					errs <- fmt.Errorf("target %d round %d: %v, want %v (cross-target interference)", g, i, e.Pos, want[g][i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := len(m.Targets()); got != targets {
		t.Errorf("%d targets registered, want %d", got, targets)
	}
}

func TestMultiTrackerLocalizeBatchEmptyIDError(t *testing.T) {
	cfg := defaultConfig(9)
	m, _ := NewMulti(cfg)
	_, err := m.LocalizeBatch([]LocalizeRequest{{ID: "", Pos: geom.Pt(50, 50), Rng: randx.New(1)}}, 1)
	if err == nil {
		t.Error("empty target ID in batch should fail")
	}
}

func TestTrackParallelMatchesSerial(t *testing.T) {
	// TrackParallel over one shared division must reproduce, for every
	// worker count, exactly what per-trace clones produce serially with
	// the same substreams.
	cfg := defaultConfig(16)
	const traces, steps = 5, 12

	mkTraces := func() ([][]geom.Point, [][]float64) {
		ps := make([][]geom.Point, traces)
		ts := make([][]float64, traces)
		for i := range ps {
			ps[i] = make([]geom.Point, steps)
			ts[i] = make([]float64, steps)
			for j := range ps[i] {
				ps[i][j] = geom.Pt(10+float64(i*15+j), 15+float64(i*10+j))
				ts[i][j] = float64(j) * 0.5
			}
		}
		return ps, ts
	}
	ps, tms := mkTraces()

	base, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	root := randx.New(17)
	want := make([][]TrackedPoint, traces)
	for i := range ps {
		clone, err := NewWithDivision(cfg, base.Division())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = clone.Track(ps[i], tms[i], root.SplitN("trace", i))
	}

	for _, workers := range []int{1, 2, 4, 0} {
		tr, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tr.TrackParallel(ps, tms, randx.New(17), workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("workers=%d trace %d: %d points, want %d", workers, i, len(got[i]), len(want[i]))
			}
			for j := range want[i] {
				if got[i][j].Estimate != want[i][j].Estimate {
					t.Fatalf("workers=%d trace %d step %d: %v, want %v",
						workers, i, j, got[i][j].Estimate, want[i][j].Estimate)
				}
			}
		}
	}

	// times validation: outer length and per-trace length mismatches.
	tr, _ := New(cfg)
	if _, err := tr.TrackParallel(ps, tms[:traces-1], randx.New(1), 1); err == nil {
		t.Error("outer times length mismatch should fail")
	}
	bad := make([][]float64, traces)
	copy(bad, tms)
	bad[2] = bad[2][:steps-1]
	if _, err := tr.TrackParallel(ps, bad, randx.New(1), 1); err == nil {
		t.Error("per-trace times length mismatch should fail")
	}
	if _, err := tr.TrackParallel(ps, nil, randx.New(1), 1); err != nil {
		t.Errorf("nil times should be accepted: %v", err)
	}
}

func TestLocalizeBatchMatchesSerial(t *testing.T) {
	// The serving determinism contract: LocalizeBatch must be
	// byte-identical to executing the requests one at a time in slice
	// order, whatever workers argument it is given (it is ignored) —
	// including batches where one target
	// appears several times (per-target FIFO) and mixed Pos/Group
	// requests.
	cfg := defaultConfig(16)
	s := &sampling.Sampler{Model: cfg.Model, Nodes: cfg.Nodes, Range: cfg.Range, Epsilon: cfg.Epsilon}
	root := randx.New(23)

	mkReqs := func() []LocalizeRequest {
		var reqs []LocalizeRequest
		seq := map[string]int{}
		for i := 0; i < 40; i++ {
			id := fmt.Sprintf("t%d", i%5)
			n := seq[id]
			seq[id]++
			pos := geom.Pt(10+float64((i*7)%80), 10+float64((i*13)%80))
			if i%4 == 3 {
				// Report-ingestion path: an externally collected group.
				g := s.Sample(pos, cfg.SamplingTimes, root.Split(id).SplitN("grp", n))
				reqs = append(reqs, LocalizeRequest{ID: id, Group: g})
			} else {
				reqs = append(reqs, LocalizeRequest{
					ID: id, Pos: pos,
					Rng: root.Split(id).SplitN("req", n),
				})
			}
		}
		return reqs
	}

	// Serial reference: a fresh MultiTracker, one request at a time.
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

	for _, workers := range []int{1, 2, 4, 0} {
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

	// Error cases: empty target ID, and a request with neither Group nor
	// stream.
	m, _ := NewMulti(cfg)
	if _, err := m.LocalizeBatch([]LocalizeRequest{{ID: "", Rng: root}}, 1); err == nil {
		t.Error("empty target ID should fail")
	}
	if _, err := m.LocalizeBatch([]LocalizeRequest{{ID: "x"}}, 1); err == nil {
		t.Error("request with neither Group nor Rng should fail")
	}
}
