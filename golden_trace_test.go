package fttt_test

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"fttt"
	"fttt/internal/core"
	"fttt/internal/faults"
	"fttt/internal/fsx"
)

// -update-golden regenerates the fixtures under results/golden/ from
// the current code. Run it only when a behavioural change is intended;
// the diff of the fixture files then documents exactly what moved.
var updateGolden = flag.Bool("update-golden", false, "rewrite the results/golden trace fixtures")

const goldenDir = "results/golden"

// goldenEps bounds the per-coordinate replay deviation. The scenarios
// are fully deterministic, so the only slack needed is the fixture's
// own decimal rounding (%.6f).
const goldenEps = 1e-5

// goldenScenario selects one of the pinned end-to-end scenarios: the
// fault-free Basic baseline, the faulted one, or the fault-free
// Extended (Def. 10) one.
type goldenScenario int

const (
	goldenBaseline goldenScenario = iota
	goldenFaulted
	goldenExtended
)

// goldenConfig is the pinned scenarios' tracker configuration. The
// faulted scenario layers the full fault repertoire — mid-run partial
// crash with recovery, burst channel, calibration drift, clock skew —
// on the same deployment and trace, with the degradation policy armed;
// the extended one switches the sampling vectors to Def. 10's
// quantitative values, whose lanes take the matcher's float kernel.
func goldenConfig(t *testing.T, sc goldenScenario) fttt.Config {
	t.Helper()
	field := fttt.NewRect(fttt.Pt(0, 0), fttt.Pt(100, 100))
	dep := fttt.DeployGrid(field, 16)
	cfg := fttt.DefaultConfig(dep)
	cfg.CellSize = 2
	switch sc {
	case goldenFaulted:
		script, err := faults.Parse(`
			crash at=6 frac=0.25 recover=14
			crash at=8 frac=0.9 recover=10   # brief near-blackout: trips the degradation policy
			burst pgb=0.05 pbg=0.5 loss=0.9
			drift sigma=0.05
			skew max=0.01 slew=10
		`)
		if err != nil {
			t.Fatal(err)
		}
		cfg.FaultScript = script
		cfg.FaultSeed = 99
		cfg.StarFractionLimit = 0.6
		cfg.RetryBackoff = 0.1
	case goldenExtended:
		cfg.Variant = fttt.Extended
	}
	return cfg
}

// goldenTrace runs one of the pinned end-to-end scenarios serially
// through Track.
func goldenTrace(t *testing.T, sc goldenScenario) []fttt.TrackedPoint {
	t.Helper()
	cfg := goldenConfig(t, sc)
	mob := fttt.Waypoints([]fttt.Point{fttt.Pt(20, 20), fttt.Pt(80, 60)}, 3)
	trace, times := fttt.SampleTrace(mob, 20, 2)
	tracked, err := fttt.Track(cfg, trace, times, 12345)
	if err != nil {
		t.Fatal(err)
	}
	return tracked
}

func goldenCSV(pts []fttt.TrackedPoint) string {
	var b strings.Builder
	b.WriteString("t,true_x,true_y,est_x,est_y,err,degraded,retried,extrapolated\n")
	for _, p := range pts {
		fmt.Fprintf(&b, "%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%d,%d,%d\n",
			p.T, p.True.X, p.True.Y, p.Estimate.Pos.X, p.Estimate.Pos.Y, p.Error,
			b2i(p.Estimate.Degraded), b2i(p.Estimate.Retried), b2i(p.Estimate.Extrapolated))
	}
	return b.String()
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// replayGolden re-runs the scenario and compares every field of every
// tracked point against the committed fixture within goldenEps.
func replayGolden(t *testing.T, name string, sc goldenScenario) {
	got := goldenCSV(goldenTrace(t, sc))

	if *updateGolden {
		path := filepath.Join(goldenDir, name)
		if err := fsx.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	compareGoldenCSV(t, name, got)
}

// compareGoldenCSV diffs a rendered replay against the committed
// fixture, field by field within goldenEps.
func compareGoldenCSV(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join(goldenDir, name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture %s (generate with: go test -run GoldenTrace -update-golden): %v", path, err)
	}
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	gotLines := strings.Split(strings.TrimSpace(got), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("replay has %d lines, fixture has %d", len(gotLines), len(wantLines))
	}
	for li := 1; li < len(wantLines); li++ { // skip header
		wf := strings.Split(wantLines[li], ",")
		gf := strings.Split(gotLines[li], ",")
		if len(wf) != len(gf) {
			t.Fatalf("line %d: %d fields vs %d in fixture", li, len(gf), len(wf))
		}
		for ci := range wf {
			w, err1 := strconv.ParseFloat(wf[ci], 64)
			g, err2 := strconv.ParseFloat(gf[ci], 64)
			if err1 != nil || err2 != nil {
				t.Fatalf("line %d col %d: unparseable %q / %q", li, ci, wf[ci], gf[ci])
			}
			if math.Abs(w-g) > goldenEps {
				t.Errorf("line %d col %d: replay %v, fixture %v (Δ=%g > %g)\n"+
					"(a deliberate behavioural change? regenerate with -update-golden)",
					li, ci, g, w, math.Abs(w-g), goldenEps)
				return
			}
		}
	}
}

// TestGoldenTraceBaseline replays the fault-free pinned scenario
// against results/golden/track_baseline.csv: any change to RNG
// splitting, sampling, division or matching shows up as a point-wise
// diff, not just a shifted mean.
func TestGoldenTraceBaseline(t *testing.T) {
	replayGolden(t, "track_baseline.csv", goldenBaseline)
}

// TestGoldenTraceFaulted replays the fault-injected pinned scenario
// (crash+recover, burst channel, drift, skew, degradation policy armed)
// against results/golden/track_faulted.csv — the fault scheduler's draw
// sequences are part of the pinned behaviour.
func TestGoldenTraceFaulted(t *testing.T) {
	replayGolden(t, "track_faulted.csv", goldenFaulted)
}

// goldenTraceBatched replays the same pinned scenario through the
// wave-batched MultiTracker path: every trace point becomes a
// LocalizeRequest for one target, so each point's first match runs
// in a MultiTracker wave instead of on the tracker's own matcher.
// The fault-free scenarios submit the whole trace as a single
// LocalizeBatch call (per-target FIFO turns it into 41 single-lane
// waves in order); the faulted variant must advance the fault clock
// between points exactly as Track's Seek does, so each point is its own
// batch with the recorder armed — proving instrumentation does not
// perturb the wave path either.
func goldenTraceBatched(t *testing.T, sc goldenScenario) []fttt.TrackedPoint {
	t.Helper()
	cfg := goldenConfig(t, sc)
	faulted := sc == goldenFaulted
	if faulted {
		cfg.Tracer = fttt.NewTraceRecorder(0)
	}
	m, err := fttt.NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Division().SoA() == nil {
		t.Fatal("golden division carries no SoA store; the wave path would not engage")
	}
	mob := fttt.Waypoints([]fttt.Point{fttt.Pt(20, 20), fttt.Pt(80, 60)}, 3)
	trace, times := fttt.SampleTrace(mob, 20, 2)
	rng := fttt.NewStream(12345)
	const target = "golden"
	out := make([]fttt.TrackedPoint, len(trace))
	record := func(i int, est fttt.Estimate) {
		out[i] = fttt.TrackedPoint{
			T:        times[i],
			True:     trace[i],
			Estimate: est,
			Error:    est.Pos.Dist(trace[i]),
		}
	}
	if !faulted {
		reqs := make([]core.LocalizeRequest, len(trace))
		for i, pos := range trace {
			reqs[i] = core.LocalizeRequest{ID: target, Pos: pos, Rng: rng.SplitN("loc", i)}
		}
		ests, err := m.LocalizeBatch(reqs, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ests {
			record(i, ests[i])
		}
		return out
	}
	for i, pos := range trace {
		sched, err := m.FaultScheduler(target)
		if err != nil {
			t.Fatal(err)
		}
		if sched != nil {
			sched.Seek(times[i])
		}
		ests, err := m.LocalizeBatch(
			[]core.LocalizeRequest{{ID: target, Pos: pos, Rng: rng.SplitN("loc", i)}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		record(i, ests[0])
	}
	return out
}

// replayGoldenBatched checks the batched replay against the
// serial-generated fixture, byte for byte: the wave path's estimates,
// flags and formatting must be indistinguishable from Track's.
func replayGoldenBatched(t *testing.T, name string, sc goldenScenario) {
	if *updateGolden {
		t.Skip("fixtures are generated by the serial replay")
	}
	got := goldenCSV(goldenTraceBatched(t, sc))
	want, err := os.ReadFile(filepath.Join(goldenDir, name))
	if err != nil {
		t.Fatalf("missing fixture (generate with: go test -run GoldenTrace -update-golden): %v", err)
	}
	if got == string(want) {
		return
	}
	// Not byte-identical: run the numeric comparer for a readable diff,
	// then fail regardless — equality within goldenEps is not enough for
	// the batched path, whose contract is bitwise equivalence.
	compareGoldenCSV(t, name, got)
	t.Errorf("batched replay of %s differs from the serial fixture at the byte level", name)
}

// TestGoldenTraceBatchedBaseline replays the fault-free pinned scenario
// through MultiTracker.LocalizeBatch (the SoA wave path) and demands
// the exact bytes of results/golden/track_baseline.csv — the
// end-to-end form of the batch matcher's differential contract.
func TestGoldenTraceBatchedBaseline(t *testing.T) {
	replayGoldenBatched(t, "track_baseline.csv", goldenBaseline)
}

// TestGoldenTraceBatchedFaulted replays the fault-injected scenario
// through per-point wave batches with the flight recorder armed and
// demands the exact bytes of results/golden/track_faulted.csv:
// degradation retries, extrapolation and the fault scheduler's draw
// sequences must all survive the batched execution unchanged.
func TestGoldenTraceBatchedFaulted(t *testing.T) {
	replayGoldenBatched(t, "track_faulted.csv", goldenFaulted)
}

// TestGoldenTraceExtended replays the fault-free pinned scenario with
// Extended (Def. 10) sampling vectors against
// results/golden/track_extended.csv. Extended lanes carry fractional
// components, so they exercise the matcher's float kernel — the
// incremental per-link patch and its clamp — end to end.
func TestGoldenTraceExtended(t *testing.T) {
	replayGolden(t, "track_extended.csv", goldenExtended)
}

// TestGoldenTraceBatchedExtended replays the Extended scenario through
// one LocalizeBatch call and demands the exact bytes of
// results/golden/track_extended.csv.
func TestGoldenTraceBatchedExtended(t *testing.T) {
	replayGoldenBatched(t, "track_extended.csv", goldenExtended)
}
