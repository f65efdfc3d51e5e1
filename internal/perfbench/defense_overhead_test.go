package perfbench

import (
	"testing"
	"time"
)

// TestDefenseOverheadBounded gates the DESIGN.md §15 overhead contract:
// an honest defended localization (core/localize-defended) must cost at
// most 15% more than the undefended core/localize on the identical
// fixture and seed. Timing on shared runners jitters, and a burst of
// load that lands on one scenario's run skews any ratio of two
// back-to-back runs. So each attempt times plain and defended in
// interleaved pairs, alternating which runs first, and judges the
// median of the per-pair ratios: a burst spoils one pair, not the
// median, while a genuine regression (the defense growing an
// O(n²·faces) pass, say) inflates every pair. The gate passes on the
// first attempt within the bound.
func TestDefenseOverheadBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("timed comparison")
	}
	const (
		attempts  = 3
		pairs     = 7
		bound     = 1.15
		benchTime = 40 * time.Millisecond
	)
	plain, defended := scenarioInstance(t, "core/localize"), scenarioInstance(t, "core/localize-defended")
	benchTimeMu.Lock()
	defer benchTimeMu.Unlock()
	if err := setBenchTime(benchTime); err != nil {
		t.Fatal(err)
	}
	nsPerOp := func(inst *instance) float64 {
		r := testing.Benchmark(inst.op)
		if r.N == 0 {
			t.Fatal("benchmark aborted")
		}
		return float64(r.T.Nanoseconds()) / float64(r.N)
	}
	nsPerOp(plain) // warm both fixtures up outside the measured pairs
	nsPerOp(defended)
	best := 0.0
	for a := 0; a < attempts; a++ {
		ratios := make([]float64, pairs)
		for i := range ratios {
			var base, def float64
			if i%2 == 0 {
				base = nsPerOp(plain)
				def = nsPerOp(defended)
			} else {
				def = nsPerOp(defended)
				base = nsPerOp(plain)
			}
			ratios[i] = def / base
		}
		ratio := median(ratios)
		t.Logf("attempt %d: median defended/plain ratio %.3f over %d pairs %.3f", a, ratio, pairs, ratios)
		if best == 0 || ratio < best {
			best = ratio
		}
		if best <= bound {
			return
		}
	}
	t.Errorf("defense overhead ratio %.3f exceeds %.2f on every attempt", best, bound)
}

// scenarioInstance builds the named catalog scenario's fixtures.
func scenarioInstance(t *testing.T, name string) *instance {
	t.Helper()
	for _, sc := range Suite() {
		if sc.Name != name {
			continue
		}
		inst, err := sc.setup(sc)
		if err != nil {
			t.Fatal(err)
		}
		if inst.cleanup != nil {
			t.Cleanup(inst.cleanup)
		}
		return inst
	}
	t.Fatalf("no scenario %q in the suite", name)
	return nil
}
