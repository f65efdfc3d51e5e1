package perfbench

import (
	"flag"
	"fmt"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"fttt/internal/fsx"
)

// Options controls one harness run. The zero value is the full-depth
// default used to (re)generate baselines.
type Options struct {
	// BenchTime is the target duration of one measured repetition
	// (testing's -benchtime); ≤ 0 selects 200ms.
	BenchTime time.Duration
	// Reps is the number of measured repetitions per scenario; ≤ 0
	// selects 3 (the minimum Compare judges regressions on).
	Reps int
	// Warmup is the number of discarded repetitions before measuring;
	// < 0 selects 0, 0 selects 1.
	Warmup int
	// Filter, when non-nil, selects the scenarios to run by name.
	// Filtered runs are for local iteration; Compare flags the missing
	// scenarios against a full baseline.
	Filter *regexp.Regexp
	// Label tags the report (e.g. "PR5").
	Label string
	// ProfileDir, when non-empty, captures one cpu and one heap pprof
	// profile per scenario (an extra, unmeasured repetition) into
	// <ProfileDir>/<name>.{cpu,heap}.pprof.
	ProfileDir string
	// Logf, when non-nil, receives per-scenario progress lines.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.BenchTime <= 0 {
		o.BenchTime = 200 * time.Millisecond
	}
	if o.Reps <= 0 {
		o.Reps = 3
	}
	if o.Warmup == 0 {
		o.Warmup = 1
	}
	if o.Warmup < 0 {
		o.Warmup = 0
	}
	return o
}

// benchTimeMu serialises benchtime flag manipulation: the testing
// package reads the flag's value when testing.Benchmark runs, so two
// concurrent Run calls with different BenchTimes would race.
var benchTimeMu sync.Mutex

// setBenchTime points testing's -test.benchtime at d, registering the
// testing flags first when running outside a test binary (fttt-perf),
// and returns the func that puts the flag's previous value back.
func setBenchTime(d time.Duration) (restore func(), err error) {
	if flag.Lookup("test.benchtime") == nil {
		testing.Init()
	}
	prev := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", d.String()); err != nil {
		return nil, err
	}
	return func() { flag.Set("test.benchtime", prev) }, nil
}

// Run executes the (optionally filtered) scenario suite: per scenario,
// Warmup discarded repetitions, then Reps measured testing.Benchmark
// repetitions, then — when ProfileDir is set — one extra profiled
// repetition. Fixtures are built once per scenario, outside every timed
// region. Run points testing's -test.benchtime at BenchTime while it
// runs and restores the flag's value on return, so benchmarks that run
// after it in the same binary keep their own benchtime.
func Run(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	benchTimeMu.Lock()
	defer benchTimeMu.Unlock()
	restore, err := setBenchTime(opts.BenchTime)
	if err != nil {
		return nil, fmt.Errorf("perfbench: set benchtime: %w", err)
	}
	defer restore()

	rep := &Report{Label: opts.Label, Reps: opts.Reps, BenchTimeNs: opts.BenchTime.Nanoseconds()}
	hostMeta(rep)

	for _, sc := range Suite() {
		if opts.Filter != nil && !opts.Filter.MatchString(sc.Name) {
			continue
		}
		res, err := runScenario(sc, opts)
		if err != nil {
			return nil, fmt.Errorf("perfbench: %s: %w", sc.Name, err)
		}
		rep.Scenarios = append(rep.Scenarios, res)
		if opts.Logf != nil {
			opts.Logf("%-28s %12.0f ns/op  %6d allocs/op%s",
				sc.Name, res.MedianNsPerOp, res.AllocsPerOp, percentileNote(res))
		}
	}
	return rep, nil
}

func percentileNote(res ScenarioResult) string {
	if res.P99Ns == 0 {
		return ""
	}
	return fmt.Sprintf("  p50 %.0fµs p99 %.0fµs", res.P50Ns/1e3, res.P99Ns/1e3)
}

func runScenario(sc Scenario, opts Options) (ScenarioResult, error) {
	res := ScenarioResult{Name: sc.Name, Kind: sc.Kind, Seed: sc.Seed, MapsTo: sc.MapsTo}
	inst, err := sc.setup(sc)
	if err != nil {
		return res, err
	}
	if inst.cleanup != nil {
		defer inst.cleanup()
	}

	for i := 0; i < opts.Warmup; i++ {
		if r := testing.Benchmark(inst.op); r.N == 0 {
			return res, fmt.Errorf("warmup repetition failed (benchmark aborted)")
		}
	}
	if inst.lat != nil {
		inst.lat.reset() // quantiles cover measured reps only
	}
	for i := 0; i < opts.Reps; i++ {
		r := testing.Benchmark(inst.op)
		if r.N == 0 {
			return res, fmt.Errorf("measured repetition failed (benchmark aborted)")
		}
		res.Iters = append(res.Iters, r.N)
		res.NsPerOp = append(res.NsPerOp, float64(r.T.Nanoseconds())/float64(r.N))
		res.BytesPerOp = r.AllocedBytesPerOp()
		res.AllocsPerOp = r.AllocsPerOp()
	}
	res.MedianNsPerOp = median(res.NsPerOp)
	if inst.lat != nil {
		res.P50Ns = inst.lat.quantileNs(0.50)
		res.P99Ns = inst.lat.quantileNs(0.99)
	}

	if opts.ProfileDir != "" {
		if err := captureProfiles(sc, inst, opts.ProfileDir); err != nil {
			return res, err
		}
	}
	return res, nil
}

// captureProfiles runs one extra repetition under the CPU profiler and
// snapshots the heap afterwards. Profile repetitions are never part of
// the measured statistics.
func captureProfiles(sc Scenario, inst *instance, dir string) error {
	base := dir + "/" + strings.ReplaceAll(sc.Name, "/", "_")
	cpu, err := fsx.Create(base + ".cpu.pprof")
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return err
	}
	testing.Benchmark(inst.op)
	pprof.StopCPUProfile()
	if err := cpu.Close(); err != nil {
		return err
	}

	runtime.GC()
	heap, err := fsx.Create(base + ".heap.pprof")
	if err != nil {
		return err
	}
	if err := pprof.WriteHeapProfile(heap); err != nil {
		heap.Close()
		return err
	}
	return heap.Close()
}
