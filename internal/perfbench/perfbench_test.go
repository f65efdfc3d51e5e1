package perfbench

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

func TestSuiteStableIdentity(t *testing.T) {
	a, b := Suite(), Suite()
	if len(a) == 0 {
		t.Fatal("empty suite")
	}
	if len(a) != len(b) {
		t.Fatalf("suite size changed between calls: %d vs %d", len(a), len(b))
	}
	seen := map[string]bool{}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Kind != b[i].Kind || a[i].Seed != b[i].Seed || a[i].MapsTo != b[i].MapsTo {
			t.Errorf("scenario %d identity differs between Suite() calls: %+v vs %+v", i, a[i], b[i])
		}
		if seen[a[i].Name] {
			t.Errorf("duplicate scenario name %q", a[i].Name)
		}
		seen[a[i].Name] = true
		if a[i].Kind != KindMicro && a[i].Kind != KindMacro {
			t.Errorf("%s: bad kind %q", a[i].Name, a[i].Kind)
		}
		if a[i].setup == nil {
			t.Errorf("%s: nil setup", a[i].Name)
		}
		if a[i].Summary == "" || a[i].MapsTo == "" {
			t.Errorf("%s: missing Summary/MapsTo", a[i].Name)
		}
	}
}

// TestEveryScenarioSetsUp builds every fixture once — catching a
// scenario whose setup breaks (bad config, renamed API) without paying
// for a timed run of the whole suite.
func TestEveryScenarioSetsUp(t *testing.T) {
	if testing.Short() {
		t.Skip("fixture construction is seconds of division building")
	}
	for _, sc := range Suite() {
		inst, err := sc.setup(sc)
		if err != nil {
			t.Errorf("%s: setup: %v", sc.Name, err)
			continue
		}
		if inst.op == nil {
			t.Errorf("%s: nil op", sc.Name)
		}
		if inst.cleanup != nil {
			inst.cleanup()
		}
	}
}

func TestRunMicroAndReportRoundTrip(t *testing.T) {
	rep, err := Run(Options{
		BenchTime: time.Millisecond,
		Reps:      3,
		Warmup:    1,
		Filter:    regexp.MustCompile(`^vector/`),
		Label:     "test",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scenarios) != 2 {
		t.Fatalf("got %d scenarios, want 2 (vector/diff, vector/similarity)", len(rep.Scenarios))
	}
	for _, s := range rep.Scenarios {
		if len(s.NsPerOp) != 3 || len(s.Iters) != 3 {
			t.Errorf("%s: %d reps recorded, want 3", s.Name, len(s.NsPerOp))
		}
		if s.MedianNsPerOp <= 0 {
			t.Errorf("%s: non-positive median %v", s.Name, s.MedianNsPerOp)
		}
	}

	path := filepath.Join(t.TempDir(), "nested", "perf", "bench.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Schema != Schema || len(back.Scenarios) != len(rep.Scenarios) {
		t.Fatalf("round trip mangled report: %+v", back)
	}
	if back.Scenarios[0].MedianNsPerOp != rep.Scenarios[0].MedianNsPerOp {
		t.Fatal("round trip changed median")
	}
}

func TestReadFileRejectsForeignSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"schema":"benchstat/v0"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("foreign schema accepted")
	}
}

// TestServeScenarioPercentiles runs the serving round-trip scenario at
// minimal depth and checks the p50/p99 plumbing (obs histogram →
// report) carries real values.
func TestServeScenarioPercentiles(t *testing.T) {
	if testing.Short() {
		t.Skip("serving fixture + timed reps")
	}
	rep, err := Run(Options{
		BenchTime: 2 * time.Millisecond,
		Reps:      3,
		Filter:    regexp.MustCompile(`^serve/roundtrip$`),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scenarios) != 1 {
		t.Fatalf("got %d scenarios, want 1", len(rep.Scenarios))
	}
	s := rep.Scenarios[0]
	if s.P50Ns <= 0 || s.P99Ns <= 0 {
		t.Fatalf("serve scenario missing percentiles: p50=%v p99=%v", s.P50Ns, s.P99Ns)
	}
	if s.P99Ns < s.P50Ns {
		t.Fatalf("p99 %v < p50 %v", s.P99Ns, s.P50Ns)
	}
}

func TestRunCapturesProfiles(t *testing.T) {
	dir := t.TempDir()
	_, err := Run(Options{
		BenchTime:  time.Millisecond,
		Reps:       1,
		Filter:     regexp.MustCompile(`^vector/diff$`),
		ProfileDir: filepath.Join(dir, "profiles"), // missing: fsx must create it
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"vector_diff.cpu.pprof", "vector_diff.heap.pprof"} {
		fi, err := os.Stat(filepath.Join(dir, "profiles", name))
		if err != nil {
			t.Errorf("profile %s: %v", name, err)
			continue
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", name)
		}
	}
}

// TestMetaDeterministic pins the compare determinism contract: two
// reports produced by the same binary marshal byte-identical Meta.
func TestMetaDeterministic(t *testing.T) {
	mk := func() *Report {
		r := &Report{}
		hostMeta(r)
		for _, sc := range Suite() {
			r.Scenarios = append(r.Scenarios, ScenarioResult{Name: sc.Name, Kind: sc.Kind, Seed: sc.Seed, MapsTo: sc.MapsTo})
		}
		return r
	}
	a, err := json.Marshal(mk().Meta())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(mk().Meta())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("Meta not byte-identical:\n%s\n%s", a, b)
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{9, 1, 5}
	median(in)
	if in[0] != 9 || in[1] != 1 || in[2] != 5 {
		t.Error("median reordered its input")
	}
}

// TestRunRestoresBenchTime pins that Run leaves testing's process-wide
// -test.benchtime as it found it: Run sets the flag to its BenchTime,
// and a benchmark that runs after it in the same binary must not
// inherit that.
func TestRunRestoresBenchTime(t *testing.T) {
	bt := flag.Lookup("test.benchtime")
	orig := bt.Value.String()
	defer flag.Set("test.benchtime", orig)
	if err := flag.Set("test.benchtime", "123ms"); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Options{BenchTime: time.Millisecond, Reps: 1, Filter: regexp.MustCompile(`^vector/diff$`)}); err != nil {
		t.Fatal(err)
	}
	if got := bt.Value.String(); got != "123ms" {
		t.Errorf("-test.benchtime after Run = %q, want 123ms", got)
	}
}
