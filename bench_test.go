// Benchmarks regenerating every table and figure of the paper (DESIGN.md
// §4). Each BenchmarkFig*/BenchmarkTable* runs the corresponding
// experiment driver at reduced scale per iteration, so
//
//	go test -bench=. -benchmem
//
// exercises the entire evaluation pipeline; cmd/fttt-bench prints the
// full-scale rows. Micro-benchmarks for the core primitives (division,
// sampling vector construction, the two matchers) quantify the
// complexity claims of Sec. 4.4.
package fttt_test

import (
	"runtime"
	"testing"

	"fttt/internal/core"
	"fttt/internal/deploy"
	"fttt/internal/experiments"
	"fttt/internal/field"
	"fttt/internal/geom"
	"fttt/internal/match"
	"fttt/internal/obs"
	"fttt/internal/randx"
	"fttt/internal/rf"
	"fttt/internal/sampling"
)

func benchParams() experiments.Params {
	p := experiments.Quick()
	p.Duration = 10
	p.Trials = 1
	return p
}

// BenchmarkTable1 measures the preprocessing a Table 1 configuration
// implies: building the uncertain-boundary division for 20 nodes.
func BenchmarkTable1Preprocess(b *testing.B) {
	fieldRect := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	dep := deploy.Grid(fieldRect, 20)
	model := rf.Default()
	rc, err := field.NewRatioClassifier(dep.Positions(), model.UncertaintyC(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := field.Divide(fieldRect, rc, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11a(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11a(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11bc(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11bc(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12a(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12a(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12b(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12b(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12cd(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12cd(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13(b *testing.B) {
	p := benchParams()
	p.Duration = 20
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig13(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSamplingTimes(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		experiments.SamplingTimes(p, 6, []int{3, 5, 9}, 2000)
	}
}

func BenchmarkErrorScaling(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ErrorScaling(p, []int{3, 9}, []int{15}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBoundaryAblation(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BoundaryAblation(p, []int{12}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMethodComparison(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MethodComparison(p, []int{12}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSmoothing(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Smoothing(p, []int{12}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNetworkLifetime(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NetworkLifetime(p, 16, 4, 2000, 5e-4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSyncAccuracy(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SyncAccuracy(p, []float64{30, 120}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks for the Sec. 4.4 complexity claims ---

func matcherFixture(b *testing.B, n int) (*field.Division, []geom.Point, *sampling.Sampler) {
	b.Helper()
	fieldRect := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	dep := deploy.Random(fieldRect, n, randx.New(5))
	model := rf.Default()
	rc, err := field.NewRatioClassifier(dep.Positions(), model.UncertaintyC(1))
	if err != nil {
		b.Fatal(err)
	}
	div, err := field.Divide(fieldRect, rc, 2)
	if err != nil {
		b.Fatal(err)
	}
	s := &sampling.Sampler{Model: model, Nodes: dep.Positions(), Range: 40, Epsilon: 1}
	return div, dep.Positions(), s
}

func benchMatcher(b *testing.B, n int, mk func(div *field.Division) *match.Batch) {
	div, _, s := matcherFixture(b, n)
	m := mk(div)
	rng := randx.New(9)
	v := s.Sample(geom.Pt(47, 53), 5, rng).Vector()
	prev := div.FaceAt(geom.Pt(50, 50))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := m.Match(v, prev)
		prev = r.Face
	}
}

func BenchmarkMatcherExhaustiveN9(b *testing.B) {
	benchMatcher(b, 9, func(d *field.Division) *match.Batch { return &match.Batch{Div: d, Exhaustive: true} })
}

func BenchmarkMatcherExhaustiveN25(b *testing.B) {
	benchMatcher(b, 25, func(d *field.Division) *match.Batch { return &match.Batch{Div: d, Exhaustive: true} })
}

func BenchmarkMatcherHeuristicN9(b *testing.B) {
	benchMatcher(b, 9, func(d *field.Division) *match.Batch { return &match.Batch{Div: d} })
}

func BenchmarkMatcherHeuristicN25(b *testing.B) {
	benchMatcher(b, 25, func(d *field.Division) *match.Batch { return &match.Batch{Div: d} })
}

func BenchmarkSamplingVector(b *testing.B) {
	_, _, s := matcherFixture(b, 25)
	g := s.Sample(geom.Pt(47, 53), 5, randx.New(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Vector()
	}
}

func BenchmarkExtendedSamplingVector(b *testing.B) {
	_, _, s := matcherFixture(b, 25)
	g := s.Sample(geom.Pt(47, 53), 5, randx.New(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ExtendedVector()
	}
}

func BenchmarkLocalize(b *testing.B) {
	fieldRect := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	dep := deploy.Random(fieldRect, 20, randx.New(6))
	tr, err := core.New(core.Config{
		Field: fieldRect, Nodes: dep.Positions(), Model: rf.Default(),
		Epsilon: 1, SamplingTimes: 5, Range: 40, CellSize: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := randx.New(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Localize(geom.Pt(40, 60), rng.SplitN("loc", i))
	}
}

// BenchmarkLocalizeInstrumented is BenchmarkLocalize with a live
// telemetry registry attached; comparing the two quantifies the
// bookkeeping overhead (the nil-registry fast path in BenchmarkLocalize
// must stay within a few percent of the seed numbers).
func BenchmarkLocalizeInstrumented(b *testing.B) {
	fieldRect := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	dep := deploy.Random(fieldRect, 20, randx.New(6))
	tr, err := core.New(core.Config{
		Field: fieldRect, Nodes: dep.Positions(), Model: rf.Default(),
		Epsilon: 1, SamplingTimes: 5, Range: 40, CellSize: 2,
		Obs: obs.NewRegistry(),
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := randx.New(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Localize(geom.Pt(40, 60), rng.SplitN("loc", i))
	}
}

// BenchmarkDivideSerial and BenchmarkDivideParallel compare the
// signature-pass construction cost for one worker against the machine's
// CPU count (the Divide default). On a single-core box they coincide;
// the byte-identical-output guarantee is covered by the field tests.
func BenchmarkDivideSerial(b *testing.B)   { benchDivide(b, 1) }
func BenchmarkDivideParallel(b *testing.B) { benchDivide(b, runtime.NumCPU()) }

func benchDivide(b *testing.B, workers int) {
	fieldRect := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	dep := deploy.Grid(fieldRect, 20)
	rc, err := field.NewRatioClassifier(dep.Positions(), rf.Default().UncertaintyC(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := field.DivideWorkers(fieldRect, rc, 1, workers); err != nil {
			b.Fatal(err)
		}
	}
}
