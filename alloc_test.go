// Allocation-regression gates for the localization hot path (run by
// `make check`). The matcher owns reusable scratch (epoch-stamped
// visited slice, recycled frontier heap), so a warmed-up Heuristic.Match
// performs zero allocations; LocalizeGroup on top of it allocates only
// the sampling vector. These tests pin those budgets so a stray
// per-call map or heap box cannot creep back in unnoticed.
package fttt_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"fttt/internal/core"
	"fttt/internal/deploy"
	"fttt/internal/field"
	"fttt/internal/geom"
	"fttt/internal/match"
	"fttt/internal/obs"
	"fttt/internal/randx"
	"fttt/internal/rf"
	"fttt/internal/sampling"
	"fttt/internal/serve"
	"fttt/internal/vector"
)

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race pass")
	}
}

func TestHeuristicMatchZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	fieldRect := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	dep := deploy.Random(fieldRect, 20, randx.New(6))
	rc, err := field.NewRatioClassifier(dep.Positions(), rf.Default().UncertaintyC(1))
	if err != nil {
		t.Fatal(err)
	}
	div, err := field.Divide(fieldRect, rc, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := &sampling.Sampler{Model: rf.Default(), Nodes: dep.Positions(), Range: 40, Epsilon: 1}
	m := &match.Heuristic{Div: div}
	// A spread of probes so the gate holds across cold starts, warm
	// starts and frontier growth, not just one lucky vector.
	rng := randx.New(9)
	type probe struct {
		v    vector.Vector
		prev *field.Face
	}
	probes := make([]probe, 16)
	for i := range probes {
		p := geom.Pt(rng.Uniform(5, 95), rng.Uniform(5, 95))
		probes[i].v = s.Sample(p, 5, rng.SplitN("probe", i)).Vector()
		if i%3 != 0 {
			probes[i].prev = div.FaceAt(p)
		}
	}
	for _, pr := range probes { // warm up: grow seen + frontier scratch
		m.Match(pr.v, pr.prev)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		pr := probes[i%len(probes)]
		m.Match(pr.v, pr.prev)
		i++
	})
	if allocs != 0 {
		t.Errorf("warmed-up Heuristic.Match allocates %.1f objects/op, want 0", allocs)
	}
}

// TestMatchBatchZeroAllocs pins the batch matcher's steady-state
// contract: a warmed-up MatchBatch pass over a mixed probe spread (cold
// + warm starts, ternary Basic vectors) performs zero heap allocations
// when the destination slice has capacity — the SoA kernel owns all its
// scratch.
func TestMatchBatchZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	fieldRect := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	dep := deploy.Random(fieldRect, 20, randx.New(6))
	rc, err := field.NewRatioClassifier(dep.Positions(), rf.Default().UncertaintyC(1))
	if err != nil {
		t.Fatal(err)
	}
	div, err := field.Divide(fieldRect, rc, 2)
	if err != nil {
		t.Fatal(err)
	}
	if div.SoA() == nil {
		t.Fatal("ternary division carries no SoA store")
	}
	s := &sampling.Sampler{Model: rf.Default(), Nodes: dep.Positions(), Range: 40, Epsilon: 1}
	rng := randx.New(9)
	vs := make([]vector.Vector, 16)
	prevs := make([]*field.Face, 16)
	for i := range vs {
		p := geom.Pt(rng.Uniform(5, 95), rng.Uniform(5, 95))
		vs[i] = s.Sample(p, 5, rng.SplitN("probe", i)).Vector()
		if i%3 != 0 {
			prevs[i] = div.FaceAt(p)
		}
	}
	m := &match.Batch{Div: div, Incremental: true}
	out := m.MatchBatch(nil, vs, prevs) // warm scratch + result capacity
	allocs := testing.AllocsPerRun(200, func() {
		out = m.MatchBatch(out[:0], vs, prevs)
	})
	if allocs != 0 {
		t.Errorf("warmed-up MatchBatch allocates %.1f objects/op, want 0", allocs)
	}
}

func TestLocalizeGroupAllocBudget(t *testing.T) {
	skipUnderRace(t)
	fieldRect := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	dep := deploy.Random(fieldRect, 20, randx.New(6))
	tr, err := core.New(core.Config{
		Field: fieldRect, Nodes: dep.Positions(), Model: rf.Default(),
		Epsilon: 1, SamplingTimes: 5, Range: 40, CellSize: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := &sampling.Sampler{Model: rf.Default(), Nodes: dep.Positions(), Range: 40, Epsilon: 1}
	rng := randx.New(10)
	groups := make([]*sampling.Group, 16)
	for i := range groups {
		p := geom.Pt(rng.Uniform(5, 95), rng.Uniform(5, 95))
		groups[i] = s.Sample(p, 5, rng.SplitN("g", i))
	}
	for _, g := range groups {
		tr.LocalizeGroup(g)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		tr.LocalizeGroup(groups[i%len(groups)])
		i++
	})
	// One allocation for the sampling vector (Group.Vector); the matcher
	// itself must contribute none.
	const budget = 2
	if allocs > budget {
		t.Errorf("LocalizeGroup allocates %.1f objects/op, budget %d", allocs, budget)
	}
}

// TestSplitAllocBudget pins the cost of one randx substream. Sampling
// splits one per reported node per round, so it must stay one small
// object (~96 B); a seeded math/rand source would cost ~4.9 KB.
func TestSplitAllocBudget(t *testing.T) {
	skipUnderRace(t)
	root := randx.New(1)
	var sink *randx.Stream
	for _, c := range []struct {
		name  string
		split func()
	}{
		{"Split", func() { sink = root.Split("loss") }},
		{"SplitN", func() { sink = root.SplitN("node", 7) }},
	} {
		if allocs := testing.AllocsPerRun(200, c.split); allocs > 1 {
			t.Errorf("%s allocates %.1f objects/stream, budget 1", c.name, allocs)
		}
		const runs = 1000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			c.split()
		}
		runtime.ReadMemStats(&after)
		if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > 128 {
			t.Errorf("%s allocates %d B/stream, budget 128", c.name, b)
		}
	}
	_ = sink
}

// TestTraceNilPathZeroAllocs pins the tracing-off contract: with a nil
// Tracer or nil *Recorder, every instrumentation entry point must cost
// one pointer comparison and zero allocations, so always-on call sites
// in the localization hot path stay free when no recorder is attached.
func TestTraceNilPathZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	var rec *obs.Recorder
	parent := obs.SpanRef{}
	allocs := testing.AllocsPerRun(200, func() {
		obs.StartSpan(nil, "core", "localize")()
		obs.Emit(nil, "core", "degraded", 1)
		sp := rec.Start(parent, "core", "localize")
		sp.Attr("reported", 5)
		sp.AttrStr("target", "t")
		sp.Flag("degraded", true)
		sp.End()
		rec.RecordEvent(parent, "faults", "report_dropped", 1)
		rec.Link(parent, parent)
		_ = rec.Records()
	})
	if allocs != 0 {
		t.Errorf("nil-tracer/nil-recorder path allocates %.1f objects/op, want 0", allocs)
	}
}

// serveSession stands up an in-process serving session on the paper's
// default-shaped field for the serving-path gates below.
func serveSession(tb testing.TB) *serve.Session {
	tb.Helper()
	srv := serve.New(serve.Config{})
	sess, err := srv.CreateSession(serve.SessionConfig{
		Seed:      6,
		Field:     &serve.RectWire{Max: serve.PointWire{X: 60, Y: 60}},
		GridNodes: 9,
		CellSize:  3,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.CloseSession(sess.ID()) })
	return sess
}

// TestServeLocalizeAllocBudget gates the full serving path — admission,
// sequence assignment, substream derivation, the batcher round-trip and
// result fan-out — so per-request garbage (a stray closure, a
// per-request timer, JSON marshalling with no SSE subscribers) cannot
// creep into the hot path unnoticed.
func TestServeLocalizeAllocBudget(t *testing.T) {
	skipUnderRace(t)
	sess := serveSession(t)
	ctx := context.Background()
	rng := randx.New(11)
	points := make([]geom.Point, 16)
	for i := range points {
		points[i] = geom.Pt(rng.Uniform(5, 55), rng.Uniform(5, 55))
	}
	for _, p := range points { // warm up tracker + batcher scratch
		if _, err := sess.Localize(ctx, "bench", p); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := sess.Localize(ctx, "bench", points[i%len(points)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	// Substream derivation (one allocation per randx split) plus the
	// simulated sampling matrix and vector; the serving wrapper itself
	// adds only the request struct, done channel and batch slices.
	// Headroom over the measured 34.
	const budget = 48
	if allocs > budget {
		t.Errorf("served Localize allocates %.1f objects/op, budget %d", allocs, budget)
	}
}

// replayBody is a request body that can be rewound, so one request can
// be served repeatedly without per-op allocations of its own.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// TestServeIngestAllocBudget gates the HTTP report-ingestion path —
// routing, body read, wire decode, group validation, the batcher
// round-trip and the JSON response — on the ingest-shared shape: a
// 36-node grid with 2 m cells and a k=5 report of ~2 KB.
func TestServeIngestAllocBudget(t *testing.T) {
	skipUnderRace(t)
	srv := serve.New(serve.Config{})
	sess, err := srv.CreateSession(serve.SessionConfig{Seed: 6, GridNodes: 36, CellSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.CloseSession(sess.ID())
	cfg, err := serve.SessionConfig{GridNodes: 36}.CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	smp := &sampling.Sampler{Model: cfg.Model, Nodes: cfg.Nodes, Range: cfg.Range, ReportLoss: 0.1, Epsilon: cfg.Epsilon}
	g := smp.Sample(geom.Pt(50, 50), cfg.SamplingTimes, randx.New(12))
	body, err := json.Marshal(serve.ReportWire{Target: "t0", RSS: g.RSS, Reported: g.Reported})
	if err != nil {
		t.Fatal(err)
	}
	rb := &replayBody{}
	req := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+sess.ID()+"/reports", nil)
	req.Body, req.ContentLength = rb, int64(len(body))
	serveOnce := func() {
		rb.Reset(body)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("reports: status %d: %s", rec.Code, rec.Body)
		}
	}
	for i := 0; i < 16; i++ { // warm up tracker, batcher and body pool
		serveOnce()
	}
	allocs := testing.AllocsPerRun(200, serveOnce)
	t.Logf("served report ingest: %d B body, %.1f allocs/op", len(body), allocs)
	// Measured 38 (90 before the fast decoder); the rest is routing,
	// the recorder, the request deadline, the batcher round-trip and
	// the JSON response.
	const budget = 44
	if allocs > budget {
		t.Errorf("served report ingest allocates %.1f objects/op, budget %d", allocs, budget)
	}
}

// BenchmarkServeLocalize measures the in-process serving path end to
// end (no HTTP): admission through batcher to delivered estimate.
func BenchmarkServeLocalize(b *testing.B) {
	sess := serveSession(b)
	ctx := context.Background()
	rng := randx.New(11)
	points := make([]geom.Point, 16)
	for i := range points {
		points[i] = geom.Pt(rng.Uniform(5, 55), rng.Uniform(5, 55))
	}
	if _, err := sess.Localize(ctx, "bench", points[0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Localize(ctx, "bench", points[i%len(points)]); err != nil {
			b.Fatal(err)
		}
	}
}
