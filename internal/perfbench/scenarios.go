package perfbench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fttt/internal/byz"
	"fttt/internal/cluster"
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
	"fttt/internal/serve"
	"fttt/internal/vector"
)

// Suite returns the scenario catalog in its stable order. Names, kinds,
// seeds and MapsTo strings are part of the baseline contract: append
// new scenarios, never rename or reseed existing ones without
// regenerating results/perf/baseline.json.
func Suite() []Scenario {
	return []Scenario{
		{
			Name: "vector/diff", Kind: KindMicro, Seed: 21,
			Summary: "vector.Diff of two 20-node (190-pair) sampling vectors",
			MapsTo:  "Defs. 4-6 vector algebra behind eq. 6-7",
			setup:   setupVectorDiff,
		},
		{
			Name: "vector/similarity", Kind: KindMicro, Seed: 21,
			Summary: "vector.Similarity of a sampling vector against a face signature",
			MapsTo:  "Sec. 4.4 similarity matching (eq. 8)",
			setup:   setupVectorSimilarity,
		},
		{
			Name: "field/signature-pass", Kind: KindMicro, Seed: 6,
			Summary: "field.DivideWorkers signature pass, 20-node grid, 2 m cells, CPU workers",
			MapsTo:  "Sec. 4.3 approximate grid division; results/face_complexity.csv",
			setup:   setupSignaturePass,
		},
		{
			Name: "match/heuristic", Kind: KindMicro, Seed: 9,
			Summary: "warmed match.Heuristic.Match over a 16-probe spread (cold + prev-face starts)",
			MapsTo:  "Algorithm 2, the O(n⁴)→O(n²) claim of Sec. 4.4(2); results/match_cost.csv",
			setup:   setupHeuristicMatch,
		},
		{
			Name: "core/localize", Kind: KindMacro, Seed: 7,
			Summary: "one full Tracker.Localize (grouping sampling → vector → match → estimate)",
			MapsTo:  "eq. 6-7 end to end; the Fig. 11 per-round workload",
			setup:   setupLocalize,
		},
		{
			Name: "core/localize-batch", Kind: KindMacro, Seed: 13,
			Summary: "MultiTracker.LocalizeBatch of 16 requests across 4 targets, CPU workers",
			MapsTo:  "DESIGN.md §8 multi-target batching (serving determinism contract)",
			setup:   setupLocalizeBatch,
		},
		{
			Name: "core/track-parallel", Kind: KindMacro, Seed: 17,
			Summary: "Tracker.TrackParallel over 4 independent 16-point traces, CPU workers",
			MapsTo:  "Fig. 10-style traces under the DESIGN.md §8 concurrency model",
			setup:   setupTrackParallel,
		},
		{
			Name: "core/track-faulted", Kind: KindMacro, Seed: 19,
			Summary: "Tracker.Track over 32 points with burst loss + 20% crash and the degradation policy armed",
			MapsTo:  "DESIGN.md §9 fault model; results/fault_tolerance.csv",
			setup:   setupTrackFaulted,
		},
		{
			Name: "serve/roundtrip", Kind: KindMacro, Seed: 11,
			Summary: "in-process serving round-trip (admission → batcher → estimate), default batching, serial client",
			MapsTo:  "DESIGN.md §10 serving architecture",
			setup:   func(sc Scenario) (*instance, error) { return setupServe(sc, 0, false) },
		},
		{
			Name: "serve/roundtrip-unbatched", Kind: KindMacro, Seed: 11,
			Summary: "in-process serving round-trip with micro-batching off (MaxBatch=1), serial client",
			MapsTo:  "DESIGN.md §10 batching ablation",
			setup:   func(sc Scenario) (*instance, error) { return setupServe(sc, 1, false) },
		},
		{
			Name: "serve/roundtrip-concurrent", Kind: KindMacro, Seed: 11,
			Summary: "in-process serving round-trip, GOMAXPROCS concurrent clients over 4 targets (batches coalesce)",
			MapsTo:  "DESIGN.md §10 micro-batcher coalescing",
			setup:   func(sc Scenario) (*instance, error) { return setupServe(sc, 0, true) },
		},
		{
			Name: "obs/trace-overhead", Kind: KindMacro, Seed: 7,
			Summary: "core/localize with a flight recorder attached (ring-buffer spans + attrs per round)",
			MapsTo:  "DESIGN.md §12 tracing overhead contract (compare against core/localize)",
			setup:   setupTraceOverhead,
		},
		{
			Name: "serve/cold-session", Kind: KindMacro, Seed: 23,
			Summary: "session create+close against a warm field cache (division shared, no re-divide)",
			MapsTo:  "DESIGN.md §13 shared field-index cache (cache-hit ≥10× faster than cold build)",
			setup:   setupColdSession,
		},
		{
			Name: "match/heuristic-batch64", Kind: KindMicro, Seed: 9,
			Summary: "one match.Batch.MatchBatch pass over 64 mixed-start ternary lanes (SoA bitplane kernel)",
			MapsTo:  "Sec. 4.4 matching as a data-layout problem; DESIGN.md §14 (>4× per vector vs match/heuristic)",
			setup:   setupHeuristicMatchBatch64,
		},
		{
			Name: "core/localize-defended", Kind: KindMacro, Seed: 7,
			Summary: "core/localize with the Byzantine defense armed (honest run: evidence bookkeeping, no reweighting)",
			MapsTo:  "DESIGN.md §15 defense overhead contract (< 15% over core/localize)",
			setup:   setupLocalizeDefended,
		},
		{
			Name: "serve/cluster-roundtrip", Kind: KindMacro, Seed: 11,
			Summary: "HTTP localize round-trip through the fttt-router proxy to a 2-backend cluster, serial client",
			MapsTo:  "DESIGN.md §16 sharding (router hop + HTTP cost over serve/roundtrip's in-process path)",
			setup:   setupClusterRoundtrip,
		},
		{
			Name: "serve/ingest", Kind: KindMacro, Seed: 29,
			Summary: "in-process POST …/reports through Server.ServeHTTP: ~2 KB k=5 report on a 36-node grid, 2 m cells",
			MapsTo:  "Sec. 4.4 base-station matching of reported groups; DESIGN.md §10 wire decoding",
			setup:   setupServeIngest,
		},
		{
			Name: "field/load", Kind: KindMicro, Seed: 6,
			Summary: "field.Load of a saved division: Table-1 field, 20 random nodes, 1 m cells (7015 faces)",
			MapsTo:  "DESIGN.md §13 disk-spill format (the shared division store's warm start vs field/signature-pass)",
			setup:   setupFieldLoad,
		},
	}
}

// sink defeats dead-code elimination in micro scenarios.
var sink any

// paperConfig is the BenchmarkLocalize fixture: the paper's Table 1
// field with 20 random nodes (deployment seed 6) and 2 m cells — the
// configuration the PR-2 hot-path numbers were reported on.
func paperConfig() core.Config {
	fieldRect := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	dep := deploy.Random(fieldRect, 20, randx.New(6))
	return core.Config{
		Field: fieldRect, Nodes: dep.Positions(), Model: rf.Default(),
		Epsilon: 1, SamplingTimes: 5, Range: 40, CellSize: 2,
	}
}

func paperSampler(cfg core.Config) *sampling.Sampler {
	return &sampling.Sampler{Model: cfg.Model, Nodes: cfg.Nodes, Range: cfg.Range, Epsilon: cfg.Epsilon}
}

func setupVectorDiff(sc Scenario) (*instance, error) {
	cfg := paperConfig()
	s := paperSampler(cfg)
	rng := randx.New(sc.Seed)
	a := s.Sample(geom.Pt(40, 60), cfg.SamplingTimes, rng.Split("a")).Vector()
	b := s.Sample(geom.Pt(42, 58), cfg.SamplingTimes, rng.Split("b")).Vector()
	return &instance{op: func(tb *testing.B) {
		tb.ReportAllocs()
		for i := 0; i < tb.N; i++ {
			sink = vector.Diff(a, b)
		}
	}}, nil
}

func setupVectorSimilarity(sc Scenario) (*instance, error) {
	cfg := paperConfig()
	s := paperSampler(cfg)
	rng := randx.New(sc.Seed)
	v := s.Sample(geom.Pt(40, 60), cfg.SamplingTimes, rng.Split("a")).Vector()
	sig := field.Signature(mustClassifier(cfg), geom.Pt(41, 59))
	var acc float64
	return &instance{op: func(tb *testing.B) {
		tb.ReportAllocs()
		for i := 0; i < tb.N; i++ {
			acc += vector.Similarity(v, sig)
		}
		sink = acc
	}}, nil
}

func mustClassifier(cfg core.Config) *field.RatioClassifier {
	rc, err := field.NewRatioClassifier(cfg.Nodes, cfg.UncertaintyC())
	if err != nil {
		panic(err)
	}
	return rc
}

func setupSignaturePass(sc Scenario) (*instance, error) {
	fieldRect := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	dep := deploy.Grid(fieldRect, 20)
	rc, err := field.NewRatioClassifier(dep.Positions(), rf.Default().UncertaintyC(1))
	if err != nil {
		return nil, err
	}
	workers := runtime.NumCPU()
	return &instance{op: func(tb *testing.B) {
		tb.ReportAllocs()
		for i := 0; i < tb.N; i++ {
			div, err := field.DivideWorkers(fieldRect, rc, 2, workers)
			if err != nil {
				tb.Fatal(err)
			}
			sink = div
		}
	}}, nil
}

// setupFieldLoad prices the disk-spill warm start: the paper config at
// 1 m cells (7015 faces), divided and saved once, loaded per op.
func setupFieldLoad(sc Scenario) (*instance, error) {
	cfg := paperConfig()
	div, err := field.DivideWorkers(cfg.Field, mustClassifier(cfg), 1, runtime.NumCPU())
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := div.Save(&buf); err != nil {
		return nil, err
	}
	data := buf.Bytes()
	return &instance{op: func(tb *testing.B) {
		tb.ReportAllocs()
		for i := 0; i < tb.N; i++ {
			d, err := field.Load(bytes.NewReader(data))
			if err != nil {
				tb.Fatal(err)
			}
			sink = d
		}
	}}, nil
}

func setupHeuristicMatch(sc Scenario) (*instance, error) {
	cfg := paperConfig()
	rc := mustClassifier(cfg)
	div, err := field.Divide(cfg.Field, rc, cfg.CellSize)
	if err != nil {
		return nil, err
	}
	s := paperSampler(cfg)
	m := &match.Heuristic{Div: div}
	// The alloc_test probe spread: cold starts, warm starts, frontier
	// growth — so the number is not one lucky vector.
	rng := randx.New(sc.Seed)
	type probe struct {
		v    vector.Vector
		prev *field.Face
	}
	probes := make([]probe, 16)
	for i := range probes {
		p := geom.Pt(rng.Uniform(5, 95), rng.Uniform(5, 95))
		probes[i].v = s.Sample(p, cfg.SamplingTimes, rng.SplitN("probe", i)).Vector()
		if i%3 != 0 {
			probes[i].prev = div.FaceAt(p)
		}
	}
	for _, pr := range probes { // warm the matcher scratch
		m.Match(pr.v, pr.prev)
	}
	var n int
	return &instance{op: func(tb *testing.B) {
		tb.ReportAllocs()
		for i := 0; i < tb.N; i++ {
			pr := probes[n%len(probes)]
			sink = m.Match(pr.v, pr.prev)
			n++
		}
	}}, nil
}

// setupHeuristicMatchBatch64 prices the SoA batch matcher: one
// MatchBatch pass over 64 lanes built exactly like the match/heuristic
// probes (same division, same sampler, cold + warm starts), so
// per-op-time/64 against match/heuristic's per-op time reads off the
// data-layout speedup DESIGN.md §14 claims (>4× per vector). Results
// are bitwise-identical to 64 serial Heuristic matches by the batch
// kernel's differential contract.
func setupHeuristicMatchBatch64(sc Scenario) (*instance, error) {
	cfg := paperConfig()
	rc := mustClassifier(cfg)
	div, err := field.Divide(cfg.Field, rc, cfg.CellSize)
	if err != nil {
		return nil, err
	}
	if div.SoA() == nil {
		return nil, fmt.Errorf("perfbench: paper division carries no SoA signature store")
	}
	s := paperSampler(cfg)
	rng := randx.New(sc.Seed)
	const lanes = 64
	vs := make([]vector.Vector, lanes)
	prevs := make([]*field.Face, lanes)
	for i := range vs {
		p := geom.Pt(rng.Uniform(5, 95), rng.Uniform(5, 95))
		vs[i] = s.Sample(p, cfg.SamplingTimes, rng.SplitN("probe", i)).Vector()
		if i%3 != 0 {
			prevs[i] = div.FaceAt(p)
		}
	}
	m := &match.Batch{Div: div}
	out := m.MatchBatch(nil, vs, prevs) // warm scratch + result capacity
	return &instance{op: func(tb *testing.B) {
		tb.ReportAllocs()
		for i := 0; i < tb.N; i++ {
			out = m.MatchBatch(out[:0], vs, prevs)
		}
		sink = out
	}}, nil
}

func setupLocalize(sc Scenario) (*instance, error) {
	tr, err := core.New(paperConfig())
	if err != nil {
		return nil, err
	}
	rng := randx.New(sc.Seed)
	var n int
	return &instance{op: func(tb *testing.B) {
		tb.ReportAllocs()
		for i := 0; i < tb.N; i++ {
			sink = tr.Localize(geom.Pt(40, 60), rng.SplitN("loc", n))
			n++
		}
	}}, nil
}

// setupLocalizeDefended is setupLocalize with the Byzantine defense
// armed — same fixture, same seed, so comparing medians against
// core/localize reads off the defense's honest-path overhead (the
// DESIGN.md §15 contract: under 15%). The scenario is honest (no fault
// script), so the priced work is the steady-state bookkeeping every
// defended round pays: the plausibility scan over the group, the
// inversion-evidence pass over the matched signature, and trust decay —
// never the suspect-path reweighting.
func setupLocalizeDefended(sc Scenario) (*instance, error) {
	cfg := paperConfig()
	cfg.Defense = &byz.Config{Enabled: true}
	tr, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	rng := randx.New(sc.Seed)
	var n int
	return &instance{op: func(tb *testing.B) {
		tb.ReportAllocs()
		for i := 0; i < tb.N; i++ {
			sink = tr.Localize(geom.Pt(40, 60), rng.SplitN("loc", n))
			n++
		}
	}}, nil
}

// setupTraceOverhead is setupLocalize with a flight recorder installed:
// the scenario prices the enabled tracing path (round span + sampling
// span + match span + attrs into the lock-free ring) so the §12
// overhead contract stays measured. Compare medians against
// core/localize — same seed, same fixture — to read the overhead.
func setupTraceOverhead(sc Scenario) (*instance, error) {
	cfg := paperConfig()
	cfg.Tracer = obs.NewRecorder(obs.DefaultRecorderCap)
	tr, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	rng := randx.New(sc.Seed)
	var n int
	return &instance{op: func(tb *testing.B) {
		tb.ReportAllocs()
		for i := 0; i < tb.N; i++ {
			sink = tr.Localize(geom.Pt(40, 60), rng.SplitN("loc", n))
			n++
		}
	}}, nil
}

func setupLocalizeBatch(sc Scenario) (*instance, error) {
	mt, err := core.NewMulti(paperConfig())
	if err != nil {
		return nil, err
	}
	rng := randx.New(sc.Seed)
	workers := runtime.NumCPU()
	const reqs, targets = 16, 4
	var round int
	return &instance{op: func(tb *testing.B) {
		tb.ReportAllocs()
		batch := make([]core.LocalizeRequest, reqs)
		for i := 0; i < tb.N; i++ {
			rr := rng.SplitN("round", round)
			for j := range batch {
				batch[j] = core.LocalizeRequest{
					ID:  fmt.Sprintf("t%d", j%targets),
					Pos: geom.Pt(20+float64(j)*4, 70-float64(j)*3),
					Rng: rr.SplitN("req", j),
				}
			}
			if _, err := mt.LocalizeBatch(batch, workers); err != nil {
				tb.Fatal(err)
			}
			round++
		}
	}}, nil
}

func setupTrackParallel(sc Scenario) (*instance, error) {
	tr, err := core.New(paperConfig())
	if err != nil {
		return nil, err
	}
	rng := randx.New(sc.Seed)
	const nTraces, nPoints = 4, 16
	traces := make([][]geom.Point, nTraces)
	for t := range traces {
		tt := rng.SplitN("trace", t)
		traces[t] = make([]geom.Point, nPoints)
		for i := range traces[t] {
			traces[t][i] = geom.Pt(tt.Uniform(5, 95), tt.Uniform(5, 95))
		}
	}
	workers := runtime.NumCPU()
	return &instance{op: func(tb *testing.B) {
		tb.ReportAllocs()
		for i := 0; i < tb.N; i++ {
			out, err := tr.TrackParallel(traces, nil, randx.New(sc.Seed), workers)
			if err != nil {
				tb.Fatal(err)
			}
			sink = out
		}
	}}, nil
}

func setupTrackFaulted(sc Scenario) (*instance, error) {
	script, err := experiments.FaultToleranceScript(0.2, 5)
	if err != nil {
		return nil, err
	}
	cfg := paperConfig()
	cfg.FaultScript = script
	cfg.FaultSeed = sc.Seed
	cfg.StarFractionLimit = 0.4
	cfg.RetryBackoff = 1
	tr, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	rng := randx.New(sc.Seed)
	const nPoints = 32
	trace := make([]geom.Point, nPoints)
	for i := range trace {
		trace[i] = geom.Pt(rng.Uniform(5, 95), rng.Uniform(5, 95))
	}
	return &instance{op: func(tb *testing.B) {
		tb.ReportAllocs()
		for i := 0; i < tb.N; i++ {
			tr.Reset()
			sink = tr.Track(trace, nil, randx.New(sc.Seed))
		}
	}}, nil
}

// setupServe stands up the alloc_test serving fixture (9 grid nodes on
// a 60×60 m field, 3 m cells) and measures the in-process round-trip:
// admission, sequence assignment, substream derivation, the batcher and
// result fan-out — no HTTP. maxBatch 0 keeps the serving default (16);
// 1 disables coalescing. concurrent fans GOMAXPROCS clients over 4
// targets so batches actually coalesce.
func setupServe(sc Scenario, maxBatch int, concurrent bool) (*instance, error) {
	srv := serve.New(serve.Config{MaxBatch: maxBatch})
	sess, err := srv.CreateSession(serve.SessionConfig{
		Seed:      sc.Seed,
		Field:     &serve.RectWire{Max: serve.PointWire{X: 60, Y: 60}},
		GridNodes: 9,
		CellSize:  3,
	})
	if err != nil {
		return nil, err
	}
	rng := randx.New(sc.Seed)
	points := make([]geom.Point, 16)
	for i := range points {
		points[i] = geom.Pt(rng.Uniform(5, 55), rng.Uniform(5, 55))
	}
	lat := newLatencyRecorder()
	ctx := context.Background()
	var op func(b *testing.B)
	if concurrent {
		var client atomic.Uint64
		op = func(tb *testing.B) {
			tb.ReportAllocs()
			tb.RunParallel(func(pb *testing.PB) {
				target := fmt.Sprintf("c%d", client.Add(1)%4)
				var n int
				for pb.Next() {
					start := time.Now()
					if _, err := sess.Localize(ctx, target, points[n%len(points)]); err != nil {
						tb.Error(err)
						return
					}
					lat.observe(time.Since(start))
					n++
				}
			})
		}
	} else {
		var n int
		op = func(tb *testing.B) {
			tb.ReportAllocs()
			for i := 0; i < tb.N; i++ {
				start := time.Now()
				if _, err := sess.Localize(ctx, "bench", points[n%len(points)]); err != nil {
					tb.Fatal(err)
				}
				lat.observe(time.Since(start))
				n++
			}
		}
	}
	return &instance{
		op:      op,
		lat:     lat,
		cleanup: func() { srv.CloseSession(sess.ID()) },
	}, nil
}

// setupClusterRoundtrip prices the sharded serving path end to end:
// the alloc_test serving fixture behind real HTTP, fronted by a
// 2-backend fttt-router, one serial client localizing through the
// proxy. Against serve/roundtrip (same fixture, in-process, no HTTP)
// the median reads off what the cluster hop costs: JSON framing, two
// loopback TCP transits, and the router's rendezvous lookup + reverse
// proxy. Regressions here with serve/roundtrip flat mean the router
// path itself got slower.
func setupClusterRoundtrip(sc Scenario) (*instance, error) {
	var members []cluster.Backend
	var cleanups []func()
	cleanupAll := func() {
		for i := len(cleanups) - 1; i >= 0; i-- {
			cleanups[i]()
		}
	}
	for i := 1; i <= 2; i++ {
		srv := serve.New(serve.Config{})
		ts := httptest.NewServer(srv)
		cleanups = append(cleanups, ts.Close)
		members = append(members, cluster.Backend{Name: fmt.Sprintf("b%d", i), URL: ts.URL})
	}
	rt, err := cluster.New(cluster.Config{Backends: members})
	if err != nil {
		cleanupAll()
		return nil, err
	}
	cleanups = append(cleanups, rt.Close)
	rts := httptest.NewServer(rt)
	cleanups = append(cleanups, rts.Close)
	client := rts.Client()

	scfg, err := json.Marshal(serve.SessionConfig{
		Seed:      sc.Seed,
		Field:     &serve.RectWire{Max: serve.PointWire{X: 60, Y: 60}},
		GridNodes: 9,
		CellSize:  3,
	})
	if err != nil {
		cleanupAll()
		return nil, err
	}
	resp, err := client.Post(rts.URL+"/v1/sessions", "application/json", bytes.NewReader(scfg))
	if err != nil {
		cleanupAll()
		return nil, err
	}
	var sw struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sw)
	resp.Body.Close()
	if err != nil {
		cleanupAll()
		return nil, err
	}

	rng := randx.New(sc.Seed)
	bodies := make([][]byte, 16)
	for i := range bodies {
		b, err := json.Marshal(serve.LocalizeWire{
			Target: "bench",
			X:      rng.Uniform(5, 55),
			Y:      rng.Uniform(5, 55),
		})
		if err != nil {
			cleanupAll()
			return nil, err
		}
		bodies[i] = b
	}
	url := rts.URL + "/v1/sessions/" + sw.ID + "/localize"
	lat := newLatencyRecorder()
	var n int
	op := func(tb *testing.B) {
		tb.ReportAllocs()
		for i := 0; i < tb.N; i++ {
			start := time.Now()
			resp, err := client.Post(url, "application/json", bytes.NewReader(bodies[n%len(bodies)]))
			if err != nil {
				tb.Fatal(err)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				tb.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				tb.Fatalf("localize through router: status %d", resp.StatusCode)
			}
			lat.observe(time.Since(start))
			n++
		}
	}
	return &instance{op: op, lat: lat, cleanup: cleanupAll}, nil
}

// setupColdSession measures what a new session costs on a busy server:
// the alloc_test deployment's division is already resident in the field
// cache (warmed outside the timed region), so each op is a full
// CreateSession + CloseSession where the preprocessing is a cache hit —
// matcher/sampler construction, session bring-up and teardown, but no
// re-division. Regressions here mean either the cache stopped hitting
// (the dominant term, a full Sec. 4.3 divide, comes back) or session
// bring-up grew a new cost.
func setupColdSession(sc Scenario) (*instance, error) {
	srv := serve.New(serve.Config{})
	scfg := serve.SessionConfig{
		Seed:      sc.Seed,
		Field:     &serve.RectWire{Max: serve.PointWire{X: 60, Y: 60}},
		GridNodes: 9,
		CellSize:  3,
	}
	warm, err := srv.CreateSession(scfg)
	if err != nil {
		return nil, err
	}
	srv.CloseSession(warm.ID())
	lat := newLatencyRecorder()
	op := func(tb *testing.B) {
		tb.ReportAllocs()
		for i := 0; i < tb.N; i++ {
			start := time.Now()
			s, err := srv.CreateSession(scfg)
			if err != nil {
				tb.Fatal(err)
			}
			srv.CloseSession(s.ID())
			lat.observe(time.Since(start))
		}
	}
	return &instance{op: op, lat: lat}, nil
}

// replayBody is a rewindable request body, so one *http.Request can be
// served every op without the harness allocating its own body.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// setupServeIngest prices the report-ingestion route as the
// ingest-shared benchmark drives it, minus the network: routing, body
// read, wire decode, group validation, the batcher round-trip and the
// JSON response, on 16 reports collected with sampling.Sampler (k=5,
// 10% loss) along one target's random positions.
func setupServeIngest(sc Scenario) (*instance, error) {
	wsc := serve.SessionConfig{Seed: sc.Seed, GridNodes: 36, CellSize: 2}
	cfg, err := wsc.CoreConfig()
	if err != nil {
		return nil, err
	}
	smp := &sampling.Sampler{Model: cfg.Model, Nodes: cfg.Nodes, Range: cfg.Range, ReportLoss: 0.1, Epsilon: cfg.Epsilon}
	rng := randx.New(sc.Seed)
	bodies := make([][]byte, 16)
	for i := range bodies {
		g := smp.Sample(geom.Pt(rng.Uniform(5, 95), rng.Uniform(5, 95)), cfg.SamplingTimes, rng.SplitN("g", i))
		if bodies[i], err = json.Marshal(serve.ReportWire{Target: "bench", RSS: g.RSS, Reported: g.Reported}); err != nil {
			return nil, err
		}
	}
	srv := serve.New(serve.Config{})
	sess, err := srv.CreateSession(wsc)
	if err != nil {
		return nil, err
	}
	rb := &replayBody{}
	req := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+sess.ID()+"/reports", nil)
	req.Body = rb
	lat := newLatencyRecorder()
	var n int
	op := func(tb *testing.B) {
		tb.ReportAllocs()
		for i := 0; i < tb.N; i++ {
			body := bodies[n%len(bodies)]
			start := time.Now()
			rb.Reset(body)
			req.ContentLength = int64(len(body))
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				tb.Fatalf("reports: status %d: %s", rec.Code, rec.Body)
			}
			lat.observe(time.Since(start))
			n++
		}
	}
	return &instance{op: op, lat: lat, cleanup: func() { srv.CloseSession(sess.ID()) }}, nil
}
