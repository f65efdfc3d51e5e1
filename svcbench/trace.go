package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"fttt/internal/byz"
	"fttt/internal/core"
	"fttt/internal/faults"
	"fttt/internal/field"
	"fttt/internal/fieldcache"
	"fttt/internal/geom"
	"fttt/internal/match"
	"fttt/internal/randx"
	"fttt/internal/sampling"
	"fttt/internal/serve"
	"fttt/internal/vector"
)

// tracedShare is the share of --seconds each timed phase of a traced
// run lasts: the untraced phase (the baseline for tracing overhead and
// the attribution residual) and the traced HTTP pass. The in-process
// replay of that pass takes most of the rest.
const tracedShare = 0.2

// ledger collects per-request layer samples by metric name.
type ledger map[string][]float64

func (l ledger) add(name string, v float64) { l[name] = append(l[name], v) }

func (l ledger) merge(o ledger) {
	for k, v := range o {
		l[k] = append(l[k], v...)
	}
}

// med is the median of a series, 0 when the layer never ran.
func (l ledger) med(name string) float64 { return median(l[name]) }

// layerReplica replays one target's localization round layer by layer
// through the public entry points, with the tracker's configuration.
type layerReplica struct {
	k     int
	smp   *sampling.Sampler
	def   *byz.Defense
	heur  *match.Heuristic
	bm    *match.Batch
	prevH *field.Face
	prevB *field.Face
	// one-lane scratch for MatchBatch, allocated outside the timed calls
	vs    []vector.Vector
	prevs []*field.Face
	ws    [][]float64
	lanes []match.Result
}

func newLayerReplica(cc core.Config, div *field.Division) *layerReplica {
	l := &layerReplica{
		k:     cc.SamplingTimes,
		smp:   &sampling.Sampler{Model: cc.Model, Nodes: cc.Nodes, Range: cc.Range, ReportLoss: cc.ReportLoss, Epsilon: cc.Epsilon},
		heur:  &match.Heuristic{Div: div, Incremental: true},
		bm:    &match.Batch{Div: div, Incremental: true},
		vs:    make([]vector.Vector, 1),
		prevs: make([]*field.Face, 1),
		ws:    make([][]float64, 1),
	}
	if cc.FaultScript != nil {
		fs := faults.New(*cc.FaultScript, len(cc.Nodes), cc.FaultSeed)
		fs.SetGeometry(cc.Nodes, cc.Model)
		l.smp.Faults = fs
	}
	if cc.Defense != nil && cc.Defense.Enabled {
		l.def = byz.New(*cc.Defense, len(cc.Nodes), cc.SamplingTimes, nil)
		// The same range gate core.NewWithDivision arms.
		if fast := cc.Model.SigmaFast(); cc.Range > 0 && cc.SamplingTimes >= 2 && fast > 0 {
			l.def.SetRangeGate(cc.Model.MeanRSS(cc.Range)-cc.Model.SigmaX, fast/16)
		}
	}
	return l
}

// layerTimes are one replayed round's layer durations.
type layerTimes struct {
	sample, vector, byz, match, lane time.Duration
}

// replay runs one round: sampling at pos from rng (or the ingested group
// g), the sampling vector, the defense, the serial matcher and the batch
// kernel's lane, each timed on its own. It returns the serial matcher's
// result and the batch lane's.
func (l *layerReplica) replay(led ledger, pos geom.Point, rng *randx.Stream, g *sampling.Group) (match.Result, match.Result, layerTimes) {
	var lt layerTimes
	if g == nil {
		t := time.Now()
		g = l.smp.Sample(pos, l.k, rng)
		lt.sample = time.Since(t)
	}
	led.add("sampling.reported_mean", float64(g.NumReported()))
	t := time.Now()
	v := g.Vector()
	lt.vector = time.Since(t)
	led.add("vector.star_frac", float64(v.CountStars())/float64(v.Dim()))
	var w []float64
	if l.def != nil {
		t = time.Now()
		l.def.ObserveGroup(g)
		w = l.def.Apply(v)
		lt.byz = time.Since(t)
	}
	t = time.Now()
	var r match.Result
	if w == nil {
		r = l.heur.Match(v, l.prevH)
	} else {
		r = l.heur.MatchWeighted(v, l.prevH, w)
	}
	lt.match = time.Since(t)
	if l.def != nil {
		t = time.Now()
		l.def.Observe(r.Face.Signature)
		lt.byz += time.Since(t)
	}
	l.vs[0], l.prevs[0], l.ws[0] = v, l.prevB, w
	t = time.Now()
	l.lanes = l.bm.MatchBatchWeighted(l.lanes[:0], l.vs, l.prevs, l.ws)
	lt.lane = time.Since(t)
	l.prevH, l.prevB = r.Face, l.lanes[0].Face
	led.add("match.visited_mean", float64(r.Visited))
	led.add("match.fellback_frac", b2f(r.FellBack))
	led.add("sampling.sample_us", us(lt.sample))
	led.add("vector.build_us", us(lt.vector))
	led.add("byz.defense_us", us(lt.byz))
	led.add("match.match_us", us(lt.match))
	led.add("match.batch_lane_us", us(lt.lane))
	return r, l.lanes[0], lt
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// sampleAllocs is the mean bytes one Sampler.Sample call allocates,
// measured on this goroutine while nothing else runs.
func sampleAllocs(smp *sampling.Sampler, k int, pts []geom.Point, root *randx.Stream) float64 {
	const n = 200
	streams := make([]*randx.Stream, n)
	for i := range streams {
		streams[i] = root.SplitN("alloc", i)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		smp.Sample(pts[i%len(pts)], k, streams[i])
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / n
}

// setupLayers times the set-up layers: a cold Spec.Divide and a field.Load
// of its spilled file, for each distinct spec, and a warm Cache.Acquire.
func setupLayers(rep *report, workdir string, specs []field.Spec, fc *fieldcache.Cache) error {
	var divide, load, acquire []float64
	dir, err := os.MkdirTemp(workdir, "load-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for i, spec := range specs {
		var div *field.Division
		for r := 0; r < 3; r++ {
			t := time.Now()
			if div, err = spec.Divide(); err != nil {
				return err
			}
			divide = append(divide, ms(time.Since(t)))
		}
		path := filepath.Join(dir, fmt.Sprintf("%d.div", i))
		if err := saveDivision(div, path); err != nil {
			return err
		}
		for r := 0; r < 3; r++ {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			t := time.Now()
			_, err = field.Load(f)
			load = append(load, ms(time.Since(t)))
			f.Close()
			if err != nil {
				return err
			}
		}
		for r := 0; r < 50; r++ {
			t := time.Now()
			_, release, err := fc.Acquire(spec)
			acquire = append(acquire, us(time.Since(t)))
			if err != nil {
				return err
			}
			release()
		}
	}
	rep.add("field.divide_ms", "ms", median(divide), len(divide))
	rep.add("fieldcache.disk_load_ms", "ms", median(load), len(load))
	rep.add("fieldcache.acquire_us", "us", median(acquire), len(acquire))
	return nil
}

func saveDivision(div *field.Division, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := div.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// distinctSpecs returns the division specs of the given sessions, one per
// deployment.
func distinctSpecs(scs []serve.SessionConfig) ([]field.Spec, error) {
	seen := map[string]bool{}
	var out []field.Spec
	for _, sc := range scs {
		cc, err := sc.CoreConfig()
		if err != nil {
			return nil, err
		}
		spec := cc.DivisionSpec()
		if !seen[spec.Key()] {
			seen[spec.Key()] = true
			out = append(out, spec)
		}
	}
	return out, nil
}

// checkBody compares a served body with the reference and with the
// layer replay's face and position.
func checkBody(rep *report, fidelity *int, what string, body, want []byte, r match.Result) {
	body = bytes.TrimSpace(body)
	if !bytes.Equal(body, want) {
		rep.failed++
		if rep.failed == 1 {
			rep.problem("%s differs from the serial reference:\n  got  %s\n  want %s", what, body, want)
		}
	}
	var ew serve.EstimateWire
	if err := json.Unmarshal(body, &ew); err != nil || ew.FaceID != r.Face.ID || ew.X != r.Estimate.X || ew.Y != r.Estimate.Y {
		*fidelity++
		if *fidelity == 1 {
			rep.problem("layer replay of %s gives face %d at (%v, %v), the server answered %s",
				what, r.Face.ID, r.Estimate.X, r.Estimate.Y, body)
		}
	}
}

// ledgerMetrics are the per-layer metrics every traced run reports, in
// print order, with their units. Layers a workload never calls read 0.
var ledgerMetrics = []struct{ name, unit string }{
	{"randx.derive_us", "us"},
	{"sampling.sample_us", "us"},
	{"sampling.reported_mean", "count"},
	{"serve.decode_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.batch_wait_us", "us"},
	{"serve.http_us", "us"},
	{"serve.handler_us", "us"},
	{"vector.build_us", "us"},
	{"vector.star_frac", "frac"},
	{"match.match_us", "us"},
	{"match.batch_lane_us", "us"},
	{"match.visited_mean", "count"},
	{"match.fellback_frac", "frac"},
	{"core.localize_us", "us"},
	{"core.finish_us", "us"},
	{"core.retry_frac", "frac"},
	{"core.degraded_frac", "frac"},
	{"core.extrapolated_frac", "frac"},
	{"byz.defense_us", "us"},
	{"cluster.hop_us", "us"},
}

// addLedger reports the ledger: medians of the per-request times, means
// of the counts and fractions, and the p99s the tail analysis needs.
// e2eP50us is the untraced end-to-end median the attribution residual is
// a share of; plainP50us and tracedP50us are the round-trip medians of
// one pass shape run without and with the tracing instrumentation (the
// handlerClock and the request names).
func addLedger(rep *report, led ledger, blocking []string, e2eP50us, plainP50us, tracedP50us float64) {
	for _, m := range ledgerMetrics {
		v := led.med(m.name)
		switch m.unit {
		case "count", "frac":
			v = mean(led[m.name])
		}
		rep.add(m.name, m.unit, v, len(led[m.name]))
	}
	for _, p := range []struct{ series, name string }{
		{"serve.batch_wait_us", "serve.batch_wait_p99_us"},
		{"serve.http_us", "serve.http_p99_us"},
		{"serve.handler_us", "serve.handler_p99_us"},
		{"bench.rt_us", "bench.rt_p99_us"},
	} {
		rep.add(p.name, "us", quantile(led[p.series], 0.99), len(led[p.series]))
	}
	rep.add("bench.rt_p50_us", "us", led.med("bench.rt_us"), len(led["bench.rt_us"]))
	var attributed float64
	for _, name := range blocking {
		attributed += led.med(name)
	}
	rep.add("bench.unattributed_frac", "frac", (e2eP50us-attributed)/e2eP50us, 0)
	rep.add("bench.trace_overhead_frac", "frac", (tracedP50us-plainP50us)/plainP50us, 0)
	shares := make([]string, 0, len(blocking))
	for _, name := range blocking {
		shares = append(shares, fmt.Sprintf("%s %.0f%%", name, 100*led.med(name)/e2eP50us))
	}
	sort.Strings(shares)
	rep.notes = append(rep.notes, fmt.Sprintf("blocking-path shares of the untraced p50 (%.1f us): %v", e2eP50us, shares))
}

// tailNote splits the traced round trips at or beyond their p99 into
// parts, series recorded together with bench.rt_us (one value per
// request, in the same order) that add up to it, and notes their means:
// where the tail's time goes, each part beside its mean over all requests.
func tailNote(rep *report, led ledger, parts ...string) {
	rt := led["bench.rt_us"]
	cut := quantile(rt, 0.99)
	n := 0
	sums := make([]float64, len(parts))
	var total float64
	for i, v := range rt {
		if v < cut {
			continue
		}
		n++
		total += v
		for k, name := range parts {
			sums[k] += led[name][i]
		}
	}
	if n == 0 {
		return
	}
	line := fmt.Sprintf("round trips >= p99 (n=%d): mean %.0f us =", n, total/float64(n))
	for k, name := range parts {
		line += fmt.Sprintf(" %s %.0f (all: %.0f)", name, sums[k]/float64(n), mean(led[name]))
		if k < len(parts)-1 {
			line += " +"
		}
	}
	rep.notes = append(rep.notes, line)
}
