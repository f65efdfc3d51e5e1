package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"fttt/internal/deploy"
	"fttt/internal/geom"
	"fttt/internal/mobility"
	"fttt/internal/randx"
	"fttt/internal/sampling"
	"fttt/internal/serve"
)

const (
	// tracePoints is the length of each target's 1 Hz random-waypoint
	// trace; a target's requests cycle over it.
	tracePoints = 1200
	// ingestGroups is the number of distinct pre-collected groups per
	// ingest-shared target; its requests cycle over them.
	ingestGroups = 300
	// ingestLoss is the report loss of the pre-collected groups.
	ingestLoss = 0.1
)

var paperField = geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))

// layoutSeed draws the random node layouts of track-paper and
// cluster-churn. It is fixed, not taken from --seed: how well a layout
// covers the field moves the per-round cost and the tracking error by
// tens of percent, and a comparison between two commits must measure the
// program, not which layouts its seeds drew. --seed varies everything
// else: trajectories, session and fault seeds, report groups, arrivals.
const layoutSeed = 20120521

// randomNodes draws layout i of a workload: 20 nodes placed uniformly in
// the paper's field.
func randomNodes(workload string, i int) []serve.PointWire {
	pts := deploy.Random(paperField, 20, randx.New(layoutSeed).Split(workload).SplitN("layout", i)).Positions()
	out := make([]serve.PointWire, len(pts))
	for j, p := range pts {
		out[j] = serve.PointWire{X: p.X, Y: p.Y}
	}
	return out
}

func hashHex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// waypointTrace samples a random-waypoint target (1–5 m/s, as in the
// paper's Sec. 7) at 1 Hz for n points.
func waypointTrace(rng *randx.Stream, n int) []geom.Point {
	m := mobility.RandomWaypoint(paperField, 1, 5, float64(n), rng)
	tr := mobility.Sample(m, float64(n-1), 1)
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = tr[i].Pos
	}
	return pts
}

// trackPaperInputs: 2 clients, each owning one session with the paper's
// Table 1 defaults (100×100 m, 20 random nodes, k=5, ε=1 dBm, R=40 m,
// 1 m cells) and 4 random-waypoint targets, localized round-robin.
// Session configs list the nodes explicitly, so the layout stays fixed
// while the session seed varies.
func trackPaperInputs(seed uint64) (*closedWorkload, error) {
	rng := randx.New(seed).Split("track-paper")
	w := &closedWorkload{route: "localize"}
	for c := 0; c < 2; c++ {
		cr := rng.SplitN("client", c)
		w.sessions = append(w.sessions, serve.SessionConfig{Seed: cr.Split("session").Seed(), Nodes: randomNodes("track-paper", c)})
		p := closedPlan{session: c}
		for t := 0; t < 4; t++ {
			target := fmt.Sprintf("t%d", t)
			var ins []input
			for _, pos := range waypointTrace(cr.SplitN("target", t), tracePoints) {
				body, err := json.Marshal(serve.LocalizeWire{Target: target, X: pos.X, Y: pos.Y})
				if err != nil {
					return nil, err
				}
				ins = append(ins, input{pos: pos, body: body})
			}
			p.targets = append(p.targets, target)
			p.inputs = append(p.inputs, ins)
		}
		w.clients = append(w.clients, p)
	}
	return w, nil
}

// ingestSharedInputs: one session on a 36-node grid with 2 m cells, fed
// by 2 clients with 4 targets each. Every group is collected here, from
// the seed, with sampling.Sampler (k=5, 10% report loss); the server
// only decodes and matches it.
func ingestSharedInputs(seed uint64) (*closedWorkload, error) {
	rng := randx.New(seed).Split("ingest-shared")
	sc := serve.SessionConfig{Seed: rng.Split("session").Seed(), GridNodes: 36, CellSize: 2}
	cc, err := sc.CoreConfig()
	if err != nil {
		return nil, err
	}
	smp := &sampling.Sampler{Model: cc.Model, Nodes: cc.Nodes, Range: cc.Range, ReportLoss: ingestLoss, Epsilon: cc.Epsilon}
	w := &closedWorkload{route: "reports", sessions: []serve.SessionConfig{sc}}
	for c := 0; c < 2; c++ {
		p := closedPlan{session: 0}
		for t := 0; t < 4; t++ {
			target := fmt.Sprintf("t%d", 4*c+t)
			tr := rng.Split("target:" + target)
			var ins []input
			for n, pos := range waypointTrace(tr, ingestGroups) {
				g := smp.Sample(pos, cc.SamplingTimes, tr.SplitN("group", n))
				body, err := json.Marshal(serve.ReportWire{Target: target, RSS: g.RSS, Reported: g.Reported})
				if err != nil {
					return nil, err
				}
				// The reference matches what the server decodes, not the
				// sampler's in-memory group.
				var rw serve.ReportWire
				if err := json.Unmarshal(body, &rw); err != nil {
					return nil, err
				}
				dg, err := rw.Group(len(cc.Nodes), cc.Epsilon)
				if err != nil {
					return nil, err
				}
				ins = append(ins, input{pos: pos, body: body, group: dg})
			}
			p.targets = append(p.targets, target)
			p.inputs = append(p.inputs, ins)
		}
		w.clients = append(w.clients, p)
	}
	return w, nil
}

// checkSeeds regenerates the inputs: the same seed must give
// byte-identical inputs and the next seed different ones.
func checkSeeds[W interface{ digest() string }](gen func(uint64) (W, error), seed uint64, have W, rep *report) error {
	again, err := gen(seed)
	if err != nil {
		return err
	}
	other, err := gen(seed + 1)
	if err != nil {
		return err
	}
	d := have.digest()
	if again.digest() != d {
		rep.problem("seed %d regenerated different inputs", seed)
	}
	if other.digest() == d {
		rep.problem("seeds %d and %d generated identical inputs", seed, seed+1)
	}
	return nil
}

func runTrackPaper(o opts) (*report, error)   { return runClosed(o, trackPaperInputs) }
func runIngestShared(o opts) (*report, error) { return runClosed(o, ingestSharedInputs) }

// runClosed runs a closed-loop workload: inputs, seed check, set-up,
// then the end-to-end run or the traced replay.
func runClosed(o opts, gen func(uint64) (*closedWorkload, error)) (*report, error) {
	w, err := gen(o.seed)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if err := checkSeeds(gen, o.seed, w, rep); err != nil {
		return nil, err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	env, setup, err := setupTimed(func() (*closedEnv, error) { return w.setup(c) })
	if err != nil {
		return nil, err
	}
	defer env.close()
	if o.trace {
		return rep, w.traced(o, c, env, rep)
	}
	rep.add("setup_s", "s", setup, setupReps)
	dur := time.Duration(o.seconds * float64(time.Second))
	res, errs, _, err := w.endToEnd(c, env, dur, rep)
	if err != nil {
		return nil, err
	}
	defer res.free()
	targets := 0
	for _, p := range w.clients {
		targets += len(p.targets)
	}
	if len(errs) != errorPrefix*targets {
		rep.problem("mean_error_m needs the first %d requests of each target, %d were answered", errorPrefix, len(errs))
	}
	lat, done := lats(res.runs)
	addLoadMetrics(rep, dur.Seconds(), done, res.cpu, res.heap, lat, errs)
	return rep, nil
}

// endToEnd runs the timed phase, checks every body and the server's own
// counters, and returns the timed phase with its tracking errors and the
// /metrics deltas over it.
func (w *closedWorkload) endToEnd(c *http.Client, env *closedEnv, dur time.Duration, rep *report) (*loadResult, []float64, metricDelta, error) {
	before, err := scrape(c, env.ln.url)
	if err != nil {
		return nil, nil, metricDelta{}, err
	}
	res, err := w.drive(c, env.ln.url, env.ids, dur, false)
	if err != nil {
		return nil, nil, metricDelta{}, err
	}
	after, err := scrape(c, env.ln.url)
	if err != nil {
		res.free()
		return nil, nil, metricDelta{}, err
	}
	answered := 0
	for i, r := range res.runs {
		answered += len(r.refs)
		rep.attempted += len(r.refs)
		if r.fail != "" {
			rep.attempted++
			rep.failed++
			rep.problem("client %d: %s", i, r.fail)
		}
	}
	errs := w.verify(env, res, rep)
	d := metricDelta{before, after}
	if got := d.of("fttt_serve_batch_size_sum"); got != float64(answered) {
		rep.problem("fttt_serve_batch_size sum grew by %v, but %d requests were answered", got, answered)
	}
	if got := d.of("fttt_fieldcache_builds_total"); got != 0 {
		rep.problem("fttt_fieldcache_builds_total grew by %v during the run", got)
	}
	return res, errs, d, nil
}

// metricDelta is a pair of scrapes of one /metrics page.
type metricDelta [2]map[string]float64

func (d metricDelta) of(name string) float64 { return d[1][name] - d[0][name] }

// lats returns the timed phase's latencies and completion offsets.
func lats(runs []*clientRun) (lat, done []float64) {
	for _, r := range runs {
		lat = append(lat, r.lat[r.timed:]...)
		for j := r.timed; j < len(r.lat); j++ {
			done = append(done, r.at[j]+r.lat[j]/1000)
		}
	}
	return lat, done
}

// addLoadMetrics adds the metrics every workload's timed phase reports.
// Throughput and CPU cost are medians over the phase's windows; the
// latency percentiles are taken over every latency-measured request of
// the phase, so that a stall confined to a few windows still moves them.
// done holds every operation's completion offset, lat each
// latency-measured request's latency (ms).
func addLoadMetrics(rep *report, span float64, done []float64, cpu []time.Duration, heap float64, lat, errs []float64) {
	opsPerS, cpuPerOp, ops := windowedRate(done, cpu, span)
	if ops == 0 {
		rep.problem("no operation completed in the timed phase")
	}
	rep.add("ops_per_s", "1/s", opsPerS, ops)
	rep.add("latency_p50_ms", "ms", quantile(lat, 0.5), len(lat))
	rep.add("latency_p99_ms", "ms", quantile(lat, 0.99), len(lat))
	if len(lat) >= 10000 { // at least 10 samples beyond the 99.9th percentile
		rep.addExtra("latency_p999_ms", "ms", quantile(lat, 0.999), len(lat))
	}
	rep.add("cpu_us_per_op", "us", cpuPerOp, ops)
	rep.addExtra("failed_frac", "frac", float64(rep.failed)/float64(rep.attempted), rep.attempted)
	rep.add("mean_error_m", "m", mean(errs), len(errs))
	rep.add("heap_peak_mb", "MB", heap/(1<<20), 0)
}
