package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"fttt/internal/core"
	"fttt/internal/fieldcache"
	"fttt/internal/geom"
	"fttt/internal/randx"
	"fttt/internal/sampling"
	"fttt/internal/serve"
)

// traced is a closed-loop workload's traced run. An untraced timed
// phase gives the end-to-end baseline. Then fresh sessions take the same
// requests twice: an HTTP pass like the untraced run, through a
// handlerClock in front of the same server, recording each round trip,
// its handler time and its body, and an in-process pass in which the
// same clients replay those requests, each answered three more times, by:
//   - a twin session on an in-process serve.Server, called directly,
//   - a replica MultiTracker: one single-request LocalizeBatch,
//   - the per-layer replay (derive, Sample, Vector, Match, batch lane).
//
// Keeping the passes apart gives the round trips the untraced run's CPU
// contention. http = round trip − handler time, both of the same
// request; the handler's time is split by the in-process pass: batch
// wait = session call − LocalizeBatch − derive, finish = LocalizeBatch −
// sample − vector − batch lane. Whatever of the handler time the
// in-process parts do not account for stays in bench.unattributed_frac.
func (w *closedWorkload) traced(o opts, c *http.Client, env *closedEnv, rep *report) error {
	phase := time.Duration(o.seconds * tracedShare * float64(time.Second))
	res, _, d, err := w.endToEnd(c, env, phase, rep)
	if err != nil {
		return err
	}
	lat, _ := lats(res.runs)
	untracedP50 := quantile(lat, 0.5) * 1000
	res.free()

	clock := newHandlerClock(env.srv)
	tln, err := listen(clock)
	if err != nil {
		return err
	}
	defer tln.close()
	srv2 := serve.New(serve.Config{FieldCache: env.fc})
	defer func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		srv2.Drain(ctx) //nolint:errcheck // canceled on purpose
	}()
	httpIDs := make([]string, len(w.sessions))
	twins := make([]*serve.Session, len(w.sessions))
	for i, sc := range w.sessions {
		if httpIDs[i], err = createSession(c, tln.url, sc); err != nil {
			return err
		}
		if twins[i], err = srv2.CreateSession(sc); err != nil {
			return err
		}
	}
	pass, err := w.drive(c, tln.url, httpIDs, phase, true)
	if err != nil {
		return err
	}
	defer pass.free()
	leds := make([]ledger, len(w.clients))
	reps := make([]*report, len(w.clients))
	errs := make([]error, len(w.clients))
	var wg sync.WaitGroup
	for i := range w.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := &w.clients[i]
			leds[i], reps[i] = ledger{}, &report{}
			errs[i] = w.replayClient(env.fc, p, pass.runs[i], twins[p.session], clock, i, leds[i], reps[i])
		}(i)
	}
	wg.Wait()
	led := ledger{}
	for i := range w.clients {
		if errs[i] != nil {
			return errs[i]
		}
		led.merge(leds[i])
		rep.attempted += reps[i].attempted
		rep.failed += reps[i].failed
		rep.problems = append(rep.problems, reps[i].problems...)
	}

	blocking := []string{"serve.http_us", "serve.decode_us", "serve.encode_us", "serve.batch_wait_us",
		"randx.derive_us", "sampling.sample_us", "vector.build_us", "match.batch_lane_us", "core.finish_us"}
	addLedger(rep, led, blocking, untracedP50, untracedP50, led.med("bench.rt_us"))
	tailNote(rep, led, "serve.http_us", "handler.to_header_us", "handler.after_header_us")
	var allocs float64
	if w.route == "localize" {
		cc, err := w.sessions[0].CoreConfig()
		if err != nil {
			return err
		}
		smp := &sampling.Sampler{Model: cc.Model, Nodes: cc.Nodes, Range: cc.Range, ReportLoss: cc.ReportLoss, Epsilon: cc.Epsilon}
		pts := w.clients[0].inputs[0]
		allocs = sampleAllocs(smp, cc.SamplingTimes, []geom.Point{pts[0].pos, pts[1].pos, pts[2].pos}, randx.New(o.seed))
	}
	rep.add("sampling.alloc_bytes_per_op", "B", allocs, 0)
	addServeCounters(rep, d)
	creates, err := timeCreates(srv2, w.sessions)
	if err != nil {
		return err
	}
	rep.add("serve.create_us", "us", median(creates), len(creates))
	specs, err := distinctSpecs(w.sessions)
	if err != nil {
		return err
	}
	if err := setupLayers(rep, o.workdir, specs, env.fc); err != nil {
		return err
	}
	m, err := scrape(c, env.ln.url)
	if err != nil {
		return err
	}
	addHitFrac(rep, m["fttt_fieldcache_hits_total"], m["fttt_fieldcache_misses_total"])
	rep.add("cluster.place_ns", "ns", 0, 0)
	rep.add("cluster.proxy_errors_total", "count", 0, 0)
	rep.add("loadgen.late_p99_ms", "ms", 0, 0)
	return nil
}

// replayClient is the in-process pass of client i over the requests its
// HTTP pass sent.
func (w *closedWorkload) replayClient(fc *fieldcache.Cache, p *closedPlan, run *clientRun,
	twin *serve.Session, clock *handlerClock, i int, led ledger, rep *report) error {
	if run.fail != "" {
		rep.attempted++
		rep.failed++
		rep.problem("traced HTTP pass: %s", run.fail)
	}
	sc := w.sessions[p.session]
	mt, release, err := referenceTracker(fc, sc)
	if err != nil {
		return err
	}
	defer release()
	cc := twin.Config()
	layers := make([]*layerReplica, len(p.targets))
	for ti := range layers {
		layers[ti] = newLayerReplica(cc, mt.Division())
	}
	root := randx.New(sc.Seed)
	ctx := context.Background()
	fidelity := 0
	reqs := make([]core.LocalizeRequest, 1)
	for j, ref := range run.refs {
		ti, seq, in := p.at(j)
		target := p.targets[ti]
		rep.attempted++

		t := time.Now()
		var g *sampling.Group
		if in.group == nil {
			var lw serve.LocalizeWire
			err = json.Unmarshal(in.body, &lw)
		} else {
			var rw serve.ReportWire
			if err = json.Unmarshal(in.body, &rw); err == nil {
				g, err = rw.Group(len(cc.Nodes), cc.Epsilon)
			}
		}
		decode := time.Since(t)
		if err != nil {
			return fmt.Errorf("decode: %w", err)
		}
		var rng *randx.Stream
		var derive time.Duration
		if g == nil {
			t = time.Now()
			rng = serve.RequestStream(root, target, seq)
			derive = time.Since(t)
		}

		t = time.Now()
		if g == nil {
			_, err = twin.Localize(ctx, target, in.pos)
		} else {
			_, err = twin.Ingest(ctx, target, g)
		}
		session := time.Since(t)
		if err != nil {
			return fmt.Errorf("in-process session: %w", err)
		}

		reqs[0] = core.LocalizeRequest{ID: target, Group: g, Pos: in.pos, Rng: rng}
		t = time.Now()
		ests, err := mt.LocalizeBatch(reqs, 1)
		lb := time.Since(t)
		if err != nil {
			return err
		}

		t = time.Now()
		want, err := json.Marshal(serve.WireEstimate(target, seq, ests[0]))
		encode := time.Since(t)
		if err != nil {
			return err
		}

		if g == nil {
			rng = serve.RequestStream(root, target, seq)
		}
		rec := led
		if j < run.timed {
			rec = ledger{} // warm-up: per-target trackers are still being created
		}
		r, lane, lt := layers[ti].replay(rec, in.pos, rng, g)
		what := fmt.Sprintf("traced request %d (%s seq %d)", j, target, seq)
		checkBody(rep, &fidelity, what, run.ar.get(ref), want, r)
		if lane.Face != r.Face || lane.Estimate != r.Estimate {
			fidelity++
			rep.problem("%s: batch lane face %d, serial matcher face %d", what, lane.Face.ID, r.Face.ID)
		}
		if j < run.timed {
			continue
		}
		rt := time.Duration(run.lat[j] * float64(time.Millisecond))
		handler, err := clock.of(opTag(i, j))
		if err != nil {
			return err
		}
		led.add("bench.rt_us", us(rt))
		led.add("serve.handler_us", us(handler.total))
		led.add("serve.http_us", us(rt-handler.total))
		led.add("handler.to_header_us", us(handler.header))
		led.add("handler.after_header_us", us(handler.total-handler.header))
		led.add("serve.decode_us", us(decode))
		led.add("serve.encode_us", us(encode))
		led.add("randx.derive_us", us(derive))
		led.add("core.localize_us", us(lb))
		led.add("serve.batch_wait_us", us(session-lb-derive))
		led.add("core.finish_us", us(lb-lt.sample-lt.vector-lt.lane))
		led.add("core.retry_frac", b2f(ests[0].Retried))
		led.add("core.degraded_frac", b2f(ests[0].Degraded))
		led.add("core.extrapolated_frac", b2f(ests[0].Extrapolated))
	}
	return nil
}

// addServeCounters reports the batcher's counters over one phase.
func addServeCounters(rep *report, ds ...metricDelta) {
	var sum, count, shed, timeouts float64
	for _, d := range ds {
		sum += d.of("fttt_serve_batch_size_sum")
		count += d.of("fttt_serve_batch_size_count")
		shed += d.of("fttt_serve_shed_total")
		timeouts += d.of("fttt_serve_timeouts_total")
	}
	mean := 0.0
	if count > 0 {
		mean = sum / count
	}
	rep.add("serve.batch_size_mean", "count", mean, int(count))
	rep.add("serve.shed_total", "count", shed, 0)
	rep.add("serve.timeouts_total", "count", timeouts, 0)
}

func addHitFrac(rep *report, hits, misses float64) {
	frac := 0.0
	if hits+misses > 0 {
		frac = hits / (hits + misses)
	}
	rep.add("fieldcache.hit_frac", "frac", frac, int(hits+misses))
}

// timeCreates times warm in-process Server.CreateSession calls, closing
// each session again.
func timeCreates(srv *serve.Server, scs []serve.SessionConfig) ([]float64, error) {
	var out []float64
	runtime.GC() // start from the same heap state every run
	for i := 0; i < warmCreates; i++ {
		t := time.Now()
		s, err := srv.CreateSession(scs[i%len(scs)])
		if err != nil {
			return nil, err
		}
		out = append(out, us(time.Since(t)))
		srv.CloseSession(s.ID())
	}
	return out, nil
}
