package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"fttt/internal/cluster"
	"fttt/internal/core"
	"fttt/internal/field"
	"fttt/internal/fieldcache"
	"fttt/internal/geom"
	"fttt/internal/randx"
	"fttt/internal/serve"
)

// tracedOp is one op of the traced HTTP pass.
type tracedOp struct {
	slot, k    int           // the op is w.slots[slot][k]
	rtR, rtD   time.Duration // round trip through the router, and direct to the owner
	owner      string        // the backend the direct request went to
	handler    handlerTime   // the direct request's time in the owner's handler
	refR, refD bodyRef       // the two bodies
}

// tracedSlot is one slot's sessions in the traced passes.
type tracedSlot struct {
	routerID string
	owner    string // name of the owning backend
	directID string // the twin session created directly on the owner
}

// tracedPass is one set of HTTP-pass clients with what they recorded.
type tracedPass struct {
	ops    [][]tracedOp // per client
	places []float64    // cluster.Place costs (ns)
	ar     []*arena     // per client: the bodies
}

func (p *tracedPass) free() {
	for _, a := range p.ar {
		if a != nil {
			a.free()
		}
	}
}

// rtD is the pass's direct round trips (us).
func (p *tracedPass) rtD() []float64 {
	var out []float64
	for _, ops := range p.ops {
		for _, op := range ops {
			if op.rtD > 0 {
				out = append(out, us(op.rtD))
			}
		}
	}
	return out
}

// traced is cluster-churn's traced run: the open-loop schedule untraced
// for a first phase, then HTTP passes over fresh sessions, in which 2
// clients drive the slots' ops back to back, each localize sent through
// the router and again, to a twin session, directly to the owning
// backend. A plain pass sends the direct requests to the backends' own
// listeners; the traced pass sends them through a handlerClock in front
// of the same backend, so that each direct request's handler time is
// measured on its own execution. In the in-process pass the same clients
// replay the traced pass's ops on a third twin in an in-process
// serve.Server, on a replica core.Tracker per target, and layer by layer
// (sample with the fault scheduler, vector, defense, matcher). Per
// localize: hop = router round trip − direct round trip, http = direct
// round trip − handler time, batch wait = session call −
// Tracker.Localize − derive, finish = Tracker.Localize − sample − vector
// − byz − match. The layer replay's defense and fault clock do not see
// the tracker's degradation retries, so on this workload it times the
// layers without reproducing the served estimate.
func (w *churnWorkload) traced(o opts, c *http.Client, env *churnEnv, rep *report) error {
	phase := time.Duration(o.seconds * tracedShare * float64(time.Second))
	ph, err := w.endToEnd(c, env, phase, rep)
	if err != nil {
		return err
	}
	ph.load.free()
	d := ph.d
	untracedP50 := quantile(ph.lat, 0.5) * 1000

	names := make([]string, len(env.backends))
	plain := make(map[string]string)
	clocked := make(map[string]string)
	clocks := make(map[string]*handlerClock)
	for i, be := range env.backends {
		names[i] = be.name
		plain[be.name] = be.ln.url
		clocks[be.name] = newHandlerClock(be.srv)
		ln, err := listen(clocks[be.name])
		if err != nil {
			return err
		}
		defer ln.close()
		clocked[be.name] = ln.url
	}
	base, err := w.httpPasses(c, env, names, plain, false, phase)
	if err != nil {
		return err
	}
	base.free()
	pass, err := w.httpPasses(c, env, names, clocked, true, phase)
	if err != nil {
		return err
	}
	defer pass.free()
	for i, ops := range pass.ops {
		for j := range ops {
			if ops[j].rtD == 0 {
				continue
			}
			if ops[j].handler, err = clocks[ops[j].owner].of(opTag(i, j)); err != nil {
				return err
			}
		}
	}

	fc3, err := fieldcache.New(fieldcache.Config{Dir: env.dir})
	if err != nil {
		return err
	}
	for dpl := 0; dpl < churnDeploys; dpl++ {
		spec, err := w.spec(dpl)
		if err != nil {
			return err
		}
		_, release, err := fc3.Acquire(spec)
		if err != nil {
			return err
		}
		release()
	}
	srv3 := serve.New(serve.Config{FieldCache: fc3})
	defer func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		srv3.Drain(ctx) //nolint:errcheck // canceled on purpose
	}()
	leds := make([]ledger, clientConns)
	reps := make([]*report, clientConns)
	creates := make([][]float64, clientConns)
	errs := make([]error, clientConns)
	var wg sync.WaitGroup
	for i := 0; i < clientConns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			leds[i], reps[i] = ledger{}, &report{}
			creates[i], errs[i] = w.inProcessPass(env, srv3, pass.ops[i], pass.ar[i], leds[i], reps[i])
		}(i)
	}
	wg.Wait()
	led := ledger{}
	var createUs []float64
	for i := 0; i < clientConns; i++ {
		if errs[i] != nil {
			return errs[i]
		}
		led.merge(leds[i])
		createUs = append(createUs, creates[i]...)
		rep.attempted += reps[i].attempted
		rep.failed += reps[i].failed
		rep.problems = append(rep.problems, reps[i].problems...)
	}

	blocking := []string{"cluster.hop_us", "serve.http_us", "serve.decode_us", "serve.encode_us", "serve.batch_wait_us",
		"randx.derive_us", "sampling.sample_us", "vector.build_us", "byz.defense_us", "match.match_us", "core.finish_us"}
	addLedger(rep, led, blocking, untracedP50, median(base.rtD()), median(pass.rtD()))
	tailNote(rep, led, "cluster.hop_us", "serve.http_us", "handler.to_header_us", "handler.after_header_us")
	cc, err := w.incs[0].cfg.CoreConfig()
	if err != nil {
		return err
	}
	lr := newLayerReplica(cc, env.divs[0])
	pts := []input{w.incs[0].reqs[0].in, w.incs[0].reqs[1].in, w.incs[0].reqs[2].in}
	rep.add("sampling.alloc_bytes_per_op", "B", sampleAllocs(lr.smp, cc.SamplingTimes, []geom.Point{pts[0].pos, pts[1].pos, pts[2].pos}, randx.New(o.seed)), 0)
	addServeCounters(rep, d[1:]...)
	rep.add("serve.create_us", "us", median(createUs), len(createUs))
	var specs []field.Spec
	for dpl := 0; dpl < churnDeploys; dpl++ {
		spec, err := w.spec(dpl)
		if err != nil {
			return err
		}
		specs = append(specs, spec)
	}
	if err := setupLayers(rep, o.workdir, specs, fc3); err != nil {
		return err
	}
	var hits, misses float64
	for _, bd := range d[1:] {
		hits += bd.of("fttt_fieldcache_hits_total")
		misses += bd.of("fttt_fieldcache_misses_total")
	}
	addHitFrac(rep, hits, misses)
	rep.add("cluster.place_ns", "ns", median(pass.places), len(pass.places))
	rep.add("cluster.proxy_errors_total", "count", d[0].of("fttt_router_proxy_errors_total"), 0)
	rep.add("loadgen.late_p99_ms", "ms", quantile(ph.late, 0.99), len(ph.late))
	return nil
}

// httpPasses runs one HTTP pass of clientConns clients for dur over
// fresh sessions, the direct twins created at urls (backend name → base
// URL). tagged names each direct request "client/j", j the op's index in
// the client's ops. The slots' last sessions are deleted afterwards.
func (w *churnWorkload) httpPasses(c *http.Client, env *churnEnv, names []string, urls map[string]string,
	tagged bool, dur time.Duration) (_ *tracedPass, err error) {
	slots := make([]tracedSlot, churnSlots)
	for s := range slots {
		if err := w.openTraced(c, env, names, urls, &slots[s], w.first[s], nil); err != nil {
			return nil, err
		}
	}
	p := &tracedPass{ops: make([][]tracedOp, clientConns), ar: make([]*arena, clientConns)}
	defer func() {
		if err != nil {
			p.free()
		}
	}()
	for i := range p.ar {
		if p.ar[i], err = newArena(); err != nil {
			return nil, err
		}
	}
	places := make([][]float64, clientConns)
	errs := make([]error, clientConns)
	end := time.Now().Add(dur)
	var wg sync.WaitGroup
	for i := 0; i < clientConns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p.ops[i], places[i], errs[i] = w.httpPass(c, env, names, urls, slots, i, end, p.ar[i], tagged)
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		p.places = append(p.places, places[i]...)
	}
	for _, ts := range slots {
		for _, u := range []string{env.rln.url + "/v1/sessions/" + ts.routerID, urls[ts.owner] + "/v1/sessions/" + ts.directID} {
			if st, _, err := call(c, http.MethodDelete, u, nil); err != nil || st != http.StatusOK {
				return nil, fmt.Errorf("delete %s: status %d, %v", u, st, err)
			}
		}
	}
	return p, nil
}

// openTraced creates incarnation inc's sessions for an HTTP pass: one
// through the router and a twin directly on the backend that owns it,
// at its URL in urls. place, when non-nil, receives the cost of one
// cluster.Place call.
func (w *churnWorkload) openTraced(c *http.Client, env *churnEnv, names []string, urls map[string]string,
	ts *tracedSlot, inc int, place *[]float64) error {
	cfg := w.incs[inc].cfg
	id, err := createSession(c, env.rln.url, cfg)
	if err != nil {
		return err
	}
	const n = 100
	t := time.Now()
	var owner string
	for i := 0; i < n; i++ {
		owner = cluster.Place(id, names)
	}
	if place != nil {
		*place = append(*place, float64(time.Since(t))/n)
	}
	if ts.directID, err = createSession(c, urls[owner], cfg); err != nil {
		return err
	}
	ts.routerID, ts.owner = id, owner
	return nil
}

// httpPass is one client of an HTTP pass: it drives slots client,
// client+clientConns, … round-robin until end.
func (w *churnWorkload) httpPass(c *http.Client, env *churnEnv, names []string, urls map[string]string,
	slots []tracedSlot, client int, end time.Time, ar *arena, tagged bool) ([]tracedOp, []float64, error) {
	var out []tracedOp
	var places []float64
	next := make([]int, churnSlots)
	for round := 0; time.Now().Before(end); round++ {
		s := client + (round%(churnSlots/clientConns))*clientConns
		k := next[s]
		if k >= len(w.slots[s]) {
			break
		}
		next[s]++
		op := w.slots[s][k]
		ts := &slots[s]
		top := tracedOp{slot: s, k: k, owner: ts.owner}
		switch op.kind {
		case opLocalize:
			body := w.incs[op.inc].reqs[op.req].in.body
			tag := ""
			if tagged {
				tag = opTag(client, len(out))
			}
			var err error
			if top.rtR, top.refR, err = timedPost(c, env.rln.url+"/v1/sessions/"+ts.routerID+"/localize", body, "", ar); err != nil {
				return nil, nil, err
			}
			if top.rtD, top.refD, err = timedPost(c, urls[ts.owner]+"/v1/sessions/"+ts.directID+"/localize", body, tag, ar); err != nil {
				return nil, nil, err
			}
		case opRecycle:
			for _, u := range []string{env.rln.url + "/v1/sessions/" + ts.routerID, urls[ts.owner] + "/v1/sessions/" + ts.directID} {
				if st, _, err := call(c, http.MethodDelete, u, nil); err != nil || st != http.StatusOK {
					return nil, nil, fmt.Errorf("delete %s: status %d, %v", u, st, err)
				}
			}
			if err := w.openTraced(c, env, names, urls, ts, op.inc+1, &places); err != nil {
				return nil, nil, err
			}
		}
		out = append(out, top)
	}
	return out, places, nil
}

// timedPost sends one localize, named op unless op is empty, and stores
// its body.
func timedPost(c *http.Client, url string, body []byte, op string, ar *arena) (time.Duration, bodyRef, error) {
	t := time.Now()
	st, resp, err := callOp(c, http.MethodPost, url, body, op)
	d := time.Since(t)
	if err == nil && st != http.StatusOK {
		err = fmt.Errorf("status %d", st)
	}
	if err != nil {
		return d, bodyRef{}, fmt.Errorf("traced localize %s: %w", url, err)
	}
	ref, err := ar.put(resp)
	return d, ref, err
}

// inProcessTwin is one slot's in-process replicas.
type inProcessTwin struct {
	sess   *serve.Session
	root   *randx.Stream
	trs    []*core.Tracker
	layers []*layerReplica
}

// inProcessPass replays one client's HTTP-pass ops in process and
// returns the warm in-process create times.
func (w *churnWorkload) inProcessPass(env *churnEnv, srv *serve.Server, ops []tracedOp, ar *arena, led ledger, rep *report) ([]float64, error) {
	twins := map[int]*inProcessTwin{}
	var creates []float64
	open := func(inc int) (*inProcessTwin, error) {
		in := &w.incs[inc]
		t := time.Now()
		sess, err := srv.CreateSession(in.cfg)
		creates = append(creates, us(time.Since(t)))
		if err != nil {
			return nil, err
		}
		cc := sess.Config()
		tw := &inProcessTwin{sess: sess, root: randx.New(in.cfg.Seed)}
		for t := 0; t < churnTargets; t++ {
			tr, err := core.NewWithDivision(cc, env.divs[in.deploy])
			if err != nil {
				return nil, err
			}
			tw.trs = append(tw.trs, tr)
			tw.layers = append(tw.layers, newLayerReplica(cc, env.divs[in.deploy]))
		}
		return tw, nil
	}
	ctx := context.Background()
	for _, top := range ops {
		op := w.slots[top.slot][top.k]
		tw := twins[top.slot]
		if tw == nil {
			var err error
			if tw, err = open(op.inc); err != nil {
				return nil, err
			}
			twins[top.slot] = tw
		}
		if op.kind == opRecycle {
			srv.CloseSession(tw.sess.ID())
			var err error
			if twins[top.slot], err = open(op.inc + 1); err != nil {
				return nil, err
			}
			continue
		}
		r := &w.incs[op.inc].reqs[op.req]
		ti := op.req % churnTargets
		rep.attempted += 2

		t := time.Now()
		var lw serve.LocalizeWire
		err := json.Unmarshal(r.in.body, &lw)
		decode := time.Since(t)
		if err != nil {
			return nil, err
		}
		t = time.Now()
		rng := serve.RequestStream(tw.root, r.target, r.seq)
		derive := time.Since(t)

		t = time.Now()
		_, err = tw.sess.Localize(ctx, r.target, r.in.pos)
		session := time.Since(t)
		if err != nil {
			return nil, err
		}
		t = time.Now()
		est := tw.trs[ti].Localize(r.in.pos, rng)
		localize := time.Since(t)
		t = time.Now()
		want, err := json.Marshal(serve.WireEstimate(r.target, r.seq, est))
		encode := time.Since(t)
		if err != nil {
			return nil, err
		}
		for _, got := range [][]byte{ar.get(top.refR), ar.get(top.refD)} {
			if string(got) != string(want) {
				rep.failed++
				if rep.failed == 1 {
					rep.problem("traced slot %d op %d differs from the serial reference:\n  got  %s\n  want %s", top.slot, top.k, got, want)
				}
			}
		}
		_, _, lt := tw.layers[ti].replay(led, r.in.pos, serve.RequestStream(tw.root, r.target, r.seq), nil)
		led.add("bench.rt_us", us(top.rtR))
		led.add("cluster.hop_us", us(top.rtR-top.rtD))
		led.add("serve.decode_us", us(decode))
		led.add("serve.encode_us", us(encode))
		led.add("randx.derive_us", us(derive))
		led.add("core.localize_us", us(localize))
		led.add("serve.handler_us", us(top.handler.total))
		led.add("serve.http_us", us(top.rtD-top.handler.total))
		led.add("handler.to_header_us", us(top.handler.header))
		led.add("handler.after_header_us", us(top.handler.total-top.handler.header))
		led.add("serve.batch_wait_us", us(session-localize-derive))
		led.add("core.finish_us", us(localize-lt.sample-lt.vector-lt.byz-lt.match))
		led.add("core.retry_frac", b2f(est.Retried))
		led.add("core.degraded_frac", b2f(est.Degraded))
		led.add("core.extrapolated_frac", b2f(est.Extrapolated))
	}
	return creates, nil
}
