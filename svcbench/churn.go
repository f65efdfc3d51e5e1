package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"fttt/internal/cluster"
	"fttt/internal/core"
	"fttt/internal/field"
	"fttt/internal/fieldcache"
	"fttt/internal/geom"
	"fttt/internal/obs"
	"fttt/internal/randx"
	"fttt/internal/serve"
)

const (
	churnBackends = 2
	churnDeploys  = 4
	// churnSlots is the number of live sessions; slot s runs on
	// deployment s mod churnDeploys.
	churnSlots = 32
	// churnLocalizes is how many localizes a session serves before it is
	// deleted and replaced by a fresh create.
	churnLocalizes = 32
	churnTargets   = 2
	// churnCell is the division cell edge. 2 m keeps each of the cluster's
	// dozen resident divisions at a few MB, so that garbage collection of
	// a large heap does not dominate the tail.
	churnCell = 2.0
	// churnRate is the mean Poisson arrival rate over all slots, about
	// half the closed-loop capacity of this workload on the machine the
	// benchmark was sized on (README.md).
	churnRate = 1100.0
	// churnFaults is every session's fault script: a tenth of the nodes
	// crash at start and every node's calibration drifts.
	churnFaults = "crash at=0 frac=0.1; drift sigma=0.05"
)

type opKind int

const (
	opLocalize opKind = iota
	// opRecycle deletes the slot's session and creates its successor.
	opRecycle
)

// churnOp is one scheduled arrival of a slot.
type churnOp struct {
	due  time.Duration // from the start of the timed phase; negative = warm-up
	kind opKind
	inc  int // incarnation the op belongs to (for opRecycle: the one it ends)
	req  int // index into the incarnation's requests (opLocalize)
}

// churnReq is one localize of an incarnation.
type churnReq struct {
	target string
	seq    uint64
	in     input
}

// incarnation is one session's life in a slot.
type incarnation struct {
	slot, deploy int
	cfg          serve.SessionConfig
	cfgBody      []byte
	reqs         []churnReq
}

// churnWorkload is the cluster-churn schedule.
type churnWorkload struct {
	nodes [][]serve.PointWire // per deployment
	incs  []incarnation
	slots [][]churnOp // per slot, in due order
	// first[s] is slot s's first incarnation.
	first []int
}

func (w *churnWorkload) digest() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%v", w.nodes)
	for _, inc := range w.incs {
		b.Write(inc.cfgBody)
		for _, r := range inc.reqs {
			b.Write(r.in.body)
		}
	}
	for _, ops := range w.slots {
		fmt.Fprintf(&b, "%v", ops)
	}
	return hashHex(b.Bytes())
}

// churnInputs generates the schedule for a timed phase of the given
// length (plus the warm-up before it).
func churnInputs(seed uint64, seconds float64) (*churnWorkload, error) {
	rng := randx.New(seed).Split("cluster-churn")
	w := &churnWorkload{}
	for d := 0; d < churnDeploys; d++ {
		w.nodes = append(w.nodes, randomNodes("cluster-churn", d))
	}
	end := time.Duration(seconds * float64(time.Second))
	for s := 0; s < churnSlots; s++ {
		sr := rng.SplitN("slot", s)
		arrivals := sr.Split("arrivals")
		w.first = append(w.first, len(w.incs))
		var ops []churnOp
		t := -warmup
		for gen := 0; t < end; gen++ {
			inc, err := newIncarnation(w, s, sr.SplitN("gen", gen))
			if err != nil {
				return nil, err
			}
			idx := len(w.incs)
			w.incs = append(w.incs, inc)
			for i := 0; i <= churnLocalizes && t < end; i++ {
				t += time.Duration(arrivals.Exponential(churnRate/churnSlots) * float64(time.Second))
				if t >= end {
					break
				}
				op := churnOp{due: t, kind: opLocalize, inc: idx, req: i}
				if i == churnLocalizes {
					op.kind = opRecycle
				}
				ops = append(ops, op)
			}
		}
		w.slots = append(w.slots, ops)
	}
	return w, nil
}

func newIncarnation(w *churnWorkload, slot int, rng *randx.Stream) (incarnation, error) {
	d := slot % churnDeploys
	inc := incarnation{slot: slot, deploy: d, cfg: serve.SessionConfig{
		Seed:              rng.Split("session").Seed(),
		Nodes:             w.nodes[d],
		CellSize:          churnCell,
		StarFractionLimit: 0.5,
		RetryBackoff:      1,
		Faults:            churnFaults,
		FaultSeed:         rng.Split("faults").Seed(),
		Defense:           &serve.DefenseWire{},
	}}
	var err error
	if inc.cfgBody, err = json.Marshal(inc.cfg); err != nil {
		return inc, err
	}
	traces := make([][]geom.Point, churnTargets)
	for t := range traces {
		traces[t] = waypointTrace(rng.SplitN("target", t), churnLocalizes/churnTargets)
	}
	for i := 0; i < churnLocalizes; i++ {
		target := fmt.Sprintf("t%d", i%churnTargets)
		pos := traces[i%churnTargets][i/churnTargets]
		body, err := json.Marshal(serve.LocalizeWire{Target: target, X: pos.X, Y: pos.Y})
		if err != nil {
			return inc, err
		}
		inc.reqs = append(inc.reqs, churnReq{target: target, seq: uint64(i / churnTargets), in: input{pos: pos, body: body}})
	}
	return inc, nil
}

// spec returns the division spec of deployment d.
func (w *churnWorkload) spec(d int) (field.Spec, error) {
	for _, inc := range w.incs {
		if inc.deploy == d {
			cc, err := inc.cfg.CoreConfig()
			return cc.DivisionSpec(), err
		}
	}
	return field.Spec{}, fmt.Errorf("no session on deployment %d", d)
}

// churnBackend is one fttt-serve member of the in-process cluster.
type churnBackend struct {
	name string
	fc   *fieldcache.Cache
	srv  *serve.Server
	ln   *listener
}

// churnEnv is the set-up cluster: backends sharing one spill directory,
// a router in front, and each slot's first session created through it.
type churnEnv struct {
	dir      string
	divs     []*field.Division // per deployment: the cold build set-up spilled
	backends []*churnBackend
	router   *cluster.Router
	rln      *listener
	ids      []string // live session per slot
}

func (w *churnWorkload) setup(c *http.Client, workdir string) (*churnEnv, error) {
	dir, err := os.MkdirTemp(workdir, "spill-")
	if err != nil {
		return nil, err
	}
	env := &churnEnv{dir: dir}
	if err := env.start(w, c); err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

func (env *churnEnv) start(w *churnWorkload, c *http.Client) error {
	// Cold divisions, spilled to the shared directory the way a first
	// backend would.
	pre, err := fieldcache.New(fieldcache.Config{Dir: env.dir})
	if err != nil {
		return err
	}
	specs := make([]field.Spec, churnDeploys)
	for d := range specs {
		if specs[d], err = w.spec(d); err != nil {
			return err
		}
		div, release, err := pre.Acquire(specs[d])
		if err != nil {
			return err
		}
		release()
		env.divs = append(env.divs, div)
	}
	members := make([]cluster.Backend, 0, churnBackends)
	for b := 1; b <= churnBackends; b++ {
		reg := obs.NewRegistry()
		fc, err := fieldcache.New(fieldcache.Config{Dir: env.dir, Obs: reg})
		if err != nil {
			return err
		}
		// Every backend loads each deployment from the spill directory
		// once, so that creates in the timed phase are warm.
		for _, spec := range specs {
			_, release, err := fc.Acquire(spec)
			if err != nil {
				return err
			}
			release()
		}
		be := &churnBackend{name: fmt.Sprintf("b%d", b), fc: fc, srv: serve.New(serve.Config{Obs: reg, FieldCache: fc})}
		if be.ln, err = listen(be.srv); err != nil {
			return err
		}
		env.backends = append(env.backends, be)
		members = append(members, cluster.Backend{Name: be.name, URL: be.ln.url})
	}
	if env.router, err = cluster.New(cluster.Config{Backends: members}); err != nil {
		return err
	}
	if env.rln, err = listen(env.router); err != nil {
		return err
	}
	for s := 0; s < churnSlots; s++ {
		id, err := createSession(c, env.rln.url, w.incs[w.first[s]].cfg)
		if err != nil {
			return err
		}
		env.ids = append(env.ids, id)
	}
	return nil
}

func (env *churnEnv) close() {
	if env.rln != nil {
		env.rln.close()
	}
	if env.router != nil {
		env.router.Close()
	}
	for _, be := range env.backends {
		be.ln.close()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		be.srv.Drain(ctx) //nolint:errcheck // canceled on purpose
	}
	os.RemoveAll(env.dir) //nolint:errcheck // scratch directory
}

// backendURLs lists every backend's base URL.
func (env *churnEnv) backendURLs() []string {
	var out []string
	for _, be := range env.backends {
		out = append(out, be.ln.url)
	}
	return out
}

// opResult is what one scheduled op saw.
type opResult struct {
	late   time.Duration // send time − due time
	lat    time.Duration // completion − due time
	create time.Duration // opRecycle: the create's own round trip
	body   bodyRef
	err    string
	done   bool // the op was sent
}

// slotRun is one slot's open-loop record.
type slotRun struct {
	ar  *arena
	res []opResult // one per op, in schedule order
}

// churnLoad summarises one open-loop phase.
type churnLoad struct {
	runs []*slotRun
	cpu  []time.Duration // cpuClock marks
	heap float64
	sent int // HTTP requests sent through the router
}

func (l *churnLoad) free() {
	for _, r := range l.runs {
		r.ar.free()
	}
}

// drive plays the schedule up to cutoff: each slot's ops are sent at
// their due time, or as soon as the slot's previous op is answered when
// that is later.
func (w *churnWorkload) drive(c *http.Client, env *churnEnv, cutoff time.Duration) (*churnLoad, error) {
	load := &churnLoad{runs: make([]*slotRun, churnSlots)}
	for s := range load.runs {
		ar, err := newArena()
		if err != nil {
			load.free()
			return nil, err
		}
		load.runs[s] = &slotRun{ar: ar, res: make([]opResult, len(w.slots[s]))}
	}
	start := time.Now().Add(warmup)
	sent := make([]int, churnSlots)
	var wg sync.WaitGroup
	for s := 0; s < churnSlots; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			r := load.runs[s]
			id := env.ids[s]
			for k, op := range w.slots[s] {
				if op.due >= cutoff {
					break
				}
				due := start.Add(op.due)
				time.Sleep(time.Until(due))
				t := time.Now()
				res := &r.res[k]
				res.late = t.Sub(due)
				inc := &w.incs[op.inc]
				switch op.kind {
				case opLocalize:
					sent[s]++
					st, body, err := call(c, http.MethodPost, env.rln.url+"/v1/sessions/"+id+"/localize", inc.reqs[op.req].in.body)
					if err == nil && st != http.StatusOK {
						err = fmt.Errorf("status %d: %s", st, bytes.TrimSpace(body))
					}
					if err == nil {
						res.body, err = r.ar.put(body)
					}
					if err != nil {
						res.err = fmt.Sprintf("slot %d op %d localize: %v", s, k, err)
					}
				case opRecycle:
					sent[s] += 2
					st, _, err := call(c, http.MethodDelete, env.rln.url+"/v1/sessions/"+id, nil)
					if err == nil && st != http.StatusOK {
						err = fmt.Errorf("delete: status %d", st)
					}
					if err == nil {
						ct := time.Now()
						id, err = createSession(c, env.rln.url, w.incs[op.inc+1].cfg)
						res.create = time.Since(ct)
					}
					if err != nil {
						res.err = fmt.Sprintf("slot %d op %d recycle: %v", s, k, err)
					}
				}
				res.lat = time.Since(due)
				res.done = true
				if res.err != "" {
					// The slot's later ops depend on this one.
					break
				}
			}
		}(s)
	}
	marks := cpuClock(start, cutoff)
	time.Sleep(time.Until(start))
	stopHeap := heapWatch()
	wg.Wait()
	load.heap = stopHeap()
	load.cpu = marks()
	for _, n := range sent {
		load.sent += n
	}
	return load, nil
}

func runClusterChurn(o opts) (*report, error) {
	gen := func(seed uint64) (*churnWorkload, error) { return churnInputs(seed, o.seconds) }
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
	env, setup, err := setupTimed(func() (*churnEnv, error) { return w.setup(c, o.workdir) })
	if err != nil {
		return nil, err
	}
	defer env.close()
	if o.trace {
		return rep, w.traced(o, c, env, rep)
	}
	rep.add("setup_s", "s", setup, setupReps)
	ph, err := w.endToEnd(c, env, time.Duration(o.seconds*float64(time.Second)), rep)
	if err != nil {
		return nil, err
	}
	ph.load.free()
	addLoadMetrics(rep, o.seconds, ph.done, ph.load.cpu, ph.load.heap, ph.lat, ph.errs)
	rep.addExtra("create_p50_ms", "ms", median(ph.creates), len(ph.creates))
	return rep, nil
}

// scrapeAll scrapes the router and every backend.
func (env *churnEnv) scrapeAll(c *http.Client) ([]map[string]float64, error) {
	var out []map[string]float64
	for _, u := range append([]string{env.rln.url}, env.backendURLs()...) {
		m, err := scrape(c, u)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// churnPhase is one played schedule with what was measured on it.
type churnPhase struct {
	load *churnLoad
	errs []float64 // tracking errors of every answered localize
	// d are the /metrics deltas: the router's, then each backend's.
	d []metricDelta
	// done holds the completion offset (s) of each of the timed phase's
	// answered HTTP requests; lat are its localize latencies (ms), creates
	// and late its create round trips and generator lateness (ms).
	done, lat, creates, late []float64
}

// endToEnd plays the schedule up to cutoff, checks every body and the
// cluster's own counters, and returns what it measured.
func (w *churnWorkload) endToEnd(c *http.Client, env *churnEnv, cutoff time.Duration, rep *report) (*churnPhase, error) {
	before, err := env.scrapeAll(c)
	if err != nil {
		return nil, err
	}
	load, err := w.drive(c, env, cutoff)
	if err != nil {
		return nil, err
	}
	after, err := env.scrapeAll(c)
	if err != nil {
		load.free()
		return nil, err
	}
	ph := &churnPhase{load: load}
	localizes := 0
	for s, r := range load.runs {
		for k, res := range r.res {
			op := w.slots[s][k]
			if !res.done {
				break // an earlier op of the slot failed, or the cutoff
			}
			rep.attempted++
			if op.kind == opRecycle {
				rep.attempted++ // delete + create
			}
			if res.err != "" {
				rep.failed++
				rep.problem("%s", res.err)
				break
			}
			if op.kind == opLocalize {
				localizes++
			}
			if op.due < 0 {
				continue
			}
			ph.late = append(ph.late, ms(res.late))
			end := (op.due + res.lat).Seconds()
			ph.done = append(ph.done, end)
			if op.kind == opRecycle {
				ph.done = append(ph.done, end)
				ph.creates = append(ph.creates, ms(res.create))
			} else {
				ph.lat = append(ph.lat, ms(res.lat))
			}
		}
	}
	ph.errs = w.verify(env, load, rep)
	for i := range after {
		ph.d = append(ph.d, metricDelta{before[i], after[i]})
	}
	if got := sumPrefix(after[0], "fttt_router_requests_total") - sumPrefix(before[0], "fttt_router_requests_total"); got != float64(load.sent) {
		rep.problem("router counted %v requests, the generator sent %d", got, load.sent)
	}
	var batched float64
	for i, bd := range ph.d[1:] {
		batched += bd.of("fttt_serve_batch_size_sum")
		if got := bd.of("fttt_fieldcache_builds_total"); got != 0 {
			rep.problem("backend %d built %v divisions during the run", i+1, got)
		}
	}
	if batched != float64(localizes) {
		rep.problem("backends batched %v requests, %d localizes were answered", batched, localizes)
	}
	return ph, nil
}

// verify checks every answered localize against a serial reference per
// incarnation and returns the tracking errors of every scheduled
// localize (the schedule is fixed by the seed, so every run completes
// the same set).
func (w *churnWorkload) verify(env *churnEnv, load *churnLoad, rep *report) []float64 {
	// bodies[inc][req] are the answered bodies of each incarnation.
	type answered struct {
		slot int
		ref  bodyRef
	}
	bodies := make([][]answered, len(w.incs))
	for s, r := range load.runs {
		for k, res := range r.res {
			op := w.slots[s][k]
			if res.err != "" || !res.done {
				break
			}
			if op.kind == opLocalize {
				bodies[op.inc] = append(bodies[op.inc], answered{s, res.body})
			}
		}
	}
	errs := make([][]float64, len(w.incs))
	problems := make([]string, len(w.incs))
	mismatches := make([]int, len(w.incs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < clientConns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				inc := &w.incs[i]
				err := w.reference(env, inc, len(bodies[i]), func(j int, want []byte, est core.Estimate) {
					got := load.runs[bodies[i][j].slot].ar.get(bodies[i][j].ref)
					if !bytes.Equal(got, want) {
						if mismatches[i] == 0 {
							problems[i] = fmt.Sprintf("slot %d session %d request %d differs from the serial reference:\n  got  %s\n  want %s", inc.slot, i, j, got, want)
						}
						mismatches[i]++
					}
					errs[i] = append(errs[i], est.Pos.Dist(inc.reqs[j].in.pos))
				})
				if err != nil {
					problems[i] = fmt.Sprintf("session %d reference: %v", i, err)
				}
			}
		}()
	}
	for i := range w.incs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	var all []float64
	for i := range w.incs {
		if problems[i] != "" {
			rep.problem("%s", problems[i])
		}
		rep.failed += mismatches[i]
		all = append(all, errs[i]...)
	}
	return all
}

// reference replays the first n localizes of inc serially over the
// division set-up built.
func (w *churnWorkload) reference(env *churnEnv, inc *incarnation, n int, check func(j int, want []byte, est core.Estimate)) error {
	cc, err := inc.cfg.CoreConfig()
	if err != nil {
		return err
	}
	div := env.divs[inc.deploy]
	cc.Divider = func(field.Spec) (*field.Division, error) { return div, nil }
	mt, err := core.NewMulti(cc)
	if err != nil {
		return err
	}
	return referenceBodies(mt, inc.cfg.Seed, n, func(j int) (string, uint64, *input) {
		r := &inc.reqs[j]
		return r.target, r.seq, &r.in
	}, check)
}
