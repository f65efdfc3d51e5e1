package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"fttt/internal/core"
	"fttt/internal/field"
	"fttt/internal/fieldcache"
	"fttt/internal/geom"
	"fttt/internal/obs"
	"fttt/internal/randx"
	"fttt/internal/sampling"
	"fttt/internal/serve"
)

const (
	// setupReps is how many times a run sets the workload up; setup_s is
	// the median.
	setupReps = 9
	// warmup precedes every timed phase, so that connections, caches and
	// lazily created per-target trackers exist before timing starts.
	warmup = 500 * time.Millisecond
	// errorPrefix is how many requests of each target every run must
	// complete; mean_error_m is taken over exactly these, so it repeats
	// exactly for one seed.
	errorPrefix = 1200
	// warmCreates is how many in-process creates a traced run times.
	warmCreates = 200
)

// input is one pre-generated request.
type input struct {
	pos  geom.Point // the target's true position
	body []byte     // the request body sent
	// group is what the server decodes from body on the report path; nil
	// on the localize path.
	group *sampling.Group
}

// closedPlan is one client's request sequence: round-robin over its
// targets, the n-th request of a target taking input n of that target's
// cycle.
type closedPlan struct {
	session int // index into closedWorkload.sessions
	targets []string
	inputs  [][]input
}

func (p *closedPlan) at(j int) (ti int, seq uint64, in *input) {
	ti = j % len(p.targets)
	n := j / len(p.targets)
	return ti, uint64(n), &p.inputs[ti][n%len(p.inputs[ti])]
}

// closedWorkload is a closed-loop workload: one goroutine per client,
// each sending its next request when the previous one is answered.
type closedWorkload struct {
	route    string // "localize" or "reports"
	sessions []serve.SessionConfig
	clients  []closedPlan
}

// digest hashes every generated input, for the seed check.
func (w *closedWorkload) digest() string {
	var b bytes.Buffer
	b.WriteString(w.route)
	for _, sc := range w.sessions {
		j, _ := json.Marshal(sc)
		b.Write(j)
	}
	for _, p := range w.clients {
		fmt.Fprintf(&b, "|%d|%v", p.session, p.targets)
		for _, ins := range p.inputs {
			for _, in := range ins {
				b.Write(in.body)
			}
		}
	}
	return hashHex(b.Bytes())
}

// closedEnv is one set-up closed-loop deployment: a serve.Server behind
// a loopback listener with every workload session created over HTTP.
type closedEnv struct {
	fc  *fieldcache.Cache
	srv *serve.Server
	ln  *listener
	ids []string // session IDs, one per closedWorkload.sessions entry
}

func (w *closedWorkload) setup(c *http.Client) (*closedEnv, error) {
	reg := obs.NewRegistry()
	fc, err := fieldcache.New(fieldcache.Config{Obs: reg})
	if err != nil {
		return nil, err
	}
	env := &closedEnv{fc: fc, srv: serve.New(serve.Config{Obs: reg, FieldCache: fc})}
	if env.ln, err = listen(env.srv); err != nil {
		return nil, err
	}
	for _, sc := range w.sessions {
		id, err := createSession(c, env.ln.url, sc)
		if err != nil {
			env.close()
			return nil, err
		}
		env.ids = append(env.ids, id)
	}
	return env, nil
}

func (e *closedEnv) close() {
	e.ln.close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()         // nothing is in flight once the listener is closed
	e.srv.Drain(ctx) //nolint:errcheck // canceled on purpose
}

// createSession creates one session over HTTP and returns its ID.
func createSession(c *http.Client, base string, sc serve.SessionConfig) (string, error) {
	body, err := json.Marshal(sc)
	if err != nil {
		return "", err
	}
	st, resp, err := call(c, http.MethodPost, base+"/v1/sessions", body)
	if err != nil {
		return "", fmt.Errorf("create session: %w", err)
	}
	if st != http.StatusCreated {
		return "", fmt.Errorf("create session: status %d: %s", st, bytes.TrimSpace(resp))
	}
	var sw struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(resp, &sw); err != nil {
		return "", fmt.Errorf("create session: %w", err)
	}
	return sw.ID, nil
}

// setupTimed sets the workload up setupReps times, keeps the last
// environment and returns the median set-up time.
func setupTimed[E interface{ close() }](mk func() (E, error)) (E, float64, error) {
	var env E
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		// Every set-up starts from a collected heap, so that the garbage
		// of the previous one is not collected inside this one's timing.
		runtime.GC()
		start := time.Now()
		e, err := mk()
		if err != nil {
			return env, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < setupReps-1 {
			e.close()
		} else {
			env = e
		}
	}
	return env, median(times), nil
}

// clientRun is what one closed-loop client saw.
type clientRun struct {
	ar   *arena
	refs []bodyRef // every answered request's body, in issue order
	lat  []float64 // ms, every answered request, in issue order
	at   []float64 // s, each request's issue time from the timed phase's start
	// timed is the index of the first request issued in the timed phase.
	timed int
	fail  string // first failure; it ends the client
}

// loadResult summarises one closed-loop timed phase.
type loadResult struct {
	runs []*clientRun
	cpu  []time.Duration // cpuClock marks
	heap float64         // peak live heap, bytes
}

func (l *loadResult) free() {
	for _, r := range l.runs {
		r.ar.free()
	}
}

// drive runs the warm-up and then the timed phase of length dur against
// the sessions ids of the server at base. tagged names each request
// "client/j" in the opHeader, for a handlerClock in front of the server.
func (w *closedWorkload) drive(c *http.Client, base string, ids []string, dur time.Duration, tagged bool) (*loadResult, error) {
	res := &loadResult{runs: make([]*clientRun, len(w.clients))}
	for i := range res.runs {
		ar, err := newArena()
		if err != nil {
			res.free()
			return nil, err
		}
		res.runs[i] = &clientRun{ar: ar}
	}
	t0 := time.Now()
	start := t0.Add(warmup)
	end := start.Add(dur)
	var wg sync.WaitGroup
	for i := range w.clients {
		wg.Add(1)
		go func(i int, p *closedPlan, r *clientRun) {
			defer wg.Done()
			url := base + "/v1/sessions/" + ids[p.session] + "/" + w.route
			for j := 0; ; j++ {
				t := time.Now()
				if !t.Before(end) {
					break
				}
				_, _, in := p.at(j)
				op := ""
				if tagged {
					op = opTag(i, j)
				}
				st, body, err := callOp(c, http.MethodPost, url, in.body, op)
				d := time.Since(t)
				if err == nil && st != http.StatusOK {
					err = fmt.Errorf("status %d: %s", st, bytes.TrimSpace(body))
				}
				if err == nil {
					var ref bodyRef
					if ref, err = r.ar.put(body); err == nil {
						r.refs = append(r.refs, ref)
					}
				}
				if err != nil {
					// Later sequence numbers would no longer line up with
					// the reference, so a failure ends this client.
					r.fail = fmt.Sprintf("request %d: %v", j, err)
					break
				}
				r.lat = append(r.lat, ms(d))
				r.at = append(r.at, t.Sub(start).Seconds())
				if t.Before(start) {
					r.timed = len(r.lat)
				}
			}
		}(i, &w.clients[i], res.runs[i])
	}
	marks := cpuClock(start, dur)
	time.Sleep(time.Until(start))
	stopHeap := heapWatch()
	wg.Wait()
	res.heap = stopHeap()
	res.cpu = marks()
	return res, nil
}

// referenceBodies replays n requests serially through mt — one
// single-request LocalizeBatch each, the way internal/serve/loadtest
// builds its reference — and calls check with each request's expected
// body and estimate. at names request j; seed is the session seed.
func referenceBodies(mt *core.MultiTracker, seed uint64, n int,
	at func(j int) (target string, seq uint64, in *input),
	check func(j int, want []byte, est core.Estimate)) error {
	root := randx.New(seed)
	reqs := make([]core.LocalizeRequest, 1)
	for j := 0; j < n; j++ {
		target, seq, in := at(j)
		reqs[0] = core.LocalizeRequest{ID: target, Group: in.group}
		if in.group == nil {
			reqs[0].Pos, reqs[0].Rng = in.pos, serve.RequestStream(root, target, seq)
		}
		ests, err := mt.LocalizeBatch(reqs, 1)
		if err != nil {
			return err
		}
		want, err := json.Marshal(serve.WireEstimate(target, seq, ests[0]))
		if err != nil {
			return err
		}
		check(j, want, ests[0])
	}
	return nil
}

// referenceTracker builds a serial MultiTracker for sc over the division
// fc already holds (a cache hit, not a rebuild).
func referenceTracker(fc *fieldcache.Cache, sc serve.SessionConfig) (*core.MultiTracker, func(), error) {
	cc, err := sc.CoreConfig()
	if err != nil {
		return nil, nil, err
	}
	release := func() {}
	cc.Divider = func(spec field.Spec) (*field.Division, error) {
		div, rel, err := fc.Acquire(spec)
		if err == nil {
			release = rel
		}
		return div, err
	}
	mt, err := core.NewMulti(cc)
	if err != nil {
		release()
		return nil, nil, err
	}
	return mt, release, nil
}

// verify checks every answered body against the reference and returns
// the tracking errors of the first errorPrefix requests of each target.
func (w *closedWorkload) verify(env *closedEnv, res *loadResult, rep *report) []float64 {
	errs := make([][]float64, len(w.clients))
	problems := make([]string, len(w.clients))
	mismatches := make([]int, len(w.clients))
	var wg sync.WaitGroup
	for i := range w.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, r := &w.clients[i], res.runs[i]
			sc := w.sessions[p.session]
			mt, release, err := referenceTracker(env.fc, sc)
			if err != nil {
				problems[i] = fmt.Sprintf("client %d reference: %v", i, err)
				return
			}
			defer release()
			at := func(j int) (string, uint64, *input) {
				ti, seq, in := p.at(j)
				return p.targets[ti], seq, in
			}
			err = referenceBodies(mt, sc.Seed, len(r.refs), at, func(j int, want []byte, est core.Estimate) {
				if got := r.ar.get(r.refs[j]); !bytes.Equal(got, want) {
					if mismatches[i] == 0 {
						problems[i] = fmt.Sprintf("client %d request %d differs from the serial reference:\n  got  %s\n  want %s", i, j, got, want)
					}
					mismatches[i]++
				}
				if _, seq, in := at(j); seq < errorPrefix {
					errs[i] = append(errs[i], est.Pos.Dist(in.pos))
				}
			})
			if err != nil {
				problems[i] = fmt.Sprintf("client %d reference: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	var all []float64
	for i := range w.clients {
		if problems[i] != "" {
			rep.problem("%s", problems[i])
		}
		rep.failed += mismatches[i]
		all = append(all, errs[i]...)
	}
	return all
}
