package serve

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"

	"fttt/internal/core"
	"fttt/internal/geom"
	"fttt/internal/obs"
	"fttt/internal/randx"
	"fttt/internal/sampling"
)

// Sentinel errors of the serving path; the HTTP layer maps them to
// status codes (429/404/409/503/504).
var (
	// ErrOverloaded is returned when the session's bounded admission
	// queue is full — the request was shed, try again later (429).
	ErrOverloaded = errors.New("serve: admission queue full")
	// ErrSessionClosed is returned to requests caught in a session
	// teardown (409).
	ErrSessionClosed = errors.New("serve: session closed")
	// ErrDraining is returned once the server has begun graceful drain:
	// no new work is admitted (503).
	ErrDraining = errors.New("serve: server draining")
	// ErrDeadline is returned when the caller's deadline expired before
	// its estimate was delivered (504).
	ErrDeadline = errors.New("serve: request deadline exceeded")
)

// request is one admitted localize/report call.
type request struct {
	creq core.LocalizeRequest
	seq  uint64
	// canceled (a waiting caller's deadline expired: skip the request)
	// and lead (promoted to run the next batch; the lead message is
	// already in done) are guarded by the session lock.
	canceled, lead bool
	done           chan response // buffered(1): the sender never blocks on it
}

// response answers a request, or (lead) promotes it to run a batch.
type response struct {
	est  core.Estimate
	err  error
	lead bool
}

// Result pairs an estimate with the per-target sequence number the
// session assigned to its request.
type Result struct {
	Seq      uint64
	Estimate core.Estimate
}

// Session is one tracking session: a MultiTracker behind a bounded
// admission queue whose callers run its micro-batches themselves, plus
// the SSE fan-out hub and the latest-estimate table.
type Session struct {
	id  string
	srv *Server
	// wire is the original wire config the session was created from,
	// kept verbatim for state export (migration re-creates the session
	// from it on a successor backend).
	wire SessionConfig
	cfg  core.Config
	mt   *core.MultiTracker
	root *randx.Stream // immutable seed root; Split is concurrency-safe
	rec  *obs.Recorder // flight recorder; nil when tracing is disabled
	// releaseDiv unpins this session's field-cache division entry; nil
	// when the session was built without the cache. Called once from
	// close (the func itself is idempotent).
	releaseDiv func()

	mu     sync.Mutex
	seq    map[string]uint64 // per-target request counter (rng index)
	latest map[string]EstimateWire
	closed bool
	// queue holds admitted, unexecuted requests in admission order. busy
	// marks a caller holding the executor role; it is false only when
	// queue is empty. idle is broadcast when busy clears.
	queue []*request
	busy  bool
	idle  sync.Cond

	inflight atomic.Int64 // admitted, not yet answered
	// live and creqs hold the running batch: scratch of the caller
	// holding the executor role.
	live  []*request
	creqs []core.LocalizeRequest

	subMu   sync.Mutex
	subs    map[int]*subscriber
	nextSub int
}

// subscriber is one SSE stream; events are dropped (and counted) rather
// than ever blocking the serving path.
type subscriber struct {
	ch     chan []byte
	target string // "" = all targets
}

func newSession(id string, srv *Server, wire SessionConfig, cfg core.Config, mt *core.MultiTracker, seed uint64, rec *obs.Recorder, releaseDiv func()) *Session {
	s := &Session{
		id:         id,
		srv:        srv,
		wire:       wire,
		cfg:        cfg,
		mt:         mt,
		root:       randx.New(seed),
		rec:        rec,
		releaseDiv: releaseDiv,
		seq:        make(map[string]uint64),
		latest:     make(map[string]EstimateWire),
		subs:       make(map[int]*subscriber),
	}
	s.idle.L = &s.mu
	return s
}

// ID returns the session identifier.
func (s *Session) ID() string { return s.id }

// Config returns the session's resolved tracker configuration.
func (s *Session) Config() core.Config { return s.cfg }

// Targets returns the session's known target IDs in sorted order.
func (s *Session) Targets() []string { return s.mt.Targets() }

// Latest returns the most recent estimate for target, if any.
func (s *Session) Latest(target string) (EstimateWire, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ew, ok := s.latest[target]
	return ew, ok
}

// Localize admits one simulated-sensing localization for target at the
// true position pos: the request's noise substream is
// RequestStream(root, target, n) for the target's n-th request, the
// request rides a micro-batch (run by this very call when the session
// is idle), and the call blocks until the estimate is delivered or ctx
// expires. Errors: ErrOverloaded, ErrSessionClosed, ErrDraining,
// ErrDeadline.
func (s *Session) Localize(ctx context.Context, target string, pos geom.Point) (Result, error) {
	return s.submit(ctx, target, func(n uint64) core.LocalizeRequest {
		return core.LocalizeRequest{
			ID:  target,
			Pos: pos,
			Rng: RequestStream(s.root, target, n),
		}
	})
}

// Ingest admits one externally collected grouping sampling for target —
// the report-ingestion path. It consumes a per-target sequence number
// like Localize (the batching order contract is shared) but no noise
// substream.
func (s *Session) Ingest(ctx context.Context, target string, g *sampling.Group) (Result, error) {
	return s.submit(ctx, target, func(uint64) core.LocalizeRequest {
		return core.LocalizeRequest{ID: target, Group: g}
	})
}

// submit runs the admission pipeline: load-shed on the bounded queue,
// assign the per-target sequence number and enqueue in admission order,
// then run the batch (session idle) or wait for the answer, a promotion
// to run the next batch, or the deadline.
func (s *Session) submit(ctx context.Context, target string, mk func(n uint64) core.LocalizeRequest) (Result, error) {
	if s.srv.draining.Load() {
		return Result{}, ErrDraining
	}
	// Bounded admission: CAS the in-flight count against the queue
	// limit so an overload sheds deterministically at exactly the
	// configured depth.
	limit := int64(s.srv.cfg.QueueLimit)
	for {
		n := s.inflight.Load()
		if n >= limit {
			s.srv.met.shed.Inc()
			return Result{}, ErrOverloaded
		}
		if s.inflight.CompareAndSwap(n, n+1) {
			break
		}
	}
	s.srv.wg.Add(1)
	defer s.srv.wg.Done()

	r := &request{done: make(chan response, 1)}
	// Sequence assignment and enqueue happen under one lock so that
	// same-target requests enter the queue in sequence order — the
	// per-target FIFO the determinism contract rests on.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.inflight.Add(-1)
		return Result{}, ErrSessionClosed
	}
	r.seq = s.seq[target]
	s.seq[target] = r.seq + 1
	r.creq = mk(r.seq)
	// The request's root span: the whole causal tree of this call — the
	// batch's round span parents under it, the batch span links to it.
	// Inert (nil recorder) this is a pointer check.
	sp := s.rec.Start(obs.SpanRef{}, "serve", "request")
	if sp.Active() {
		sp.AttrStr("target", target)
		sp.Attr("seq", float64(r.seq))
		r.creq.Span = sp.Ref()
	}
	s.queue = append(s.queue, r)
	lead := !s.busy
	s.busy = true
	s.mu.Unlock()
	s.srv.met.queueDepth.Add(1)

	var resp response
	timedOut := false
	if !lead {
		select {
		case resp = <-r.done:
			lead = resp.lead
		case <-ctx.Done():
			s.mu.Lock()
			lead, r.canceled = r.lead, !r.lead
			s.mu.Unlock()
			timedOut = true
			if lead {
				// Promoted as the deadline fired: the executor role is
				// ours and must be exercised, or the queue stalls.
				<-r.done
			}
		}
	}
	if lead {
		s.runBatch()
		resp = <-r.done // r headed the batch, so the batch answered it
		timedOut = ctx.Err() != nil
	}
	if timedOut {
		sp.Flag("deadline", true)
		sp.End()
		s.srv.met.timeouts.Inc()
		return Result{}, ErrDeadline
	}
	sp.Flag("error", resp.err != nil)
	sp.End()
	if resp.err != nil {
		return Result{}, resp.err
	}
	return Result{Seq: r.seq, Estimate: resp.est}, nil
}

// runBatch runs up to MaxBatch requests from the queue head on the
// calling goroutine, which must hold the executor role, then hands the
// role on: it drops canceled heads (answers all with ErrSessionClosed
// once closed) and promotes the new head, or the session goes idle.
func (s *Session) runBatch() {
	s.mu.Lock()
	n := min(len(s.queue), s.srv.cfg.MaxBatch)
	for _, r := range s.queue[:n] {
		if r.canceled {
			s.inflight.Add(-1)
			continue
		}
		s.live = append(s.live, r)
		s.creqs = append(s.creqs, r.creq)
	}
	s.shift(n)
	s.mu.Unlock()
	s.srv.met.queueDepth.Add(-float64(n))
	s.execute() // never empty: the caller's own request heads the batch
	clear(s.live)
	clear(s.creqs)
	s.live, s.creqs = s.live[:0], s.creqs[:0]

	s.mu.Lock()
	defer s.mu.Unlock()
	n = 0
	for _, r := range s.queue {
		if !s.closed && !r.canceled {
			break
		}
		n++
		s.inflight.Add(-1)
		if !r.canceled {
			r.done <- response{err: ErrSessionClosed}
		}
	}
	s.shift(n)
	s.srv.met.queueDepth.Add(-float64(n))
	if len(s.queue) == 0 {
		s.busy = false
		s.idle.Broadcast()
		return
	}
	s.queue[0].lead = true
	s.queue[0].done <- response{lead: true}
}

// shift drops the first n queued requests, keeping the backing array.
// s.mu must be held.
func (s *Session) shift(n int) {
	k := copy(s.queue, s.queue[n:])
	clear(s.queue[k:])
	s.queue = s.queue[:k]
}

// execute runs the batch in s.live through the tracker and fans the
// results back out.
func (s *Session) execute() {
	s.srv.met.batchSize.Observe(float64(len(s.live)))
	if h := s.srv.cfg.Hooks.BeforeBatch; h != nil {
		h(len(s.live))
	}
	ests, err := s.mt.LocalizeBatch(s.creqs, 1)
	for i, r := range s.live {
		resp := response{err: err}
		if err == nil {
			resp.est = ests[i]
			ew := WireEstimate(r.creq.ID, r.seq, ests[i])
			s.mu.Lock()
			s.latest[r.creq.ID] = ew
			s.mu.Unlock()
			s.publish(ew)
		}
		// Leave the in-flight count before answering: a caller whose
		// Localize has returned must find the session quiesced (Export).
		s.inflight.Add(-1)
		r.done <- resp
	}
}

// close tears the session down: no new admissions, the running batch
// (if any) completes, queued requests are answered ErrSessionClosed,
// and every SSE stream ends. The division is released only once no
// batch can touch it. Idempotent.
func (s *Session) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for s.busy {
		s.idle.Wait()
	}
	s.mu.Unlock()
	s.subMu.Lock()
	for _, sub := range s.subs {
		close(sub.ch)
	}
	s.subs = make(map[int]*subscriber)
	s.subMu.Unlock()
	if s.releaseDiv != nil {
		s.releaseDiv()
	}
}

// subscribe registers an SSE stream; target "" receives every target's
// estimates. The returned cancel is idempotent and safe after close.
func (s *Session) subscribe(target string) (<-chan []byte, func(), bool) {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, nil, false
	}
	id := s.nextSub
	s.nextSub++
	sub := &subscriber{ch: make(chan []byte, 16), target: target}
	s.subs[id] = sub
	cancel := func() {
		s.subMu.Lock()
		defer s.subMu.Unlock()
		if cur, ok := s.subs[id]; ok && cur == sub {
			delete(s.subs, id)
			close(sub.ch)
		}
	}
	return sub.ch, cancel, true
}

// publish fans one estimate out to matching subscribers. A slow
// consumer's full buffer drops the event (counted) instead of stalling
// the batch.
func (s *Session) publish(ew EstimateWire) {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	if len(s.subs) == 0 {
		return // don't pay the marshal with nobody listening
	}
	payload, err := json.Marshal(ew)
	if err != nil {
		return
	}
	for _, sub := range s.subs {
		if sub.target != "" && sub.target != ew.Target {
			continue
		}
		select {
		case sub.ch <- payload:
		default:
			s.srv.met.sseDropped.Inc()
		}
	}
}
