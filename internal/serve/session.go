package serve

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"time"

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
	// the batcher delivered the estimate (504).
	ErrDeadline = errors.New("serve: request deadline exceeded")
)

// request is one admitted localize/report call waiting for the batcher.
type request struct {
	creq core.LocalizeRequest
	seq  uint64
	// canceled is set by the handler when its deadline expires while the
	// request is still queued; the batcher skips it without executing.
	canceled atomic.Bool
	done     chan response // buffered(1): the batcher never blocks on it
}

// response is the batcher's answer to one request.
type response struct {
	est core.Estimate
	err error
}

// Result pairs an estimate with the per-target sequence number the
// session assigned to its request.
type Result struct {
	Seq      uint64
	Estimate core.Estimate
}

// Session is one tracking session: a MultiTracker behind a bounded
// admission queue and a micro-batching loop, plus the SSE fan-out hub
// and the latest-estimate table.
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

	inflight atomic.Int64 // admitted, not yet answered
	in       chan *request
	stop     chan struct{}
	stopped  chan struct{}

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
		in:         make(chan *request, srv.cfg.QueueLimit),
		stop:       make(chan struct{}),
		stopped:    make(chan struct{}),
		subs:       make(map[int]*subscriber),
	}
	go s.runBatcher()
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
// request rides the next micro-batch, and the call blocks until the
// estimate is delivered or ctx expires. Errors: ErrOverloaded,
// ErrSessionClosed, ErrDraining, ErrDeadline.
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
// assign the per-target sequence number, enqueue in admission order,
// then wait for the batcher (or the deadline).
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
	// per-target FIFO the determinism contract rests on. The send cannot
	// block: the channel capacity equals the admission limit.
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
	// batcher's round span parents under it, the batch span links to it.
	// Inert (nil recorder) this is a pointer check.
	sp := s.rec.Start(obs.SpanRef{}, "serve", "request")
	if sp.Active() {
		sp.AttrStr("target", target)
		sp.Attr("seq", float64(r.seq))
		r.creq.Span = sp.Ref()
	}
	s.in <- r
	s.mu.Unlock()
	s.srv.met.queueDepth.Add(1)

	select {
	case resp := <-r.done:
		sp.Flag("error", resp.err != nil)
		sp.End()
		if resp.err != nil {
			return Result{}, resp.err
		}
		return Result{Seq: r.seq, Estimate: resp.est}, nil
	case <-ctx.Done():
		r.canceled.Store(true)
		sp.Flag("deadline", true)
		sp.End()
		s.srv.met.timeouts.Inc()
		return Result{}, ErrDeadline
	}
}

// runBatcher is the session's single consumer: it coalesces queued
// requests into LocalizeBatch rounds. After a first request arrives it
// keeps collecting while more work is demonstrably in flight, up to
// MaxBatch requests or MaxWait of accumulated waiting — but executes
// immediately when the queue has gone quiet, so an unloaded server adds
// no batching latency.
func (s *Session) runBatcher() {
	defer close(s.stopped)
	maxBatch := s.srv.cfg.MaxBatch
	maxWait := s.srv.cfg.MaxWait
	var batch []*request
	for {
		var first *request
		select {
		case first = <-s.in:
		case <-s.stop:
			s.drainQueue()
			return
		}
		batch = append(batch[:0], first)
		if maxBatch > 1 {
			timer := time.NewTimer(maxWait)
		collect:
			for len(batch) < maxBatch {
				select {
				case r := <-s.in:
					batch = append(batch, r)
					continue
				default:
				}
				// Queue empty. inflight counts the batch members plus
				// anything admitted but not yet answered; if nothing
				// beyond the batch is in flight, waiting buys no
				// coalescing — execute now.
				if s.inflight.Load() <= int64(len(batch)) {
					break collect
				}
				select {
				case r := <-s.in:
					batch = append(batch, r)
				case <-timer.C:
					break collect
				case <-s.stop:
					break collect
				}
			}
			timer.Stop()
		}
		s.execute(batch)
	}
}

// execute runs one micro-batch through the tracker and fans the results
// back out, skipping requests whose callers have already given up.
func (s *Session) execute(batch []*request) {
	s.srv.met.queueDepth.Add(-float64(len(batch)))
	live := make([]*request, 0, len(batch))
	creqs := make([]core.LocalizeRequest, 0, len(batch))
	for _, r := range batch {
		if r.canceled.Load() {
			s.inflight.Add(-1)
			continue
		}
		live = append(live, r)
		creqs = append(creqs, r.creq)
	}
	if len(live) == 0 {
		return
	}
	s.srv.met.batchSize.Observe(float64(len(live)))
	if h := s.srv.cfg.Hooks.BeforeBatch; h != nil {
		h(len(live))
	}
	ests, err := s.mt.LocalizeBatch(creqs, 1)
	for i, r := range live {
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

// drainQueue answers every still-queued request with ErrSessionClosed.
func (s *Session) drainQueue() {
	for {
		select {
		case r := <-s.in:
			s.srv.met.queueDepth.Add(-1)
			s.inflight.Add(-1)
			if !r.canceled.Load() {
				r.done <- response{err: ErrSessionClosed}
			}
		default:
			return
		}
	}
}

// close tears the session down: no new admissions, the batcher exits
// after its current batch, queued stragglers get ErrSessionClosed, and
// every SSE stream ends. Idempotent.
func (s *Session) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	<-s.stopped
	s.drainQueue() // requests that raced the batcher's exit
	s.subMu.Lock()
	for _, sub := range s.subs {
		close(sub.ch)
	}
	s.subs = make(map[int]*subscriber)
	s.subMu.Unlock()
	if s.releaseDiv != nil {
		// Unpin the shared division last: no more batches can touch it.
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
// the batcher.
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
