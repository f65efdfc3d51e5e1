// Package serve is the tracking-as-a-service layer: a long-running
// HTTP/JSON API over core.MultiTracker with production serving
// mechanics. Sessions are created from a wire-level fttt configuration;
// localize calls and ingested sampling reports ride a per-session
// micro-batcher that coalesces concurrent requests into
// MultiTracker.LocalizeBatch rounds (tunable max batch size / max
// wait); a bounded admission queue sheds overload with 429 +
// Retry-After; requests carry deadlines; estimates stream out over SSE;
// and SIGTERM-style graceful drain finishes in-flight work before the
// listener goes away.
//
// Determinism contract (the serving extension of the PR 2 contract):
// each session is rooted at SessionConfig.Seed, and the n-th localize
// request for target T draws its sampling noise from
// RequestStream(root, T, n). Because the batcher preserves per-target
// FIFO order and LocalizeBatch executes same-target requests serially
// in that order, the response bytes are identical to unbatched serial
// execution for any interleaving, batch split, or worker count.
// DESIGN.md §10 documents the architecture.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fttt/internal/core"
	"fttt/internal/field"
	"fttt/internal/fieldcache"
	"fttt/internal/geom"
	"fttt/internal/obs"
)

// Config parameterises a Server. The zero value is usable: every field
// has a serving-grade default.
type Config struct {
	// MaxBatch is the micro-batcher's batch-size ceiling; ≤ 0 selects 16.
	MaxBatch int
	// MaxWait bounds how long a batch may wait for stragglers once more
	// work is known to be in flight; ≤ 0 selects 2ms. An idle queue
	// never waits.
	MaxWait time.Duration
	// QueueLimit bounds each session's admission queue (admitted,
	// unanswered requests); ≤ 0 selects 256. Beyond it requests are shed
	// with 429.
	QueueLimit int
	// Workers is the LocalizeBatch worker-pool size; 0 selects the CPU
	// count.
	Workers int
	// RequestTimeout is the default per-request deadline; ≤ 0 selects
	// 5s. Clients may shorten it per request with an X-Fttt-Timeout
	// header (a Go duration string).
	RequestTimeout time.Duration
	// RetryAfter is the hint returned with 429 responses; ≤ 0 selects 1s.
	RetryAfter time.Duration
	// Obs receives the serving metrics (and is exposed at /metrics); nil
	// creates a private registry.
	Obs *obs.Registry
	// TraceRecords, when positive, attaches a flight recorder to every
	// session: a bounded ring keeping the last TraceRecords trace records
	// (spans, events, links — DESIGN.md §12), exposed at
	// GET /v1/sessions/{id}/debug/trace. 0 disables tracing entirely —
	// the serving path then carries only nil checks.
	TraceRecords int
	// FieldCache, when non-nil, is the shared content-addressed division
	// cache every session's preprocessing routes through (DESIGN.md §13).
	// nil creates a private in-memory cache wired to the server's
	// registry — sessions still share divisions within this server, but
	// nothing spills to disk. Pass a cache built with
	// fieldcache.Config.Dir to warm-restart across processes.
	FieldCache *fieldcache.Cache
	// Hooks are test seams; zero in production.
	Hooks Hooks
}

// Hooks are deterministic-test seams into the serving path.
type Hooks struct {
	// BeforeBatch, when non-nil, is called (on the batcher goroutine)
	// with each batch's size just before it executes. The load harness
	// blocks here to build reproducible overload; production leaves it
	// nil.
	BeforeBatch func(batchSize int)
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 2 * time.Millisecond
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 256
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Server is the tracking-as-a-service HTTP handler plus the session
// table. Create one with New, mount it (it implements http.Handler),
// and call Drain on shutdown.
type Server struct {
	cfg    Config
	reg    *obs.Registry
	met    *metrics
	mux    *http.ServeMux
	fcache *fieldcache.Cache

	mu       sync.Mutex
	sessions map[string]*Session
	nextID   atomic.Uint64

	draining atomic.Bool
	wg       sync.WaitGroup // admitted requests in flight
}

// New builds a Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	fc := cfg.FieldCache
	if fc == nil {
		// A dir-less cache cannot fail construction.
		fc, _ = fieldcache.New(fieldcache.Config{Obs: reg})
	}
	s := &Server{
		cfg:      cfg,
		reg:      reg,
		met:      newMetrics(reg),
		mux:      http.NewServeMux(),
		fcache:   fc,
		sessions: make(map[string]*Session),
	}
	s.mux.HandleFunc("POST /v1/sessions", s.route("create", s.handleCreate))
	s.mux.HandleFunc("GET /v1/sessions", s.route("list", s.handleList))
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.route("get", s.handleGet))
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.route("close", s.handleClose))
	s.mux.HandleFunc("POST /v1/sessions/{id}/localize", s.route("localize", s.handleLocalize))
	s.mux.HandleFunc("POST /v1/sessions/{id}/reports", s.route("reports", s.handleReports))
	s.mux.HandleFunc("GET /v1/sessions/{id}/estimates/{target}", s.route("estimate", s.handleEstimate))
	s.mux.HandleFunc("GET /v1/sessions/{id}/stream", s.route("stream", s.handleStream))
	s.mux.HandleFunc("GET /v1/sessions/{id}/debug/trace", s.route("trace", s.handleTrace))
	s.mux.HandleFunc("GET /v1/sessions/{id}/state", s.route("state", s.handleStateExport))
	s.mux.HandleFunc("PUT /v1/sessions/{id}/state", s.route("restore", s.handleStateRestore))
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.Handle("GET /metrics", obs.Handler(reg))
	return s
}

// Registry returns the server's telemetry registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// route wraps a handler with its per-route request counter and latency
// histogram.
func (s *Server) route(name string, h http.HandlerFunc) http.HandlerFunc {
	reqs := s.met.requests[name]
	lat := s.met.latency[name]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqs.Inc()
		h(w, r)
		lat.Observe(time.Since(start).Seconds())
	}
}

// CreateSession builds a session from a wire config — the Go-level
// entry the POST /v1/sessions handler (and in-process harnesses: the
// load generator, BenchmarkServeLocalize) use. The server assigns the
// ID; a cluster router that needs to pick IDs itself (to place them on
// the hash ring before creation) passes one via the X-Fttt-Session-Id
// header, which routes through createSession directly.
func (s *Server) CreateSession(sc SessionConfig) (*Session, error) {
	return s.createSession(fmt.Sprintf("s%d", s.nextID.Add(1)), sc)
}

// createSession is CreateSession with a caller-chosen ID (the restore
// and router-assigned-ID paths). ErrSessionExists when the ID is taken.
func (s *Server) createSession(id string, sc SessionConfig) (*Session, error) {
	if s.draining.Load() {
		return nil, ErrDraining
	}
	if id == "" {
		return nil, errors.New("serve: empty session ID")
	}
	s.mu.Lock()
	_, taken := s.sessions[id]
	s.mu.Unlock()
	if taken {
		return nil, fmt.Errorf("%w: %q", ErrSessionExists, id)
	}
	cfg, err := sc.CoreConfig()
	if err != nil {
		return nil, err
	}
	cfg.Obs = s.reg
	// All preprocessing routes through the shared field cache: sessions
	// over one deployment share a single immutable division, built once.
	// A cold miss builds with every CPU — the worker count does not
	// change the division's bytes, only the build latency.
	var release func()
	cfg.DivideWorkers = -1
	cfg.Divider = func(spec field.Spec) (*field.Division, error) {
		div, rel, err := s.fcache.Acquire(spec)
		if err != nil {
			return nil, err
		}
		release = rel
		return div, nil
	}
	var rec *obs.Recorder
	if s.cfg.TraceRecords > 0 {
		// The flight recorder rides cfg.Tracer into every per-target
		// tracker clone; MultiTracer keeps any callback tracer working
		// alongside it.
		rec = obs.NewRecorder(s.cfg.TraceRecords)
		cfg.Tracer = obs.NewMultiTracer(cfg.Tracer, rec)
	}
	mt, err := core.NewMulti(cfg)
	if err != nil {
		if release != nil {
			release() // unpin: the session never materialized
		}
		return nil, err
	}
	sess := newSession(id, s, sc, cfg, mt, sc.Seed, rec, release)
	s.mu.Lock()
	if _, taken := s.sessions[id]; taken { // lost a create race for the ID
		s.mu.Unlock()
		sess.close()
		return nil, fmt.Errorf("%w: %q", ErrSessionExists, id)
	}
	s.sessions[id] = sess
	s.mu.Unlock()
	s.met.sessions.Add(1)
	return sess, nil
}

// Session returns a live session by ID.
func (s *Server) Session(id string) (*Session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	return sess, ok
}

// CloseSession tears a session down and removes it from the table;
// false when the ID is unknown (or already closed).
func (s *Server) CloseSession(id string) bool {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if !ok {
		return false
	}
	sess.close()
	s.met.sessions.Add(-1)
	return true
}

// Drain performs graceful shutdown: new work is refused with 503, then
// Drain blocks until every admitted request has been answered (or ctx
// expires), and finally every session is torn down — batchers stop and
// SSE streams end, so an enclosing http.Server.Shutdown is not held
// open. Returns ctx.Err() if the deadline cut the wait short. In a
// cluster, call Quiesce first and let the router migrate sessions off
// (fttt-serve -migrate-grace) before this final teardown.
func (s *Server) Drain(ctx context.Context) error {
	err := s.Quiesce(ctx)
	s.mu.Lock()
	all := make([]*Session, 0, len(s.sessions))
	for id, sess := range s.sessions {
		all = append(all, sess)
		delete(s.sessions, id)
	}
	s.mu.Unlock()
	for _, sess := range all {
		sess.close()
		s.met.sessions.Add(-1)
	}
	return err
}

// --- HTTP handlers ---

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, ErrDraining)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var sc SessionConfig
	if !readWire(w, r, "session config", func(wb *wireBuf) error { return decodeStrict(wb.body, &sc) }) {
		return
	}
	var sess *Session
	var err error
	if id := r.Header.Get("X-Fttt-Session-Id"); id != "" {
		// A cluster router picks IDs itself so it can place the session
		// on its hash ring before the backend ever sees it.
		sess, err = s.createSession(id, sc)
	} else {
		sess, err = s.CreateSession(sc)
	}
	if err != nil {
		writeError(w, statusFor(err, http.StatusBadRequest), err)
		return
	}
	writeJSON(w, http.StatusCreated, s.describe(sess))
}

func (s *Server) describe(sess *Session) sessionWire {
	return sessionWire{
		ID:      sess.id,
		Nodes:   len(sess.cfg.Nodes),
		Faces:   len(sess.mt.Division().Faces),
		Variant: sess.cfg.Variant.String(),
		Targets: sess.Targets(),
	}
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ids := make([]string, 0, len(s.sessions))
	for id := range s.sessions {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	sort.Strings(ids)
	out := make([]sessionWire, 0, len(ids))
	for _, id := range ids {
		if sess, ok := s.Session(id); ok {
			out = append(out, s.describe(sess))
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// session resolves {id} or writes a 404.
func (s *Server) session(w http.ResponseWriter, r *http.Request) (*Session, bool) {
	id := r.PathValue("id")
	sess, ok := s.Session(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown session %q", id))
		return nil, false
	}
	return sess, true
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if sess, ok := s.session(w, r); ok {
		writeJSON(w, http.StatusOK, s.describe(sess))
	}
}

func (s *Server) handleClose(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.CloseSession(id) {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown session %q", id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"closed": id})
}

// requestContext applies the per-request deadline: the server default,
// shortened by an X-Fttt-Timeout header when present and valid.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	d := s.cfg.RequestTimeout
	if h := r.Header.Get("X-Fttt-Timeout"); h != "" {
		hd, err := time.ParseDuration(h)
		if err != nil || hd <= 0 {
			return nil, nil, fmt.Errorf("serve: bad X-Fttt-Timeout %q", h)
		}
		if hd < d {
			d = hd
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

func (s *Server) handleLocalize(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	var lw LocalizeWire
	if !readWire(w, r, "localize body", func(wb *wireBuf) error { return decodeLocalize(wb, &lw) }) {
		return
	}
	if lw.Target == "" {
		writeError(w, http.StatusBadRequest, errors.New("serve: target is required"))
		return
	}
	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	res, err := sess.Localize(ctx, lw.Target, geom.Pt(lw.X, lw.Y))
	s.writeResult(w, lw.Target, res, err)
}

func (s *Server) handleReports(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	var rw ReportWire
	if !readWire(w, r, "report body", func(wb *wireBuf) error { return decodeReport(wb, &rw) }) {
		return
	}
	if rw.Target == "" {
		writeError(w, http.StatusBadRequest, errors.New("serve: target is required"))
		return
	}
	g, err := rw.Group(len(sess.cfg.Nodes), sess.cfg.Epsilon)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	res, err := sess.Ingest(ctx, rw.Target, g)
	s.writeResult(w, rw.Target, res, err)
}

func (s *Server) writeResult(w http.ResponseWriter, target string, res Result, err error) {
	if err != nil {
		status := statusFor(err, http.StatusInternalServerError)
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After",
				strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, WireEstimate(target, res.Seq, res.Estimate))
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	target := r.PathValue("target")
	ew, ok := sess.Latest(target)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no estimate yet for target %q", target))
		return
	}
	writeJSON(w, http.StatusOK, ew)
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, ErrDraining)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("serve: streaming unsupported"))
		return
	}
	ch, cancel, ok := sess.subscribe(r.URL.Query().Get("target"))
	if !ok {
		writeError(w, http.StatusConflict, ErrSessionClosed)
		return
	}
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": stream %s\n\n", sess.id)
	flusher.Flush()
	for {
		select {
		case payload, open := <-ch:
			if !open {
				// Session closed: tell the client not to reconnect.
				fmt.Fprint(w, "event: close\ndata: {}\n\n")
				flusher.Flush()
				return
			}
			fmt.Fprintf(w, "event: estimate\ndata: %s\n\n", payload)
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// statusFor maps serving errors to HTTP statuses; fallback covers
// validation-style errors whose status depends on the route.
func statusFor(err error, fallback int) int {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDeadline):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrSessionClosed):
		return http.StatusConflict
	case errors.Is(err, ErrSessionExists), errors.Is(err, ErrSessionBusy):
		return http.StatusConflict
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	default:
		return fallback
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorWire{Error: err.Error()})
}
