// Package cluster shards the serving layer horizontally: a thin HTTP
// router consistent-hashes session IDs across a static list of
// fttt-serve backends, proxies the /v1/sessions API (SSE streams
// included) transparently, and migrates sessions off a draining
// backend through the serve state endpoints (GET/PUT
// /v1/sessions/{id}/state).
//
// Placement is rendezvous (highest-random-weight) hashing over a
// pinned 64-bit FNV-1a score (Place): every router instance with the
// same member list agrees on the owner of every session with no shared
// state, and removing a backend moves only that backend's sessions —
// the minimal-disruption property the migration path relies on. The
// router assigns session IDs itself (X-Fttt-Session-Id) so a session's
// owner is known before any backend sees the create.
//
// Drain flow: a backend entering graceful drain (SIGTERM) starts
// answering /healthz with 503. The router's health prober notices,
// marks the member leaving (placement excludes it), exports each of
// its sessions' wire state — seed/round cursors, latest estimates,
// warm-start snapshot, fault clock — and PUTs it to the session's new
// owner under the shrunken member set. With every backend pointing
// -field-cache-dir at one shared spill directory, the successor
// re-acquires the division by content address from disk: zero
// re-divides (fttt_fieldcache_builds_total stays 0). DESIGN.md §16
// documents the architecture and the determinism contract.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fttt/internal/obs"
)

// Backend names one fttt-serve member of the cluster.
type Backend struct {
	// Name is the stable member identity the placement hash scores —
	// keep it constant across restarts or sessions will rehash.
	Name string
	// URL is the backend's base URL (e.g. http://10.0.0.2:8080).
	URL string
}

// Config parameterises a Router.
type Config struct {
	// Backends is the static member list; at least one is required.
	Backends []Backend
	// Client issues backend requests (migration, health, list fan-out);
	// nil selects a default with a 10s timeout. Proxied requests use the
	// transport only, so SSE streams are never cut by the timeout.
	Client *http.Client
	// HealthInterval is the drain prober period; 0 disables the
	// background prober (Migrate can still be called directly — the
	// loadtest harness does).
	HealthInterval time.Duration
	// Obs receives the router metrics; nil creates a private registry.
	Obs *obs.Registry
}

// member is one backend plus its routing state.
type member struct {
	be      Backend
	target  *url.URL
	proxy   *httputil.ReverseProxy
	leaving atomic.Bool // excluded from placement; pending/under migration
	// migrated guards the health prober: one drain triggers one
	// migration.
	migrated atomic.Bool
}

// Router is the consistent-hash session router. It implements
// http.Handler; create with New, mount it, and Close it on shutdown.
type Router struct {
	cfg    Config
	reg    *obs.Registry
	met    *metrics
	mux    *http.ServeMux
	client *http.Client

	mu      sync.Mutex
	members []*member

	nextID atomic.Uint64
	stop   chan struct{}
	done   chan struct{}
}

// New builds a Router over the configured backends and starts the
// health prober when Config.HealthInterval is positive.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("cluster: at least one backend is required")
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	r := &Router{
		cfg:    cfg,
		reg:    reg,
		client: client,
		mux:    http.NewServeMux(),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	seen := make(map[string]bool, len(cfg.Backends))
	names := make([]string, 0, len(cfg.Backends))
	for _, be := range cfg.Backends {
		if be.Name == "" || be.URL == "" {
			return nil, fmt.Errorf("cluster: backend needs both name and URL (got %+v)", be)
		}
		if seen[be.Name] {
			return nil, fmt.Errorf("cluster: duplicate backend name %q", be.Name)
		}
		seen[be.Name] = true
		names = append(names, be.Name)
		target, err := url.Parse(be.URL)
		if err != nil {
			return nil, fmt.Errorf("cluster: backend %s: %w", be.Name, err)
		}
		m := &member{be: be, target: target}
		m.proxy = &httputil.ReverseProxy{
			Rewrite: func(pr *httputil.ProxyRequest) {
				pr.SetURL(target)
				pr.SetXForwarded()
			},
			// SSE: flush every write through immediately.
			FlushInterval: -1,
			Transport:     client.Transport,
			BufferPool:    proxyBuffers,
			ErrorHandler: func(w http.ResponseWriter, req *http.Request, err error) {
				r.met.proxyErrors.Inc()
				writeJSON(w, http.StatusBadGateway,
					map[string]string{"error": fmt.Sprintf("cluster: backend %s: %v", be.Name, err)})
			},
		}
		r.members = append(r.members, m)
	}
	r.met = newMetrics(reg, names)
	r.met.backends.Set(float64(len(r.members)))

	r.mux.HandleFunc("POST /v1/sessions", r.handleCreate)
	r.mux.HandleFunc("GET /v1/sessions", r.handleList)
	r.mux.HandleFunc("/v1/sessions/{id}", r.handleSession)
	r.mux.HandleFunc("/v1/sessions/{id}/{rest...}", r.handleSession)
	r.mux.HandleFunc("GET /healthz", r.handleHealth)
	r.mux.Handle("GET /metrics", obs.Handler(reg))

	if cfg.HealthInterval > 0 {
		go r.probeLoop()
	} else {
		close(r.done)
	}
	return r, nil
}

// Registry returns the router's telemetry registry.
func (r *Router) Registry() *obs.Registry { return r.reg }

// ServeHTTP implements http.Handler.
func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) { r.mux.ServeHTTP(w, req) }

// Close stops the health prober.
func (r *Router) Close() {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	<-r.done
}

// --- placement ---

// score is the pinned rendezvous weight of (session, backend): 64-bit
// FNV-1a over "fttt-place\0<session>\0<backend>", passed through a
// murmur3-style finalizer. The finalizer matters: raw FNV-1a keeps its
// last input bytes nearly linear in the output, so backend names
// differing only in the final character ("b1"/"b2"/"b3") would skew
// placement badly (measured 50/25/25 over three members). Changing
// this function reshuffles every session in a rolling upgrade — don't.
func score(sessionID, backend string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, "fttt-place")
	h.Write([]byte{0})
	io.WriteString(h, sessionID)
	h.Write([]byte{0})
	io.WriteString(h, backend)
	return mix64(h.Sum64())
}

// mix64 is the murmur3 fmix64 finalizer: full-avalanche bijection.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Place returns which of backends owns sessionID under rendezvous
// hashing: the backend with the highest score wins, ties broken by
// lexicographically smallest name (deterministic on any member-list
// order). Exported — and pinned by golden test vectors — because every
// router replica and test harness must agree on it exactly.
func Place(sessionID string, backends []string) string {
	best, bestScore := "", uint64(0)
	for _, b := range backends {
		s := score(sessionID, b)
		if best == "" || s > bestScore || (s == bestScore && b < best) {
			best, bestScore = b, s
		}
	}
	return best
}

// ActiveBackends returns the names of members currently eligible for
// placement (not leaving), in configuration order.
func (r *Router) ActiveBackends() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.activeNamesLocked()
}

func (r *Router) activeNamesLocked() []string {
	names := make([]string, 0, len(r.members))
	for _, m := range r.members {
		if !m.leaving.Load() {
			names = append(names, m.be.Name)
		}
	}
	return names
}

// owner resolves the member owning sessionID among active members.
func (r *Router) owner(sessionID string) (*member, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	name := Place(sessionID, r.activeNamesLocked())
	if name == "" {
		return nil, errors.New("cluster: no active backends")
	}
	for _, m := range r.members {
		if m.be.Name == name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("cluster: unknown backend %q", name) // unreachable
}

func (r *Router) memberByName(name string) *member {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.members {
		if m.be.Name == name {
			return m
		}
	}
	return nil
}

// --- proxying ---

// forward proxies req to m, recording the per-backend request count
// and proxy latency.
func (r *Router) forward(m *member, w http.ResponseWriter, req *http.Request) {
	start := time.Now()
	r.met.requests[m.be.Name].Inc()
	m.proxy.ServeHTTP(w, req)
	r.met.latency[m.be.Name].Observe(time.Since(start).Seconds())
}

// NextSessionID mints a cluster-unique session ID ("c1", "c2", …). The
// router names sessions itself so their placement is decided before
// any backend sees the create.
func (r *Router) NextSessionID() string {
	return fmt.Sprintf("c%d", r.nextID.Add(1))
}

func (r *Router) handleCreate(w http.ResponseWriter, req *http.Request) {
	id := r.NextSessionID()
	m, err := r.owner(id)
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
		return
	}
	req.Header.Set("X-Fttt-Session-Id", id)
	r.forward(m, w, req)
}

func (r *Router) handleSession(w http.ResponseWriter, req *http.Request) {
	m, err := r.owner(req.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
		return
	}
	r.forward(m, w, req)
}

// sessionWire is the slice of the serve session description the router
// needs (it treats backend payloads as opaque beyond the ID).
type sessionWire struct {
	ID string `json:"id"`
}

// handleList fans GET /v1/sessions out to every member (leaving ones
// included: their sessions are still real until migrated) and merges
// the results sorted by session ID.
func (r *Router) handleList(w http.ResponseWriter, req *http.Request) {
	r.mu.Lock()
	members := append([]*member(nil), r.members...)
	r.mu.Unlock()
	merged := make([]json.RawMessage, 0, 16)
	for _, m := range members {
		var page []json.RawMessage
		if err := r.getJSON(req.Context(), m, "/v1/sessions", &page); err != nil {
			writeJSON(w, http.StatusBadGateway,
				map[string]string{"error": fmt.Sprintf("cluster: list %s: %v", m.be.Name, err)})
			return
		}
		merged = append(merged, page...)
	}
	sort.SliceStable(merged, func(i, j int) bool {
		return sessionID(merged[i]) < sessionID(merged[j])
	})
	writeJSON(w, http.StatusOK, merged)
}

func sessionID(raw json.RawMessage) string {
	var sw sessionWire
	json.Unmarshal(raw, &sw) //nolint:errcheck // sorting best-effort
	return sw.ID
}

// healthWire is the router's /healthz body.
type healthWire struct {
	Status   string              `json:"status"`
	Backends []backendHealthWire `json:"backends"`
}

type backendHealthWire struct {
	Name    string `json:"name"`
	URL     string `json:"url"`
	Leaving bool   `json:"leaving,omitempty"`
}

func (r *Router) handleHealth(w http.ResponseWriter, _ *http.Request) {
	r.mu.Lock()
	hw := healthWire{Status: "ok"}
	for _, m := range r.members {
		hw.Backends = append(hw.Backends, backendHealthWire{
			Name: m.be.Name, URL: m.be.URL, Leaving: m.leaving.Load(),
		})
	}
	r.mu.Unlock()
	writeJSON(w, http.StatusOK, hw)
}

// --- backend HTTP helpers ---

func (r *Router) getJSON(ctx context.Context, m *member, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.be.URL+path, nil)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// --- migration ---

// SessionCounts fans out to every member and returns live session
// counts by backend name, refreshing the per-backend session gauges.
// Leaving members are included while they still hold sessions.
func (r *Router) SessionCounts(ctx context.Context) (map[string]int, error) {
	r.mu.Lock()
	members := append([]*member(nil), r.members...)
	r.mu.Unlock()
	counts := make(map[string]int, len(members))
	for _, m := range members {
		var page []json.RawMessage
		if err := r.getJSON(ctx, m, "/v1/sessions", &page); err != nil {
			return nil, fmt.Errorf("cluster: sessions on %s: %w", m.be.Name, err)
		}
		counts[m.be.Name] = len(page)
		r.met.sessions[m.be.Name].Set(float64(len(page)))
	}
	return counts, nil
}

// Migrate drains backend name out of the cluster: it is removed from
// placement, each of its sessions' state is exported and restored onto
// the session's new owner under the shrunken member set, and the
// source copy is deleted (so a -migrate-grace drain sees its table
// empty and finishes shutting down). Returns how many sessions moved.
// Idempotent per session: an export/restore that finds the session
// already gone or already restored is skipped, not fatal.
func (r *Router) Migrate(ctx context.Context, name string) (int, error) {
	src := r.memberByName(name)
	if src == nil {
		return 0, fmt.Errorf("cluster: unknown backend %q", name)
	}
	src.leaving.Store(true)
	r.met.backends.Set(float64(len(r.ActiveBackends())))

	var ids []sessionWire
	if err := r.getJSON(ctx, src, "/v1/sessions", &ids); err != nil {
		return 0, fmt.Errorf("cluster: listing sessions on %s: %w", name, err)
	}
	moved := 0
	for _, sw := range ids {
		if err := r.migrateSession(ctx, src, sw.ID); err != nil {
			r.met.migrationErrors.Inc()
			return moved, fmt.Errorf("cluster: migrating %s off %s: %w", sw.ID, name, err)
		}
		moved++
		r.met.migrations.Inc()
	}
	return moved, nil
}

// migrateSession moves one session: export from src, restore onto its
// new owner, delete the source copy.
func (r *Router) migrateSession(ctx context.Context, src *member, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, src.be.URL+"/v1/sessions/"+id+"/state", nil)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	state, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode == http.StatusNotFound {
		return nil // closed between list and export
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("export: status %d: %s", resp.StatusCode, strings.TrimSpace(string(state)))
	}

	dst, err := r.owner(id)
	if err != nil {
		return err
	}
	req, err = http.NewRequestWithContext(ctx, http.MethodPut, dst.be.URL+"/v1/sessions/"+id+"/state", strings.NewReader(string(state)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err = r.client.Do(req)
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	// 409: the successor already has it (a retried migration).
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusConflict {
		return fmt.Errorf("restore on %s: status %d: %s", dst.be.Name, resp.StatusCode, strings.TrimSpace(string(body)))
	}

	req, err = http.NewRequestWithContext(ctx, http.MethodDelete, src.be.URL+"/v1/sessions/"+id, nil)
	if err != nil {
		return err
	}
	resp, err = r.client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	return nil
}

// probeLoop watches every member's /healthz and migrates a member's
// sessions off exactly once when it starts reporting draining (503).
func (r *Router) probeLoop() {
	defer close(r.done)
	tick := time.NewTicker(r.cfg.HealthInterval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			r.probeOnce()
		case <-r.stop:
			return
		}
	}
}

func (r *Router) probeOnce() {
	r.mu.Lock()
	members := append([]*member(nil), r.members...)
	r.mu.Unlock()
	for _, m := range members {
		if m.leaving.Load() {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), r.cfg.HealthInterval)
		draining := r.isDraining(ctx, m)
		cancel()
		if draining && m.migrated.CompareAndSwap(false, true) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
			if n, err := r.Migrate(ctx, m.be.Name); err != nil {
				// Partial migrations are retried on manual Migrate calls;
				// the prober only fires once per member.
				r.logf("migrate %s: moved %d, error: %v", m.be.Name, n, err)
			} else {
				r.logf("migrated %d sessions off draining backend %s", n, m.be.Name)
			}
			cancel()
		}
	}
}

// isDraining probes one member's /healthz; any 503 answer counts as
// draining (the serve layer's quiesced state).
func (r *Router) isDraining(ctx context.Context, m *member) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.be.URL+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return false // unreachable ≠ draining: nothing to migrate from
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	return resp.StatusCode == http.StatusServiceUnavailable
}

// logf writes router progress to stderr-style logging; kept tiny and
// replaceable.
func (r *Router) logf(format string, args ...any) {
	fmt.Printf("fttt-router: "+format+"\n", args...)
}

// proxyBuffers recycles the proxies' response copy buffers. Without a
// pool, ReverseProxy allocates a fresh 32 KiB buffer for every proxied
// response, which made it most of the router's garbage.
var proxyBuffers = &bufferPool{p: sync.Pool{New: func() any { return make([]byte, 32<<10) }}}

// bufferPool adapts a sync.Pool to httputil.BufferPool. Boxing a
// returned buffer costs a 24-byte slice header, not a 32 KiB buffer.
type bufferPool struct{ p sync.Pool }

func (b *bufferPool) Get() []byte { return b.p.Get().([]byte) }

func (b *bufferPool) Put(buf []byte) { b.p.Put(buf) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone; nothing to do
}
