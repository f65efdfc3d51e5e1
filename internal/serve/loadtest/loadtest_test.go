package loadtest

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"fttt/internal/obs"
	"fttt/internal/serve"
)

func testSession(seed uint64) serve.SessionConfig {
	return serve.SessionConfig{
		Seed:      seed,
		Field:     &serve.RectWire{Max: serve.PointWire{X: 60, Y: 60}},
		GridNodes: 9,
		CellSize:  3,
	}
}

// localizeLatency resolves the server's per-route latency histogram for
// the localize route (same name and buckets as the serving layer).
func localizeLatency(reg *obs.Registry) *obs.Histogram {
	return reg.Histogram(`fttt_serve_request_seconds{route="localize"}`,
		obs.ExpBuckets(1e-4, 2, 16))
}

// dumpTraceArtifact fetches the session's raw trace recording and
// writes it to the path named by FTTT_TRACE_OUT — CI uploads the file
// as a build artifact so a failed or slow load-test run ships its own
// flight recording. A no-op when the variable is unset.
func dumpTraceArtifact(t *testing.T, client *http.Client, baseURL, id string) {
	t.Helper()
	path := os.Getenv("FTTT_TRACE_OUT")
	if path == "" {
		return
	}
	resp, err := client.Get(baseURL + "/v1/sessions/" + id + "/debug/trace?format=jsonl")
	if err != nil {
		t.Errorf("trace artifact: %v", err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("trace artifact: status %d", resp.StatusCode)
		return
	}
	f, err := os.Create(path)
	if err != nil {
		t.Errorf("trace artifact: %v", err)
		return
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		t.Errorf("trace artifact: %v", err)
		return
	}
	if err := f.Close(); err != nil {
		t.Errorf("trace artifact: %v", err)
		return
	}
	t.Logf("trace artifact written to %s", path)
}

// TestLoadNoFaultPath is the happy-path load test: concurrent clients
// over real HTTP, zero shedding, zero timeouts, every response body
// byte-identical to the unbatched serial reference, and p99 localize
// latency under a generous bound. The server runs with its flight
// recorder on, so the byte-identity check doubles as the
// tracing-does-not-perturb-estimates contract under real concurrency.
func TestLoadNoFaultPath(t *testing.T) {
	srv := serve.New(serve.Config{TraceRecords: 4096})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cfg := Config{
		Clients:  6,
		Requests: 10,
		Seed:     7,
		Session:  testSession(42),
	}
	want, err := cfg.Expected()
	if err != nil {
		t.Fatal(err)
	}
	id, res, err := Run(ts.Client(), ts.URL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.CloseSession(id)
	dumpTraceArtifact(t, ts.Client(), ts.URL, id)

	total := cfg.Clients * cfg.Requests
	if res.OK != total || res.Shed != 0 || res.Deadline != 0 || res.Other != 0 {
		t.Fatalf("outcomes ok=%d shed=%d deadline=%d other=%d, want %d/0/0/0 (statuses %v)",
			res.OK, res.Shed, res.Deadline, res.Other, total, res.Statuses)
	}
	if err := VerifyBodies(res, want); err != nil {
		t.Fatal(err)
	}

	reg := srv.Registry()
	if got := reg.Counter("fttt_serve_shed_total").Value(); got != 0 {
		t.Errorf("shed counter %v, want 0", got)
	}
	if got := reg.Counter("fttt_serve_timeouts_total").Value(); got != 0 {
		t.Errorf("timeout counter %v, want 0", got)
	}
	if got := reg.Counter(`fttt_serve_requests_total{route="localize"}`).Value(); got != float64(total) {
		t.Errorf("localize request counter %v, want %d", got, total)
	}
	// Every admitted request lands in exactly one executed batch, so the
	// batch-size histogram's sum equals the request count.
	bs := reg.Histogram("fttt_serve_batch_size", obs.LinearBuckets(1, 1, 32))
	if got := bs.Sum(); got != float64(total) {
		t.Errorf("batch-size histogram sum %v, want %d", got, total)
	}
	lat := localizeLatency(reg)
	if got := lat.Count(); got != uint64(total) {
		t.Errorf("latency histogram count %d, want %d", got, total)
	}
	// Generous ceiling: the no-fault path must stay well under a second
	// even with -race instrumentation; regressions that serialize the
	// whole server or leak the batcher wait into idle traffic blow
	// through it.
	const p99Bound = 1.0
	if p99 := lat.Quantile(0.99); p99 > p99Bound {
		t.Errorf("p99 localize latency %.4fs, want <= %.1fs", p99, p99Bound)
	}
	if got := reg.Gauge("fttt_serve_queue_depth").Value(); got != 0 {
		t.Errorf("queue depth after wave %v, want 0", got)
	}
}

// TestLoadOverloadSheds drives the overload path over HTTP: the first
// batch is gated so admission fills, and the shed/timeout split is exact —
// QueueLimit admitted requests time out (504), every other request is
// shed with 429 + Retry-After.
func TestLoadOverloadSheds(t *testing.T) {
	const limit = 4
	const timeout = 150 * time.Millisecond
	gate := make(chan struct{})
	entered := make(chan time.Time, 1)
	srv := serve.New(serve.Config{
		QueueLimit: limit,
		MaxBatch:   1, // one request running at the gate, the rest queued
		Hooks: serve.Hooks{BeforeBatch: func(int) {
			entered <- time.Now()
			<-gate
		}},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	// The gated batch's own caller is held in BeforeBatch, so the gate
	// lifts from here: once the limit−1 queued requests have timed out
	// and the held request's own deadline, set before it entered the
	// hook, has passed too.
	timeouts := srv.Registry().Counter("fttt_serve_timeouts_total")
	go func() {
		held := <-entered
		for timeouts.Value() < limit-1 {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(time.Until(held.Add(timeout + 10*time.Millisecond)))
		close(gate)
	}()

	cfg := Config{
		Clients:  limit + 5,
		Requests: 1,
		Seed:     11,
		Session:  testSession(8),
		Timeout:  timeout,
	}
	id, res, err := Run(ts.Client(), ts.URL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.CloseSession(id)

	wantShed := cfg.Clients - limit
	if res.Shed != wantShed || res.Deadline != limit || res.OK != 0 || res.Other != 0 {
		t.Fatalf("outcomes ok=%d shed=%d deadline=%d other=%d, want 0/%d/%d/0 (statuses %v)",
			res.OK, res.Shed, res.Deadline, res.Other, wantShed, limit, res.Statuses)
	}
	if !res.RetryAfter {
		t.Error("a 429 response was missing its Retry-After header")
	}
	reg := srv.Registry()
	if got := reg.Counter("fttt_serve_shed_total").Value(); got != float64(wantShed) {
		t.Errorf("shed counter %v, want %d", got, wantShed)
	}
	if got := reg.Counter("fttt_serve_timeouts_total").Value(); got != float64(limit) {
		t.Errorf("timeout counter %v, want %d", got, limit)
	}
	if res.Statuses[http.StatusTooManyRequests] != wantShed {
		t.Errorf("429 count %d, want %d", res.Statuses[http.StatusTooManyRequests], wantShed)
	}
}

// TestLoadCacheArmedManySessions drives the many-sessions-one-deployment
// shape the field cache exists for: several concurrent waves, each
// creating its own session over the same deployment. The division must
// build exactly once (every later session is a cache hit), and — because
// Expected() computes its reference through an uncached core.NewMulti —
// the byte-identity check proves a cache-hit session answers exactly
// like an uncached build.
func TestLoadCacheArmedManySessions(t *testing.T) {
	srv := serve.New(serve.Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const waves = 4
	var wg sync.WaitGroup
	errs := make([]error, waves)
	for w := 0; w < waves; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cfg := Config{
				Clients:  2,
				Requests: 5,
				Seed:     uint64(100 + w),
				// Distinct session seeds, one deployment: the cache keys on
				// the division spec, not the session.
				Session: testSession(uint64(1000 + w)),
			}
			want, err := cfg.Expected()
			if err != nil {
				errs[w] = err
				return
			}
			id, res, err := Run(ts.Client(), ts.URL, cfg)
			if err != nil {
				errs[w] = err
				return
			}
			defer srv.CloseSession(id)
			total := cfg.Clients * cfg.Requests
			if res.OK != total {
				errs[w] = fmt.Errorf("wave %d: ok=%d shed=%d deadline=%d other=%d, want %d OK (statuses %v)",
					w, res.OK, res.Shed, res.Deadline, res.Other, total, res.Statuses)
				return
			}
			errs[w] = VerifyBodies(res, want)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	reg := srv.Registry()
	if got := reg.Counter("fttt_fieldcache_builds_total").Value(); got != 1 {
		t.Errorf("division builds = %v, want exactly 1 across %d sessions", got, waves)
	}
	if got := reg.Counter("fttt_fieldcache_hits_total").Value(); got != waves-1 {
		t.Errorf("cache hits = %v, want %d", got, waves-1)
	}
	if got := reg.Counter("fttt_fieldcache_misses_total").Value(); got != 1 {
		t.Errorf("cache misses = %v, want 1", got)
	}

	// Cached divisions carry the SoA signature store, so every served
	// localization above must have ridden the batched wave engine — one
	// lane per request, grouped into at least one MatchBatchWeighted wave.
	// (The byte-identity check against the uncached reference already
	// passed, so these counters also certify the wave path answered
	// exactly like serial execution.)
	lanes := reg.Counter("fttt_core_batch_lanes_total").Value()
	if want := float64(waves * 2 * 5); lanes != want {
		t.Errorf("batch lanes = %v, want %v (one per served localization)", lanes, want)
	}
	if got := reg.Counter("fttt_core_batch_waves_total").Value(); got <= 0 || got > lanes {
		t.Errorf("batch waves = %v, want in (0, %v]", got, lanes)
	}
}
