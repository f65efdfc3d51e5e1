package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fttt/internal/obs"
	"fttt/internal/serve"
)

// TestPlaceGoldenVectors pins the placement function. These vectors
// are the cross-replica contract: every router build must agree on
// them, so a change here is a cluster-wide reshuffle, not a refactor.
func TestPlaceGoldenVectors(t *testing.T) {
	three := []string{"b1", "b2", "b3"}
	vectors := []struct {
		id, want string
	}{
		{"c1", "b2"},
		{"c2", "b3"},
		{"c3", "b2"},
		{"c4", "b3"},
		{"c5", "b2"},
		{"c6", "b2"},
		{"c7", "b1"},
		{"c8", "b2"},
		{"s1", "b2"},
		{"session-42", "b1"},
	}
	for _, v := range vectors {
		if got := Place(v.id, three); got != v.want {
			t.Errorf("Place(%q, b1..b3) = %q, want %q", v.id, got, v.want)
		}
	}
	two := []string{"b1", "b3"} // b2 drained
	vectors2 := []struct {
		id, want string
	}{
		{"c1", "b1"}, {"c2", "b3"}, {"c3", "b3"}, {"c4", "b3"},
		{"c5", "b1"}, {"c6", "b3"}, {"c7", "b1"}, {"c8", "b1"},
	}
	for _, v := range vectors2 {
		if got := Place(v.id, two); got != v.want {
			t.Errorf("Place(%q, b1,b3) = %q, want %q", v.id, got, v.want)
		}
	}
	named := []string{"alpha", "bravo", "charlie", "delta"}
	for _, v := range []struct{ id, want string }{
		{"c1", "bravo"}, {"t-9", "alpha"}, {"zz", "charlie"},
	} {
		if got := Place(v.id, named); got != v.want {
			t.Errorf("Place(%q, named) = %q, want %q", v.id, got, v.want)
		}
	}
	if got := Place("anything", nil); got != "" {
		t.Errorf("Place over no backends = %q, want empty", got)
	}
}

// TestPlaceProperties checks the rendezvous invariants Place is chosen
// for: member-list order independence, minimal disruption on member
// removal (only the removed member's sessions move), and rough balance
// (no member starves — this is what the score finalizer buys).
func TestPlaceProperties(t *testing.T) {
	members := []string{"b1", "b2", "b3"}
	const n = 3000
	counts := map[string]int{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("c%d", i)
		owner := Place(id, members)
		counts[owner]++

		shuffled := append([]string(nil), members...)
		rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
		if got := Place(id, shuffled); got != owner {
			t.Fatalf("Place(%q) order-dependent: %q vs %q", id, owner, got)
		}

		survivors := []string{"b1", "b3"}
		after := Place(id, survivors)
		if owner != "b2" && after != owner {
			t.Fatalf("removing b2 moved %q: %q -> %q", id, owner, after)
		}
		if owner == "b2" && after == "b2" {
			t.Fatalf("Place(%q) returned removed member", id)
		}
	}
	for _, m := range members {
		if counts[m] < n/5 {
			t.Errorf("member %s owns %d of %d sessions — placement skewed (%v)", m, counts[m], n, counts)
		}
	}
}

// --- end-to-end fixtures ---

// testBackend is one in-process serve backend behind a real listener.
type testBackend struct {
	name string
	srv  *serve.Server
	ts   *httptest.Server
}

func startBackends(t *testing.T, names ...string) []*testBackend {
	t.Helper()
	var out []*testBackend
	for _, name := range names {
		srv := serve.New(serve.Config{})
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		out = append(out, &testBackend{name: name, srv: srv, ts: ts})
	}
	return out
}

func startRouter(t *testing.T, backends []*testBackend, healthInterval time.Duration) (*Router, *httptest.Server) {
	t.Helper()
	members := make([]Backend, len(backends))
	for i, b := range backends {
		members[i] = Backend{Name: b.name, URL: b.ts.URL}
	}
	rt, err := New(Config{Backends: members, HealthInterval: healthInterval, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)
	return rt, ts
}

var testSessionBody = `{"seed":42,"field":{"min":{"x":0,"y":0},"max":{"x":60,"y":60}},"gridNodes":9,"cellSize":3}`

func createSession(t *testing.T, client *http.Client, baseURL string) string {
	t.Helper()
	resp, err := client.Post(baseURL+"/v1/sessions", "application/json", strings.NewReader(testSessionBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d: %s", resp.StatusCode, b)
	}
	var sw struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &sw); err != nil {
		t.Fatal(err)
	}
	return sw.ID
}

func localize(t *testing.T, client *http.Client, baseURL, id, target string, x, y float64) serve.EstimateWire {
	t.Helper()
	body := fmt.Sprintf(`{"target":%q,"x":%g,"y":%g}`, target, x, y)
	resp, err := client.Post(baseURL+"/v1/sessions/"+id+"/localize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("localize %s/%s: status %d: %s", id, target, resp.StatusCode, b)
	}
	var ew serve.EstimateWire
	if err := json.Unmarshal(b, &ew); err != nil {
		t.Fatal(err)
	}
	return ew
}

// TestRouterEndToEnd drives the proxy path: sessions created through
// the router land on their hash owner with the router-assigned ID,
// localizes route to the owner, the merged list is sorted and
// complete, and the router metrics endpoint exposes the per-backend
// counters.
func TestRouterEndToEnd(t *testing.T) {
	backends := startBackends(t, "b1", "b2", "b3")
	rt, ts := startRouter(t, backends, 0)
	client := ts.Client()

	const sessions = 6
	byBackend := map[string]int{}
	for i := 0; i < sessions; i++ {
		id := createSession(t, client, ts.URL)
		want := fmt.Sprintf("c%d", i+1)
		if id != want {
			t.Fatalf("router-assigned ID %q, want %q", id, want)
		}
		byBackend[Place(id, []string{"b1", "b2", "b3"})]++
		ew := localize(t, client, ts.URL, id, "tgt", 30, 30)
		if ew.Target != "tgt" || ew.Seq != 0 {
			t.Fatalf("localize through router: %+v", ew)
		}
	}
	// Each backend holds exactly the sessions the placement function
	// assigns it.
	for _, b := range backends {
		if got := b.srv.SessionCount(); got != byBackend[b.name] {
			t.Errorf("%s holds %d sessions, placement says %d", b.name, got, byBackend[b.name])
		}
	}

	// Merged list: every session exactly once, sorted by ID.
	resp, err := client.Get(ts.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var list []struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != sessions {
		t.Fatalf("merged list has %d sessions, want %d", len(list), sessions)
	}
	for i := 1; i < len(list); i++ {
		if list[i-1].ID >= list[i].ID {
			t.Fatalf("merged list not sorted: %q before %q", list[i-1].ID, list[i].ID)
		}
	}

	// Unknown routes under a session still proxy (404 from the backend,
	// not the router).
	resp, err = client.Get(ts.URL + "/v1/sessions/c1/estimates/tgt")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()

	counts, err := rt.SessionCounts(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range backends {
		if counts[b.name] != byBackend[b.name] {
			t.Errorf("SessionCounts[%s] = %d, want %d", b.name, counts[b.name], byBackend[b.name])
		}
	}

	// Router metrics: per-backend request counters present and the
	// session gauges refreshed by SessionCounts.
	resp, err = client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`fttt_router_requests_total{backend="b1"}`,
		`fttt_router_sessions{backend="b2"}`,
		"fttt_router_backends 3",
	} {
		if !bytes.Contains(mb, []byte(want)) {
			t.Errorf("router /metrics missing %q", want)
		}
	}
}

// TestRouterSSEStream proves estimate streams survive the proxy hop:
// an SSE subscription through the router sees events flushed through
// as they happen (the proxy flushes text/event-stream on every write),
// not buffered until close.
func TestRouterSSEStream(t *testing.T) {
	backends := startBackends(t, "b1", "b2")
	_, ts := startRouter(t, backends, 0)
	client := ts.Client()
	id := createSession(t, client, ts.URL)

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/sessions/"+id+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := client.Do(req.WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("stream content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no stream preamble: %v", sc.Err())
	}
	if got := sc.Text(); !strings.Contains(got, id) {
		t.Fatalf("stream preamble %q does not name session %s", got, id)
	}

	localize(t, client, ts.URL, id, "tgt", 25, 25)
	deadline := time.Now().Add(5 * time.Second)
	var sawEvent bool
	for !sawEvent && time.Now().Before(deadline) && sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data:") {
			sawEvent = true
		}
	}
	if !sawEvent {
		t.Fatalf("no SSE estimate event arrived through the router (scan err %v)", sc.Err())
	}
}

// TestMigrateMovesOnlyDrainedSessions is the rebalance contract:
// draining b2 moves exactly b2's sessions, each lands on its successor
// under the shrunken member set, continues its seq sequence, and the
// survivors' sessions never move.
func TestMigrateMovesOnlyDrainedSessions(t *testing.T) {
	backends := startBackends(t, "b1", "b2", "b3")
	rt, ts := startRouter(t, backends, 0)
	client := ts.Client()
	ctx := context.Background()

	const sessions = 8
	owners := map[string]string{}
	for i := 0; i < sessions; i++ {
		id := createSession(t, client, ts.URL)
		owners[id] = Place(id, []string{"b1", "b2", "b3"})
		localize(t, client, ts.URL, id, "tgt", 20, 20) // seq 0 pre-drain
	}
	b2sessions := 0
	for _, owner := range owners {
		if owner == "b2" {
			b2sessions++
		}
	}
	if b2sessions == 0 {
		t.Fatal("fixture degenerate: no sessions on b2")
	}
	var b2 *testBackend
	for _, b := range backends {
		if b.name == "b2" {
			b2 = b
		}
	}

	if err := b2.srv.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	moved, err := rt.Migrate(ctx, "b2")
	if err != nil {
		t.Fatal(err)
	}
	if moved != b2sessions {
		t.Fatalf("migrated %d sessions, want %d (exactly b2's)", moved, b2sessions)
	}
	if got := b2.srv.SessionCount(); got != 0 {
		t.Fatalf("b2 still holds %d sessions after migration", got)
	}

	// Exact post-drain layout: survivors keep theirs, b2's land on their
	// new rendezvous owner.
	wantCounts := map[string]int{}
	for id, owner := range owners {
		if owner == "b2" {
			owner = Place(id, []string{"b1", "b3"})
		}
		wantCounts[owner]++
	}
	counts, err := rt.SessionCounts(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"b1", "b2", "b3"} {
		if counts[name] != wantCounts[name] {
			t.Errorf("post-drain %s holds %d sessions, want %d", name, counts[name], wantCounts[name])
		}
	}

	// Every session — migrated or not — still answers through the
	// router, and migrated ones continue their per-target sequence.
	for id := range owners {
		ew := localize(t, client, ts.URL, id, "tgt", 21, 21)
		if ew.Seq != 1 {
			t.Fatalf("session %s: post-drain seq %d, want 1", id, ew.Seq)
		}
	}
	if got := rt.met.migrations.Value(); got != float64(b2sessions) {
		t.Errorf("migrations counter %v, want %d", got, b2sessions)
	}
	if got := rt.met.migrationErrors.Value(); got != 0 {
		t.Errorf("migration errors counter %v, want 0", got)
	}
	if got := len(rt.ActiveBackends()); got != 2 {
		t.Errorf("active backends %d, want 2", got)
	}
}

// TestProberMigratesDrainingBackend covers the autonomous path: a
// backend whose /healthz turns 503 (SIGTERM + -migrate-grace) is
// noticed by the router's health prober and emptied without any
// operator call.
func TestProberMigratesDrainingBackend(t *testing.T) {
	backends := startBackends(t, "b1", "b2")
	_, ts := startRouter(t, backends, 20*time.Millisecond)
	client := ts.Client()

	var ids []string
	for i := 0; i < 4; i++ {
		ids = append(ids, createSession(t, client, ts.URL))
	}
	drained := backends[0]
	if err := drained.srv.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := drained.srv.WaitEmpty(wctx); err != nil {
		t.Fatalf("prober never migrated %s's sessions off: %v", drained.name, err)
	}
	for _, id := range ids {
		localize(t, client, ts.URL, id, "tgt", 30, 30)
	}
}

// TestRouterConfigRejects pins constructor validation.
func TestRouterConfigRejects(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty backend list accepted")
	}
	if _, err := New(Config{Backends: []Backend{{Name: "a"}}}); err == nil {
		t.Error("backend without URL accepted")
	}
	if _, err := New(Config{Backends: []Backend{
		{Name: "a", URL: "http://x"}, {Name: "a", URL: "http://y"},
	}}); err == nil {
		t.Error("duplicate backend name accepted")
	}
	if _, err := New(Config{Backends: []Backend{{Name: "a", URL: "://bad"}}}); err == nil {
		t.Error("unparseable backend URL accepted")
	}
}
