package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"fttt/internal/core"
	"fttt/internal/geom"
	"fttt/internal/randx"
)

// serialReference replays the same per-target request sequences through
// a fresh MultiTracker one request at a time — the unbatched serial
// execution the serving determinism contract is pinned to — and returns
// the marshalled response bytes per target.
func serialReference(t *testing.T, sc SessionConfig, workload map[string][]geom.Point) map[string][][]byte {
	t.Helper()
	cc, err := sc.CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	mt, err := core.NewMulti(cc)
	if err != nil {
		t.Fatal(err)
	}
	root := randx.New(sc.Seed)
	out := make(map[string][][]byte, len(workload))
	for target, positions := range workload {
		for n, pos := range positions {
			ests, err := mt.LocalizeBatch([]core.LocalizeRequest{{
				ID:  target,
				Pos: pos,
				Rng: RequestStream(root, target, uint64(n)),
			}}, 1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(WireEstimate(target, uint64(n), ests[0]))
			if err != nil {
				t.Fatal(err)
			}
			out[target] = append(out[target], b)
		}
	}
	return out
}

// runWorkload drives one goroutine per target against an in-process
// session, each issuing its positions sequentially, and returns the
// marshalled response bytes per target in issue order.
func runWorkload(t *testing.T, srv *Server, sc SessionConfig, workload map[string][]geom.Point) map[string][][]byte {
	t.Helper()
	sess, err := srv.CreateSession(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.CloseSession(sess.ID())
	var mu sync.Mutex
	got := make(map[string][][]byte, len(workload))
	var wg sync.WaitGroup
	errs := make(chan error, len(workload))
	for target, positions := range workload {
		wg.Add(1)
		go func(target string, positions []geom.Point) {
			defer wg.Done()
			for n, pos := range positions {
				res, err := sess.Localize(context.Background(), target, pos)
				if err != nil {
					errs <- fmt.Errorf("%s[%d]: %w", target, n, err)
					return
				}
				if res.Seq != uint64(n) {
					errs <- fmt.Errorf("%s[%d]: seq %d", target, n, res.Seq)
					return
				}
				b, err := json.Marshal(WireEstimate(target, res.Seq, res.Estimate))
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				got[target] = append(got[target], b)
				mu.Unlock()
			}
		}(target, positions)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	return got
}

func mkWorkload(targets, requests int, seed uint64) map[string][]geom.Point {
	rng := randx.New(seed)
	w := make(map[string][]geom.Point, targets)
	for ti := 0; ti < targets; ti++ {
		id := fmt.Sprintf("target-%d", ti)
		tr := rng.SplitN("target", ti)
		pts := make([]geom.Point, requests)
		for n := range pts {
			pts[n] = geom.Pt(tr.Uniform(5, 55), tr.Uniform(5, 55))
		}
		w[id] = pts
	}
	return w
}

// TestBatchedByteIdenticalToSerial is the serving extension of the PR 2
// determinism contract: for any batching configuration (including
// batching disabled) and any goroutine interleaving, the response bytes
// equal unbatched serial execution.
func TestBatchedByteIdenticalToSerial(t *testing.T) {
	sc := testConfig(42)
	workload := mkWorkload(6, 12, 99)
	want := serialReference(t, sc, workload)

	configs := []Config{
		{MaxBatch: 1},  // batching disabled
		{MaxBatch: 4},  // small batches
		{MaxBatch: 32}, // wide batches
		{MaxBatch: 8},  // mid-size batches
		{MaxBatch: 8},  // mid-size batches, another interleaving
	}
	for i, cfg := range configs {
		got := runWorkload(t, New(cfg), sc, workload)
		for target, wantSeq := range want {
			gotSeq := got[target]
			if len(gotSeq) != len(wantSeq) {
				t.Fatalf("config %d %s: %d responses, want %d", i, target, len(gotSeq), len(wantSeq))
			}
			for n := range wantSeq {
				if !bytes.Equal(gotSeq[n], wantSeq[n]) {
					t.Fatalf("config %d %s[%d]:\n got %s\nwant %s",
						i, target, n, gotSeq[n], wantSeq[n])
				}
			}
		}
	}
}

// TestBatcherCoalesces proves concurrent requests actually share
// batches: with clients gated to arrive together, at least one executed
// batch must hold more than one request.
func TestBatcherCoalesces(t *testing.T) {
	var mu sync.Mutex
	var sizes []int
	block := make(chan struct{})
	srv := New(Config{
		MaxBatch: 16,
		Hooks: Hooks{BeforeBatch: func(n int) {
			<-block // hold the first batch until all clients queued
			mu.Lock()
			sizes = append(sizes, n)
			mu.Unlock()
		}},
	})
	sess, err := srv.CreateSession(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	const clients = 8
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := sess.Localize(context.Background(),
				fmt.Sprintf("t%d", i), geom.Pt(30, 30)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	// Wait until every client is admitted, then release the batcher.
	for start := time.Now(); sess.inflight.Load() < clients; {
		if time.Since(start) > 5*time.Second {
			t.Fatal("clients never queued")
		}
		time.Sleep(time.Millisecond)
	}
	close(block)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	max := 0
	for _, n := range sizes {
		if n > max {
			max = n
		}
	}
	if max < 2 {
		t.Fatalf("no coalescing observed: batch sizes %v", sizes)
	}
}

// TestAdmissionControl pins the load-shedding mechanics: with the
// first batch gated, exactly QueueLimit requests are admitted and the
// rest are shed with ErrOverloaded; queued requests past their deadline
// are answered ErrDeadline and skipped, and the caller held at the gate
// answers ErrDeadline after its batch.
func TestAdmissionControl(t *testing.T) {
	const limit = 4
	const timeout = 200 * time.Millisecond
	gate := make(chan struct{})
	entered := make(chan time.Time, 1)
	srv := New(Config{
		QueueLimit: limit,
		MaxBatch:   1, // execute one by one so the gate holds the queue
		Hooks: Hooks{BeforeBatch: func(int) {
			entered <- time.Now()
			<-gate
		}},
	})
	sess, err := srv.CreateSession(testConfig(8))
	if err != nil {
		t.Fatal(err)
	}

	// The gated batch's own caller is held in BeforeBatch, so the gate
	// lifts from here: once the limit−1 queued requests have timed out
	// and the held caller's own deadline, set before it entered the
	// hook, has passed too.
	go func() {
		held := <-entered
		for srv.met.timeouts.Value() < limit-1 {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(time.Until(held.Add(timeout + 10*time.Millisecond)))
		close(gate)
	}()

	const total = limit + 5
	errsCh := make(chan error, total)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			_, err := sess.Localize(ctx, fmt.Sprintf("t%d", i), geom.Pt(20, 20))
			errsCh <- err
		}(i)
	}
	wg.Wait()
	close(errsCh)
	var shed, deadline, other int
	for err := range errsCh {
		switch err {
		case ErrOverloaded:
			shed++
		case ErrDeadline:
			deadline++
		default:
			other++
		}
	}
	// The first caller holds at the gate running its own batch; it and
	// the queued requests fill the admission limit (then time out), the
	// rest shed.
	if shed != total-limit {
		t.Errorf("shed %d requests, want %d", shed, total-limit)
	}
	if deadline != limit {
		t.Errorf("%d deadline errors, want %d", deadline, limit)
	}
	if other != 0 {
		t.Errorf("%d unexpected outcomes", other)
	}
	if got := srv.met.shed.Value(); got != float64(total-limit) {
		t.Errorf("shed counter %v, want %d", got, total-limit)
	}
	if got := srv.met.timeouts.Value(); got != float64(limit) {
		t.Errorf("timeout counter %v, want %d", got, limit)
	}
	srv.CloseSession(sess.ID())
	if got := srv.met.queueDepth.Value(); got != 0 {
		t.Errorf("queue depth after teardown %v, want 0", got)
	}
}
