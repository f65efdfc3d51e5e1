package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fttt/internal/fieldcache"
	"fttt/internal/geom"
)

// TestHandoffStress races the executor handoff against cancellation and
// teardown: many goroutines over a few targets, deadlines that are
// already past at submit or fire mid-wait (so promotion races the
// promoted caller's own timeout), a small admission limit, and — in the
// close cases — a session torn down mid-stream. Every call must return,
// the session must quiesce (no in-flight request, queue depth 0, Export
// succeeds on a live session), and every successful response must be
// byte-identical to serial execution for its (target, seq).
func TestHandoffStress(t *testing.T) {
	sc := testConfig(17)
	// Exhaustive matching makes every estimate independent of the
	// target's history, so requests skipped on a deadline cannot shift
	// the bytes of later ones and the serial reference stays exact.
	sc.Exhaustive = true
	targets := []string{"a", "b", "c"}
	pos := map[string]geom.Point{"a": geom.Pt(12, 40), "b": geom.Pt(30, 30), "c": geom.Pt(48, 15)}

	for _, maxBatch := range []int{1, 3, 16} {
		for _, closeMid := range []bool{false, true} {
			t.Run(fmt.Sprintf("batch%d/close=%v", maxBatch, closeMid), func(t *testing.T) {
				srv := New(Config{MaxBatch: maxBatch, QueueLimit: 10})
				sess, err := srv.CreateSession(sc)
				if err != nil {
					t.Fatal(err)
				}
				defer srv.CloseSession(sess.ID())

				const workers, perWorker = 12, 40
				type answer struct {
					target string
					res    Result
				}
				var mu sync.Mutex
				var answers []answer
				var calls, deadlines, shed, closed atomic.Int64
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(100*maxBatch + w)))
						for i := 0; i < perWorker; i++ {
							target := targets[rng.Intn(len(targets))]
							ctx, cancel := context.Background(), context.CancelFunc(func() {})
							switch rng.Intn(4) {
							case 0: // expired before submit
								ctx, cancel = context.WithDeadline(ctx, time.Now().Add(-time.Millisecond))
							case 1: // fires while queued, leading or promoted
								ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(300))*time.Microsecond)
							}
							res, err := sess.Localize(ctx, target, pos[target])
							cancel()
							calls.Add(1)
							switch err {
							case nil:
								mu.Lock()
								answers = append(answers, answer{target, res})
								mu.Unlock()
							case ErrDeadline:
								deadlines.Add(1)
							case ErrOverloaded:
								shed.Add(1)
							case ErrSessionClosed:
								closed.Add(1)
								if !closeMid {
									t.Errorf("%s: ErrSessionClosed on a live session", target)
								}
							default:
								t.Errorf("%s: unexpected error %v", target, err)
							}
						}
					}(w)
				}
				if closeMid {
					go func() {
						for calls.Load() < workers*perWorker*2/3 {
							time.Sleep(100 * time.Microsecond)
						}
						srv.CloseSession(sess.ID())
					}()
				}
				returned := make(chan struct{})
				go func() { wg.Wait(); close(returned) }()
				select {
				case <-returned:
				case <-time.After(60 * time.Second):
					t.Fatal("calls did not return: the executor role was lost")
				}

				if n := sess.inflight.Load(); n != 0 {
					t.Errorf("inflight = %d after every call returned, want 0", n)
				}
				if d := srv.met.queueDepth.Value(); d != 0 {
					t.Errorf("queue depth = %v after every call returned, want 0", d)
				}
				if !closeMid {
					if _, err := sess.Export(); err != nil {
						t.Errorf("Export after the stream: %v", err)
					}
				}
				t.Logf("ok %d, deadline %d, shed %d, closed %d", len(answers), deadlines.Load(), shed.Load(), closed.Load())
				if !closeMid && len(answers) == 0 {
					t.Fatal("no request succeeded")
				}

				workload := make(map[string][]geom.Point, len(targets))
				for _, a := range answers {
					for uint64(len(workload[a.target])) <= a.res.Seq {
						workload[a.target] = append(workload[a.target], pos[a.target])
					}
				}
				want := serialReference(t, sc, workload)
				for _, a := range answers {
					got, err := json.Marshal(WireEstimate(a.target, a.res.Seq, a.res.Estimate))
					if err != nil {
						t.Fatal(err)
					}
					if w := want[a.target][a.res.Seq]; !bytes.Equal(got, w) {
						t.Fatalf("%s[%d]:\n got %s\nwant %s", a.target, a.res.Seq, got, w)
					}
				}
			})
		}
	}
}

// TestCloseWhileLeading pins teardown against a running batch: close
// waits for the batch a caller is running, that caller gets its
// estimate, every request queued behind it is answered ErrSessionClosed,
// and the session's division is released only after the batch.
func TestCloseWhileLeading(t *testing.T) {
	// With MaxEntries 1 and a second session pinning another deployment,
	// the first session's entry is evicted as soon as close releases it.
	fc, err := fieldcache.New(fieldcache.Config{MaxEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	srv := New(Config{FieldCache: fc, MaxBatch: 1, Hooks: Hooks{BeforeBatch: func(int) {
		once.Do(func() { close(entered); <-gate })
	}}})
	sess, err := srv.CreateSession(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	other := testConfig(2)
	other.GridNodes = 4
	pin, err := srv.CreateSession(other)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.CloseSession(pin.ID())

	leader := make(chan error, 1)
	go func() {
		_, err := sess.Localize(context.Background(), "t", geom.Pt(20, 20))
		leader <- err
	}()
	<-entered
	const queued = 3
	followers := make(chan error, queued)
	for i := 0; i < queued; i++ {
		go func(i int) {
			_, err := sess.Localize(context.Background(), fmt.Sprintf("q%d", i), geom.Pt(30, 30))
			followers <- err
		}(i)
	}
	for start := time.Now(); sess.inflight.Load() < 1+queued; {
		if time.Since(start) > 5*time.Second {
			t.Fatal("followers never queued")
		}
		time.Sleep(time.Millisecond)
	}

	closed := make(chan struct{})
	go func() {
		srv.CloseSession(sess.ID())
		close(closed)
	}()
	for start := time.Now(); ; time.Sleep(time.Millisecond) {
		sess.mu.Lock()
		c := sess.closed
		sess.mu.Unlock()
		if c {
			break
		}
		if time.Since(start) > 5*time.Second {
			t.Fatal("close never began")
		}
	}
	select {
	case <-closed:
		t.Fatal("close returned while a batch was running")
	default:
	}
	if fc.Len() != 2 {
		t.Fatalf("fieldcache Len = %d mid-batch, want 2: the division was released under a running batch", fc.Len())
	}

	close(gate)
	if err := <-leader; err != nil {
		t.Fatalf("leading caller: %v, want its estimate", err)
	}
	for i := 0; i < queued; i++ {
		if err := <-followers; err != ErrSessionClosed {
			t.Errorf("queued caller: %v, want ErrSessionClosed", err)
		}
	}
	<-closed
	if fc.Len() != 1 {
		t.Errorf("fieldcache Len = %d after close, want 1 (released entry evicted)", fc.Len())
	}
	if n := sess.inflight.Load(); n != 0 {
		t.Errorf("inflight = %d after close, want 0", n)
	}
	if d := srv.met.queueDepth.Value(); d != 0 {
		t.Errorf("queue depth = %v after close, want 0", d)
	}
}
