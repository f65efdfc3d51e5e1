package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clientConns is the number of client connections per listener. The
// machine the benchmark was sized on has 2 CPUs; more connections would
// measure the scheduler rather than the program.
const clientConns = 2

// listener is one loopback HTTP server the benchmark started.
type listener struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &listener{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.srv.Serve(ln) //nolint:errcheck // always ErrServerClosed after close
	}()
	return l, nil
}

// close stops the listener and waits for its serve loop to exit.
func (l *listener) close() {
	l.srv.Close()
	<-l.done
}

// opHeader names a request of a traced HTTP pass for the handlerClock.
// The serve and cluster handlers ignore it.
const opHeader = "X-Svcbench-Op"

func opTag(client, j int) string { return strconv.Itoa(client) + "/" + strconv.Itoa(j) }

// handlerClock wraps a server's handler and records, for each named
// request, how long it spent inside the handler and how much of that
// came before the handler wrote the response header (routing, decode and
// the session call; the rest is encoding and writing the body). A traced
// HTTP pass goes through one, so that a request's HTTP-side time is its
// own round trip minus its own handler time, both measured on the same
// execution.
type handlerClock struct {
	h  http.Handler
	mu sync.Mutex
	d  map[string]handlerTime
}

type handlerTime struct{ total, header time.Duration }

func newHandlerClock(h http.Handler) *handlerClock {
	return &handlerClock{h: h, d: make(map[string]handlerTime)}
}

// headerClock notes when the handler writes the response header.
type headerClock struct {
	http.ResponseWriter
	at time.Time
}

func (hw *headerClock) WriteHeader(code int) {
	if hw.at.IsZero() {
		hw.at = time.Now()
	}
	hw.ResponseWriter.WriteHeader(code)
}

func (hw *headerClock) Write(b []byte) (int, error) {
	if hw.at.IsZero() {
		hw.at = time.Now()
	}
	return hw.ResponseWriter.Write(b)
}

func (hc *handlerClock) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	op := r.Header.Get(opHeader)
	if op == "" {
		hc.h.ServeHTTP(w, r)
		return
	}
	hw := &headerClock{ResponseWriter: w}
	t := time.Now()
	hc.h.ServeHTTP(hw, r)
	ht := handlerTime{total: time.Since(t), header: hw.at.Sub(t)}
	hc.mu.Lock()
	hc.d[op] = ht
	hc.mu.Unlock()
}

// of returns the handler times of the request named op.
func (hc *handlerClock) of(op string) (handlerTime, error) {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	d, ok := hc.d[op]
	if !ok {
		return d, fmt.Errorf("no handler time recorded for request %s", op)
	}
	return d, nil
}

// newClient returns an HTTP client that opens at most clientConns
// connections to any one listener.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clientConns,
		MaxIdleConnsPerHost: clientConns,
		DisableCompression:  true,
	}}
}

// call issues one request and returns the status and the whole body.
func call(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	return callOp(c, method, url, body, "")
}

// callOp is call with the request named op in the opHeader, unless op is
// empty.
func callOp(c *http.Client, method, url string, body []byte, op string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if op != "" {
		req.Header.Set(opHeader, op)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// scrape reads a /metrics page into name{labels} → value.
func scrape(c *http.Client, base string) (map[string]float64, error) {
	st, body, err := call(c, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	if st != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", base, st)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sumPrefix sums every series whose key starts with prefix.
func sumPrefix(m map[string]float64, prefix string) float64 {
	var s float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is left as it is.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// windows is how many equal windows of a timed phase throughput and
// CPU cost are taken in; the reported rate is their median, so that one
// window holding a burst of machine noise does not decide the run.
const windows = 40

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuClock samples the process's CPU time at each window boundary of a
// timed phase that starts at start and lasts span. marks waits for the
// last boundary and returns the windows+1 samples.
func cpuClock(start time.Time, span time.Duration) (marks func() []time.Duration) {
	out := make([]time.Duration, windows+1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range out {
			time.Sleep(time.Until(start.Add(span * time.Duration(i) / windows)))
			out[i] = cpuTime()
		}
	}()
	return func() []time.Duration {
		<-done
		return out
	}
}

// windowedRate returns the median over windows of the completions per
// second and of the CPU time per completion, given each completion's
// offset (seconds) into a phase of span seconds and the CPU marks of
// cpuClock. Completions after the phase are not counted.
func windowedRate(done []float64, cpu []time.Duration, span float64) (opsPerS, cpuUsPerOp float64, n int) {
	counts := make([]int, windows)
	for _, d := range done {
		if w := int(d / span * windows); w >= 0 && w < windows {
			counts[w]++
			n++
		}
	}
	var rates, costs []float64
	for w, c := range counts {
		if c > 0 {
			rates = append(rates, float64(c)/(span/windows))
			costs = append(costs, us(cpu[w+1]-cpu[w])/float64(c))
		}
	}
	return median(rates), median(costs), n
}

// heapWatch samples the live Go heap every few milliseconds and keeps
// the peak; stop ends the sampling and returns the peak in bytes.
func heapWatch() (stop func() float64) {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	done := make(chan struct{})
	var wg sync.WaitGroup
	var peak uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-tick.C:
			case <-done:
				return
			}
		}
	}()
	return func() float64 {
		close(done)
		wg.Wait()
		return float64(peak)
	}
}

// arena stores response bodies outside the Go heap, so that keeping
// every body for the byte-for-byte check does not inflate the heap
// metric. One arena belongs to one goroutine.
type arena struct {
	mem []byte
	off int
}

// bodyRef locates one stored body.
type bodyRef struct{ off, n int }

// arenaSize is the virtual size of one arena; only the pages written are
// ever backed by memory.
const arenaSize = 1 << 30

func newArena() (*arena, error) {
	mem, err := syscall.Mmap(-1, 0, arenaSize, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, fmt.Errorf("arena: %w", err)
	}
	return &arena{mem: mem}, nil
}

func (a *arena) put(b []byte) (bodyRef, error) {
	b = bytes.TrimSpace(b)
	if a.off+len(b) > len(a.mem) {
		return bodyRef{}, fmt.Errorf("arena full after %d bytes", a.off)
	}
	copy(a.mem[a.off:], b)
	r := bodyRef{a.off, len(b)}
	a.off += len(b)
	return r, nil
}

func (a *arena) get(r bodyRef) []byte { return a.mem[r.off : r.off+r.n] }

func (a *arena) free() { syscall.Munmap(a.mem) } //nolint:errcheck // process-private mapping
