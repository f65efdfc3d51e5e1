package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"fttt/internal/faults"
	"fttt/internal/field"
	"fttt/internal/geom"
	"fttt/internal/match"
	"fttt/internal/obs"
	"fttt/internal/randx"
	"fttt/internal/sampling"
	"fttt/internal/vector"
)

// MultiTracker tracks several targets over one shared field division —
// the natural extension of FTTT to the multi-target setting when targets
// emit distinguishable signals (the outdoor system's fixed-frequency
// resonator generalises to one frequency per target, so sensors report
// per-target RSS separately). Each target keeps its own warm-start face;
// the expensive preprocessing (Sec. 4.3) is shared.
//
// A MultiTracker is safe for concurrent use: the target table is
// mutex-protected and each target's localizations are serialized on a
// per-target lock, so goroutines localizing distinct targets proceed in
// parallel while the shared Division is only ever read. LocalizeAll and
// LocalizeGroups fan a whole batch across a worker pool.
type MultiTracker struct {
	base   Config
	shared *Tracker // owns the division

	mu      sync.RWMutex
	targets map[string]*targetState

	// batchMu serializes the batched localization path: the engine below
	// holds every participating target's lock for the whole batch, and
	// one-at-a-time batches keep the multi-lock acquisition trivially
	// deadlock-free. It also guards the wave scratch.
	batchMu   sync.Mutex
	bm        *match.Batch
	pend      []batchPending
	laneVs    []vector.Vector
	lanePrevs []*field.Face
	laneWs    [][]float64
	laneRes   []match.Result
	metrics   *multiMetrics
}

// multiMetrics counts the batch engine's wave structure; resolved once
// in NewMulti like the tracker metrics.
type multiMetrics struct {
	waves *obs.Counter
	lanes *obs.Counter
}

// targetState is one target's tracker plus the lock serializing its
// localizations (Tracker is single-goroutine: warm-start face and matcher
// scratch).
type targetState struct {
	mu sync.Mutex
	tr *Tracker
}

// NewMulti preprocesses the division once and returns an empty
// multi-target tracker; targets are added lazily on first localization.
func NewMulti(cfg Config) (*MultiTracker, error) {
	shared, err := New(cfg)
	if err != nil {
		return nil, err
	}
	m := &MultiTracker{
		base:    cfg,
		shared:  shared,
		targets: make(map[string]*targetState),
	}
	if cfg.Obs != nil {
		m.metrics = &multiMetrics{
			waves: cfg.Obs.Counter("fttt_core_batch_waves_total"),
			lanes: cfg.Obs.Counter("fttt_core_batch_lanes_total"),
		}
	}
	return m, nil
}

// Targets returns the known target IDs in sorted order.
func (m *MultiTracker) Targets() []string {
	m.mu.RLock()
	ids := make([]string, 0, len(m.targets))
	for id := range m.targets {
		ids = append(ids, id)
	}
	m.mu.RUnlock()
	sort.Strings(ids)
	return ids
}

// target returns (creating if needed) the per-target state.
func (m *MultiTracker) target(targetID string) (*targetState, error) {
	if targetID == "" {
		return nil, fmt.Errorf("core: empty target ID")
	}
	m.mu.RLock()
	ts, ok := m.targets[targetID]
	m.mu.RUnlock()
	if ok {
		return ts, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if ts, ok = m.targets[targetID]; ok { // lost the create race
		return ts, nil
	}
	tr, err := NewWithDivision(m.base, m.shared.Division())
	if err != nil {
		return nil, err
	}
	ts = &targetState{tr: tr}
	m.targets[targetID] = ts
	return ts, nil
}

// LocalizeGroup matches one target's grouping sampling, warm-starting
// from that target's previous face. Calls for distinct targets may run
// concurrently; calls for the same target serialize.
func (m *MultiTracker) LocalizeGroup(targetID string, g *sampling.Group) (Estimate, error) {
	ts, err := m.target(targetID)
	if err != nil {
		return Estimate{}, err
	}
	ts.mu.Lock()
	est := ts.tr.LocalizeGroup(g)
	ts.mu.Unlock()
	return est, nil
}

// TargetPosition names one target's true position for a batch
// localization round.
type TargetPosition struct {
	ID  string
	Pos geom.Point
}

// TargetGroup names one target's externally collected grouping sampling
// for a batch localization round.
type TargetGroup struct {
	ID    string
	Group *sampling.Group
}

// LocalizeAll samples and localizes every target of the batch, fanning
// the work across a pool of workers (≤ 0 selects runtime.NumCPU(); 1 is
// serial). Target i draws its sampling noise from the substream
// rng.Split(batch[i].ID), so the estimates are identical for every worker
// count and schedule — and identical to localizing each target alone with
// the same substream. IDs should be unique within one batch; duplicates
// are localized serially in unspecified relative order.
func (m *MultiTracker) LocalizeAll(batch []TargetPosition, rng *randx.Stream, workers int) (map[string]Estimate, error) {
	states := make([]*targetState, len(batch))
	streams := make([]*randx.Stream, len(batch))
	for i, tp := range batch {
		ts, err := m.target(tp.ID)
		if err != nil {
			return nil, err
		}
		states[i] = ts
		streams[i] = rng.Split(tp.ID)
	}
	ests := make([]Estimate, len(batch))
	fanOut(len(batch), workers, func(i int) {
		ts := states[i]
		ts.mu.Lock()
		ests[i] = ts.tr.Localize(batch[i].Pos, streams[i])
		ts.mu.Unlock()
	})
	out := make(map[string]Estimate, len(batch))
	for i, tp := range batch {
		out[tp.ID] = ests[i]
	}
	return out, nil
}

// LocalizeGroups is LocalizeAll for externally collected grouping
// samplings (the wsnnet path): each target's group is matched on a worker
// from the pool, warm-starting from that target's previous face.
func (m *MultiTracker) LocalizeGroups(batch []TargetGroup, workers int) (map[string]Estimate, error) {
	states := make([]*targetState, len(batch))
	for i, tg := range batch {
		ts, err := m.target(tg.ID)
		if err != nil {
			return nil, err
		}
		states[i] = ts
	}
	ests := make([]Estimate, len(batch))
	fanOut(len(batch), workers, func(i int) {
		ts := states[i]
		ts.mu.Lock()
		ests[i] = ts.tr.LocalizeGroup(batch[i].Group)
		ts.mu.Unlock()
	})
	out := make(map[string]Estimate, len(batch))
	for i, tg := range batch {
		out[tg.ID] = ests[i]
	}
	return out, nil
}

// LocalizeRequest is one entry of a heterogeneous LocalizeBatch round:
// a target ID plus either an externally collected grouping sampling
// (Group non-nil) or a true position to sample, with the request's own
// noise substream. Unlike LocalizeAll, requests carry explicit streams,
// so the same target may appear several times in one batch — its
// requests execute serially in slice order, which is what a serving
// batcher needs to keep batched execution byte-identical to serial.
type LocalizeRequest struct {
	// ID names the target; must be non-empty.
	ID string
	// Group, when non-nil, is matched directly (the report-ingestion
	// path); Pos and Rng are ignored.
	Group *sampling.Group
	// Pos is the true target position to sample when Group is nil.
	Pos geom.Point
	// Rng drives the sampling noise when Group is nil; required then.
	Rng *randx.Stream
	// Span, when valid, is the request's trace context: the round span
	// parents under it and the batch span links to it, so one serving
	// request yields a full causal tree (DESIGN.md §12). Zero is fine —
	// the round then starts its own trace (or none, with no recorder).
	Span obs.SpanRef
}

// LocalizeBatch localizes a heterogeneous batch of requests. Request
// i's estimate lands in slot i of the result; requests for the same
// target execute serially in slice order. Because each request consumes
// only its own stream and per-target order is preserved, the results
// are byte-identical for every worker count and batch split — equal to
// executing the requests one at a time in slice order. This is the
// primitive the serving micro-batcher (internal/serve) coalesces
// concurrent localize calls into.
//
// When the configured matcher has a batch equivalent (every config
// except TopM > 0, a weighted estimator the batch kernel does not
// replicate), the batch executes as waves: one pending request per
// target per wave runs its sampling, then a single match.Batch pass
// scores every wave lane's first match against the SoA store —
// bitwise-identical to the per-lane serial matcher by the batch
// kernel's differential contract — and each lane then completes its
// round (degradation retries use the lane's own serial matcher).
// Otherwise distinct targets fan across a pool of workers (≤ 0 selects
// runtime.NumCPU(); 1 is serial) exactly as before; workers is ignored
// on the wave path.
func (m *MultiTracker) LocalizeBatch(reqs []LocalizeRequest, workers int) ([]Estimate, error) {
	bi := batchIndexPool.Get().(*batchIndex)
	defer bi.release()
	for i, r := range reqs {
		if r.Group == nil && r.Rng == nil {
			return nil, fmt.Errorf("core: request %d (%q) has neither Group nor Rng", i, r.ID)
		}
		j, ok := bi.pos[r.ID]
		if !ok {
			ts, err := m.target(r.ID)
			if err != nil {
				return nil, err
			}
			j = len(bi.states)
			bi.pos[r.ID] = j
			bi.states = append(bi.states, ts)
			if j < cap(bi.reqs) { // reuse a released request list
				bi.reqs = bi.reqs[:j+1]
				bi.reqs[j] = bi.reqs[j][:0]
			} else {
				bi.reqs = append(bi.reqs, nil)
			}
		}
		bi.reqs[j] = append(bi.reqs[j], i)
	}
	ests := make([]Estimate, len(reqs))
	// The batch span records how the micro-batcher coalesced this round
	// and links each member request's span, tying the per-request causal
	// trees to the execution that actually served them. rec is shared by
	// every per-target clone (they all derive it from base.Tracer).
	rec := m.shared.rec
	batchSpan := rec.Start(obs.SpanRef{}, "core", "localize_batch")
	if rec != nil {
		batchSpan.Attr("requests", float64(len(reqs)))
		batchSpan.Attr("targets", float64(len(bi.states)))
		for i := range reqs {
			rec.Link(batchSpan.Ref(), reqs[i].Span)
		}
	}
	if m.base.TopM == 0 {
		m.localizeBatchWaves(reqs, bi, ests)
	} else {
		m.localizeBatchFanOut(reqs, bi, ests, workers)
	}
	batchSpan.End()
	return ests, nil
}

// localizeBatchFanOut is the pre-SoA execution strategy: distinct
// targets fan across a worker pool, each running its requests serially
// through the per-target tracker (and its serial matcher).
func (m *MultiTracker) localizeBatchFanOut(reqs []LocalizeRequest, bi *batchIndex, ests []Estimate, workers int) {
	fanOut(len(bi.states), workers, func(ti int) {
		ts := bi.states[ti]
		ts.mu.Lock()
		for _, ri := range bi.reqs[ti] {
			r := reqs[ri]
			ts.tr.SetRequestSpan(r.Span)
			if r.Group != nil {
				ests[ri] = ts.tr.LocalizeGroup(r.Group)
			} else {
				ests[ri] = ts.tr.Localize(r.Pos, r.Rng)
			}
		}
		ts.tr.SetRequestSpan(obs.SpanRef{})
		ts.mu.Unlock()
	})
}

// localizeBatchWaves executes the batch through the shared SoA batch
// matcher. Requests are organized into waves holding at most one
// request per target (per-target FIFO preserved: wave w takes each
// target's w-th request), because a request's completion phase can
// mutate per-target state the target's next request must observe — the
// fault clock a degraded retry advances, the warm-start face, the
// estimate history. Lanes of one wave belong to distinct targets, so
// the pre-match phases can run back to back, one central MatchBatch
// pass scores every lane, and the completion phases replay the rest of
// the serial flow. Every target lock is held for the whole batch;
// batchMu keeps multi-lock acquisition single-flight (single-lock
// callers like LocalizeGroup cannot form a cycle against it).
func (m *MultiTracker) localizeBatchWaves(reqs []LocalizeRequest, bi *batchIndex, ests []Estimate) {
	m.batchMu.Lock()
	defer m.batchMu.Unlock()
	if m.bm == nil {
		// Mirror NewWithDivision's serial matcher knobs exactly: the
		// batch kernel's bitwise-identity contract is per matching
		// configuration.
		m.bm = &match.Batch{
			Div:           m.shared.Division(),
			Incremental:   true,
			Fallback:      m.base.FallbackBelow > 0,
			FallbackBelow: m.base.FallbackBelow,
			Exhaustive:    m.base.Exhaustive,
		}
	}
	for _, ts := range bi.states {
		ts.mu.Lock()
	}
	defer func() {
		for _, ts := range bi.states {
			ts.tr.SetRequestSpan(obs.SpanRef{})
			ts.mu.Unlock()
		}
	}()
	pend, vs, prevs, ws := m.pend, m.laneVs, m.lanePrevs, m.laneWs
	for wave := 0; ; wave++ {
		pend, vs, prevs, ws = pend[:0], vs[:0], prevs[:0], ws[:0]
		for j, ts := range bi.states {
			ris := bi.reqs[j]
			if wave >= len(ris) {
				continue
			}
			ri := ris[wave]
			p := ts.tr.batchBegin(&reqs[ri])
			p.reqIdx = ri
			pend = append(pend, p)
			vs = append(vs, p.v)
			prevs = append(prevs, p.prev)
			ws = append(ws, p.w)
		}
		if len(pend) == 0 {
			break
		}
		// Weighted lanes (a defense with active suspects) take the float
		// replay path; nil-weight lanes run the unweighted kernels, so
		// without a Defense this is exactly MatchBatch.
		m.laneRes = m.bm.MatchBatchWeighted(m.laneRes[:0], vs, prevs, ws)
		for i := range pend {
			p := &pend[i]
			ests[p.reqIdx] = p.tr.batchFinish(p, m.laneRes[i])
		}
		if m.metrics != nil {
			m.metrics.waves.Inc()
			m.metrics.lanes.Add(float64(len(pend)))
		}
	}
	m.pend, m.laneVs, m.lanePrevs, m.laneWs = pend, vs, prevs, ws
}

// batchIndex groups one LocalizeBatch call's requests by target, in
// first-appearance order: states[j] is the j-th target's state, reqs[j]
// its request indices in slice order, and pos maps a target ID to j.
// LocalizeBatch takes one from batchIndexPool and returns it, so
// steady batches reuse its map and slices.
type batchIndex struct {
	pos    map[string]int
	states []*targetState
	reqs   [][]int
}

var batchIndexPool = sync.Pool{New: func() any { return &batchIndex{pos: make(map[string]int)} }}

func (bi *batchIndex) release() {
	clear(bi.pos)
	clear(bi.states)
	bi.states, bi.reqs = bi.states[:0], bi.reqs[:0]
	batchIndexPool.Put(bi)
}

// FaultScheduler exposes one target's fault scheduler (created on first
// use like the target itself; nil when no FaultScript is configured).
// Callers driving per-request batches directly can Seek it to their own
// virtual time between requests, exactly like Track does serially.
func (m *MultiTracker) FaultScheduler(targetID string) (*faults.Scheduler, error) {
	ts, err := m.target(targetID)
	if err != nil {
		return nil, err
	}
	return ts.tr.FaultScheduler(), nil
}

// Forget drops a target's state (e.g. it left the field).
func (m *MultiTracker) Forget(targetID string) {
	m.mu.Lock()
	delete(m.targets, targetID)
	m.mu.Unlock()
}

// Division exposes the shared preprocessed division.
func (m *MultiTracker) Division() *field.Division {
	return m.shared.Division()
}

// fanOut runs job(0..n-1) on a pool of workers (≤ 0 selects
// runtime.NumCPU(), capped at n; 1 runs inline). Jobs are claimed from an
// atomic counter, so every job runs exactly once.
func fanOut(n, workers int, job func(i int)) {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				job(i)
			}
		}()
	}
	wg.Wait()
}
