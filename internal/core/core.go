// Package core implements the paper's primary contribution: the
// Fault-Tolerant Target-Tracking (FTTT) strategy of Sec. 4.
//
// A Tracker owns the preprocessed field division (uncertain-boundary
// faces with signature vectors, Sec. 4.3), a matcher (exhaustive ML or
// the heuristic neighbor-link climb of Algorithm 2), and a variant flag
// selecting the Basic ternary sampling vectors (Def. 5) or the Extended
// quantitative ones (Def. 10). Each call to Localize consumes one
// grouping sampling and returns a location estimate; Track runs a whole
// trace, warm-starting every localization from the previous face as the
// paper's consecutive-tracking optimisation prescribes.
package core

import (
	"fmt"
	"math"

	"fttt/internal/byz"
	"fttt/internal/faults"
	"fttt/internal/field"
	"fttt/internal/geom"
	"fttt/internal/match"
	"fttt/internal/obs"
	"fttt/internal/randx"
	"fttt/internal/rf"
	"fttt/internal/sampling"
	"fttt/internal/vector"
)

// Variant selects how sampling vectors are built.
type Variant int

const (
	// Basic uses the ternary node-pair values of Def. 4.
	Basic Variant = iota
	// Extended uses the quantitative pair values of Def. 10 (Sec. 6),
	// which break maximum-similarity ties and smooth the trajectory.
	Extended
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case Basic:
		return "basic"
	case Extended:
		return "extended"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Config collects the tracker's parameters; see Table 1 for the paper's
// evaluation settings.
type Config struct {
	// Field is the monitor area (Table 1: 100×100 m²).
	Field geom.Rect
	// Nodes are the sensor positions in ID order.
	Nodes []geom.Point
	// Model is the path-loss model (Table 1: β=4, σ_X=6).
	Model rf.Model
	// Epsilon is the sensing resolution ε in dBm (Table 1: 0.5-3).
	Epsilon float64
	// SamplingTimes is k, the number of samples per grouping (Table 1:
	// 3-9).
	SamplingTimes int
	// Range is the sensing range R in metres (Table 1: 40); 0 disables
	// the range limit.
	Range float64
	// ReportLoss is the per-localization probability that an in-range
	// node's report is lost, exercising the fault tolerance of
	// Sec. 4.4(3).
	ReportLoss float64
	// CellSize is the approximate-grid-division cell edge in metres
	// (Sec. 4.3); 0 selects 1 m.
	CellSize float64
	// DivideWorkers is the worker count for the construction-time
	// signature pass (field.DivideWorkers): 0 keeps the serial path,
	// negative selects runtime.NumCPU(), positive is taken literally.
	// The division is byte-identical for every setting — this is purely
	// a construction-latency knob, which the serving layer sets to the
	// CPU count so cold field-cache misses build in parallel.
	DivideWorkers int
	// Divider, when non-nil, supplies the preprocessed division for the
	// given build spec instead of New building a private one — the seam
	// the shared field-index cache (internal/fieldcache) plugs in so
	// every session on one deployment shares a single immutable
	// arrangement. The returned division must have been built from an
	// equivalent spec; NewWithDivision's dimension guard fails fast on
	// gross mismatches.
	Divider func(spec field.Spec) (*field.Division, error)
	// Variant selects Basic or Extended sampling vectors.
	Variant Variant
	// Exhaustive forces the O(n⁴) ergodic matcher instead of the
	// heuristic neighbor-link matcher of Algorithm 2.
	Exhaustive bool
	// FallbackBelow, when positive, makes the heuristic matcher rerun an
	// exhaustive scan whenever its climb converges below this similarity.
	// The paper's Algorithm 2 has no such escape (leave it 0 to be
	// faithful); it exists for the ablation study of DESIGN.md §5.
	FallbackBelow float64
	// CustomC, when positive, overrides the uncertainty constant used for
	// the boundary division. The default (0) is the paper's eq. 3
	// constant; rf.Model.CalibratedC offers a flip-calibrated alternative
	// compared in the BoundaryAblation experiment (DESIGN.md §5).
	CustomC float64
	// StarFractionLimit, when positive, arms the degradation policy of
	// DESIGN.md §9: a localization whose sampling vector carries more
	// than this fraction of Star pairs (both nodes silent — the weakest
	// information state of eq. 6) is declared degraded. The tracker then
	// performs one bounded re-collection retry when the caller provides
	// one (LocalizeGroupRetry, or automatically on the sampler path) and,
	// if still degraded, falls back to last-estimate + mobility
	// extrapolation instead of trusting a star-dominated match. 0
	// disables the policy (the paper's always-trust behavior).
	StarFractionLimit float64
	// RetryBackoff is the virtual-time pause before a degraded round's
	// re-collection (seconds); it gives transient faults (burst channels,
	// rebooting motes) a chance to clear. Only meaningful with
	// StarFractionLimit > 0.
	RetryBackoff float64
	// FaultScript, when non-nil, attaches a deterministic fault scheduler
	// (internal/faults) to the tracker's sampler: every tracker clone —
	// including the per-trace clones TrackParallel builds — constructs a
	// fresh scheduler from (script, len(Nodes), FaultSeed), so faulted
	// runs stay byte-identical across worker counts.
	FaultScript *faults.Script
	// FaultSeed roots the fault scheduler's random choices.
	FaultSeed uint64
	// Defense, when non-nil with Enabled set, arms the Byzantine-sensing
	// defense layer (internal/byz, DESIGN.md §15): online per-node trust
	// learned from pair-report consistency, quorum voting over suspect
	// pairs before matching, and a trust-reweighted Algorithm 2 similarity
	// sum. Every tracker clone builds its own Defense from this config, so
	// defended runs stay byte-identical across worker counts; while no
	// node is suspect the matcher runs its unmodified path, keeping a
	// defended honest run byte-identical to a vanilla one.
	Defense *byz.Config
	// Obs, when non-nil, receives the tracker's metrics (localizations,
	// faces visited, fallbacks, flip/star/missing-report counts, localize
	// latency — DESIGN.md §"Telemetry"). Nil disables all bookkeeping.
	Obs *obs.Registry
	// Tracer, when non-nil, receives a span per localization and an event
	// per matcher fallback. Nil disables tracing (the fast path).
	Tracer obs.Tracer
}

// UncertaintyC returns the uncertainty constant the configuration
// selects: CustomC when set, otherwise the paper's eq. 3 constant.
func (c Config) UncertaintyC() float64 {
	if c.CustomC > 0 {
		return c.CustomC
	}
	return c.Model.UncertaintyC(c.Epsilon)
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if len(c.Nodes) < 2 {
		return fmt.Errorf("core: need at least 2 nodes, got %d", len(c.Nodes))
	}
	if c.SamplingTimes < 1 {
		return fmt.Errorf("core: sampling times k must be ≥ 1, got %d", c.SamplingTimes)
	}
	if c.Epsilon < 0 {
		return fmt.Errorf("core: sensing resolution ε must be ≥ 0, got %v", c.Epsilon)
	}
	if c.Field.Width() <= 0 || c.Field.Height() <= 0 {
		return fmt.Errorf("core: degenerate field %v", c.Field)
	}
	if c.Defense != nil {
		if err := c.Defense.Validate(); err != nil {
			return err
		}
	}
	return c.Model.Validate()
}

// Tracker is a ready-to-run FTTT instance.
//
// A Tracker is single-goroutine: it owns mutable warm-start state (the
// previous face) and its matcher's search scratch. The preprocessed
// Division is immutable and may be shared across any number of trackers —
// use NewWithDivision to clone cheap trackers over one division,
// TrackParallel to fan independent traces across a worker pool, or
// MultiTracker for concurrent multi-target serving.
type Tracker struct {
	cfg     Config
	div     *field.Division
	matcher *match.Batch
	sampler *sampling.Sampler
	prev    *field.Face
	faults  *faults.Scheduler
	defense *byz.Defense
	// lastPos/prevPos/histN hold the estimate history the degradation
	// fallback extrapolates from (DESIGN.md §9).
	lastPos geom.Point
	prevPos geom.Point
	histN   int
	metrics *trackerMetrics
	tracer  obs.Tracer
	// cb is tracer with any Recorder stripped: the flat Span/Event
	// callbacks go here so the recorder — which captures the rich
	// structured spans below — does not record every round twice.
	cb obs.Tracer
	// rec is the structured trace sink extracted from cfg.Tracer
	// (obs.RecorderOf); nil disables all structured tracing.
	rec *obs.Recorder
	// reqSpan is the serving layer's per-request trace context: the next
	// round span parents under it (SetRequestSpan).
	reqSpan obs.SpanRef
	// round is the currently open localization round span; children
	// (sampling, match) and degradation events parent under it.
	round obs.SpanRef
	// vbuf is samplingVector's storage and groups the collections'
	// (the first, then the degradation policy's re-collection), reused
	// every round: a round's groups and vector are dead once its
	// estimate is built.
	vbuf   vector.Vector
	groups [2]*sampling.Group
}

// trackerMetrics caches the core metric handles. They are resolved once
// at construction so the localization hot path only touches atomics; a
// nil *trackerMetrics (no registry attached) skips everything.
type trackerMetrics struct {
	localizations *obs.Counter
	visited       *obs.Histogram
	fallbacks     *obs.Counter
	flipped       *obs.Counter
	stars         *obs.Counter
	missing       *obs.Counter
	degraded      *obs.Counter
	retries       *obs.Counter
	extrapolated  *obs.Counter
	latency       *obs.Histogram
}

func newTrackerMetrics(r *obs.Registry) *trackerMetrics {
	return &trackerMetrics{
		localizations: r.Counter("fttt_core_localizations_total"),
		visited:       r.Histogram("fttt_core_matcher_faces_visited", obs.ExpBuckets(1, 2, 14)),
		fallbacks:     r.Counter("fttt_core_matcher_fallbacks_total"),
		flipped:       r.Counter("fttt_core_flipped_pairs_total"),
		stars:         r.Counter("fttt_core_star_pairs_total"),
		missing:       r.Counter("fttt_core_missing_reports_total"),
		degraded:      r.Counter("fttt_core_degraded_total"),
		retries:       r.Counter("fttt_core_retries_total"),
		extrapolated:  r.Counter("fttt_core_extrapolated_total"),
		latency:       r.Histogram("fttt_core_localize_seconds", obs.ExpBuckets(1e-5, 2, 16)),
	}
}

// New preprocesses the field division and returns a Tracker. The
// division comes from cfg.Divider when one is set (the shared
// field-index cache path); otherwise New builds a private one with
// cfg.DivideWorkers signature-pass workers (0 = serial).
func New(cfg Config) (*Tracker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	spec := cfg.DivisionSpec()
	var div *field.Division
	var err error
	if cfg.Divider != nil {
		div, err = cfg.Divider(spec)
	} else {
		div, err = spec.Divide()
	}
	if err != nil {
		return nil, err
	}
	return NewWithDivision(cfg, div)
}

// DivisionSpec resolves the configuration into the field-division build
// spec: the content-addressable identity (field rect, nodes,
// uncertainty constant, cell size) plus the worker knob. Everything the
// division depends on flows through here — it is the cache key
// derivation of DESIGN.md §13.
func (c Config) DivisionSpec() field.Spec {
	cell := c.CellSize
	if cell == 0 {
		cell = 1
	}
	workers := c.DivideWorkers
	if workers == 0 {
		workers = 1 // serial default; field.Spec treats ≤0 as NumCPU
	}
	return field.Spec{
		Field:    c.Field,
		Nodes:    c.Nodes,
		C:        c.UncertaintyC(),
		CellSize: cell,
		Workers:  workers,
	}
}

// NewWithDivision builds a Tracker over an existing field division —
// several trackers (e.g. the Basic and Extended variants in a comparison
// run) can share one preprocessed division, which dominates construction
// cost. The division must have been built for cfg's nodes and uncertainty
// constant. Full equivalence is not re-checked (that would cost a
// re-division), but a cheap structural guard rejects gross mismatches: a
// division with no faces, or one whose signature dimension disagrees
// with the C(n,2) node pairs cfg.Nodes implies — the failure mode of
// wiring a cached or loaded division to the wrong deployment.
func NewWithDivision(cfg Config, div *field.Division) (*Tracker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if div == nil || len(div.Faces) == 0 {
		return nil, fmt.Errorf("core: division is empty")
	}
	if got, want := len(div.Faces[0].Signature), vector.NumPairs(len(cfg.Nodes)); got != want {
		return nil, fmt.Errorf("core: division signature dimension %d does not match %d nodes (want %d pairs) — division built for a different deployment",
			got, len(cfg.Nodes), want)
	}
	t := &Tracker{
		cfg: cfg,
		div: div,
		matcher: &match.Batch{
			Div:           div,
			Incremental:   true, // identical results, ~3× faster per hop
			FallbackBelow: cfg.FallbackBelow,
			Exhaustive:    cfg.Exhaustive,
		},
		sampler: &sampling.Sampler{
			Model:      cfg.Model,
			Nodes:      cfg.Nodes,
			Range:      cfg.Range,
			ReportLoss: cfg.ReportLoss,
			Epsilon:    cfg.Epsilon,
		},
		tracer: cfg.Tracer,
		cb:     obs.WithoutRecorder(cfg.Tracer),
		rec:    obs.RecorderOf(cfg.Tracer),
	}
	t.sampler.Trace = t.rec
	if cfg.FaultScript != nil {
		t.faults = faults.New(*cfg.FaultScript, len(cfg.Nodes), cfg.FaultSeed)
		// The collude behavior fabricates decoy-consistent RSS from the
		// deployment geometry; benign behaviors ignore it.
		t.faults.SetGeometry(cfg.Nodes, cfg.Model)
		t.sampler.Faults = t.faults
	}
	if cfg.Defense != nil && cfg.Defense.Enabled {
		t.defense = byz.New(*cfg.Defense, len(cfg.Nodes), cfg.SamplingTimes, cfg.Obs)
		if cfg.Range > 0 && cfg.SamplingTimes >= 2 {
			// Arm the range-plausibility gate from the deployment's RF
			// model: Def. 2 admits a report only within Range, so a claimed
			// mean a full σ_X below the range-edge level asserts an
			// out-of-range target; and the spread floor is a small fraction
			// of the fast-fading σ no honest k-instant sample can collapse
			// under (P ≈ 3·10⁻⁵ for k=5) — jointly, an honest report
			// essentially never trips the gate, preserving byte-identity.
			if fast := cfg.Model.SigmaFast(); fast > 0 {
				t.defense.SetRangeGate(
					cfg.Model.MeanRSS(cfg.Range)-cfg.Model.SigmaX, fast/16)
			}
		}
	}
	if cfg.Obs != nil {
		t.metrics = newTrackerMetrics(cfg.Obs)
	}
	return t, nil
}

// Defense exposes the tracker's Byzantine defense state (nil when no
// DefenseConfig is armed); read-only accessors like Suspects and
// NodeTrust are safe between localizations.
func (t *Tracker) Defense() *byz.Defense { return t.defense }

// FaultScheduler exposes the tracker's fault scheduler (nil when no
// FaultScript is configured); callers driving Localize directly can
// Seek it to their own virtual time.
func (t *Tracker) FaultScheduler() *faults.Scheduler { return t.faults }

// Division exposes the preprocessed field division (read-only).
func (t *Tracker) Division() *field.Division { return t.div }

// Config returns the tracker's configuration.
func (t *Tracker) Config() Config { return t.cfg }

// Reset forgets the previous face and the estimate history so the next
// localization cold-starts.
func (t *Tracker) Reset() {
	t.prev = nil
	t.histN = 0
}

// Estimate is the outcome of one localization.
type Estimate struct {
	// Pos is the estimated target position.
	Pos geom.Point
	// FaceID is the matched face.
	FaceID int
	// Similarity is the matching similarity (Def. 7); +Inf for an exact
	// signature match.
	Similarity float64
	// Reported is |N_r|, how many nodes contributed to this localization.
	Reported int
	// Stars counts the Star components in the sampling vector (pairs of
	// silent nodes).
	Stars int
	// Flipped counts the sampling-vector components recording an observed
	// order flip — the target sat in those pairs' uncertain areas.
	Flipped int
	// Visited is the number of faces the matcher evaluated.
	Visited int
	// FellBack reports that the heuristic matcher rescanned exhaustively
	// (only possible with Config.FallbackBelow > 0).
	FellBack bool
	// Degraded reports that the final sampling vector's star fraction
	// exceeded Config.StarFractionLimit — too many silent node pairs to
	// trust the match (DESIGN.md §9).
	Degraded bool
	// Retried reports that a degraded collection triggered the bounded
	// re-collection retry (whether or not the retry recovered).
	Retried bool
	// Extrapolated reports that the position came from the last-estimate
	// + mobility extrapolation fallback, not from the matcher.
	Extrapolated bool
	// pairsTotal is the sampling vector's dimension, kept for
	// Confidence.
	pairsTotal int
}

// StarFraction returns the fraction of Star pairs in the sampling
// vector — the degradation signal Config.StarFractionLimit thresholds.
func (e Estimate) StarFraction() float64 {
	if e.pairsTotal <= 0 {
		return 0
	}
	return float64(e.Stars) / float64(e.pairsTotal)
}

// Confidence scores the estimate in [0, 1]: the product of a similarity
// term (how well the sampling vector matched the face; distance d maps
// to 1/(1+d)) and a participation term (what fraction of pairs had at
// least one reporting node). Low-confidence estimates are the ones an
// application should treat as "target possibly lost" — see the
// faulttolerance example.
func (e Estimate) Confidence() float64 {
	sim := 1.0
	if !math.IsInf(e.Similarity, 1) && e.Similarity > 0 {
		d := 1 / e.Similarity
		sim = 1 / (1 + d)
	} else if e.Similarity <= 0 {
		sim = 0
	}
	pairs := e.Stars + e.participating()
	part := 1.0
	if pairs > 0 {
		part = float64(e.participating()) / float64(pairs)
	}
	return sim * part
}

// participating returns the number of non-star pairs.
func (e Estimate) participating() int {
	if e.pairsTotal <= 0 {
		return 0
	}
	return e.pairsTotal - e.Stars
}

// Localize performs one grouping sampling at the true target position pos
// and matches it to a face. rng drives the sampling noise and losses;
// pass an independent substream per localization for reproducibility.
// With StarFractionLimit > 0 a degraded collection is retried once from
// the "retry" substream (split unconditionally, so the retry never
// perturbs the primary draws).
func (t *Tracker) Localize(pos geom.Point, rng *randx.Stream) Estimate {
	return t.localize(&LocalizeRequest{Pos: pos, Rng: rng, Span: t.reqSpan}, nil)
}

// localize runs one round as a one-lane wave on the tracker's own
// matcher: batchBegin, the match (bracketed by the match span), then
// batchFinish. recollect is LocalizeGroupRetry's re-collection hook.
func (t *Tracker) localize(r *LocalizeRequest, recollect func() *sampling.Group) Estimate {
	p := t.batchBegin(r)
	p.recollect = recollect
	return t.batchFinish(&p, t.matchTraced(p.v, p.w))
}

// beginRound opens the structured round span under the current request
// context, unless tracing is off or a round is already open (Localize
// opens it around the collection; LocalizeGroupRetry opens it for
// externally collected groups). The caller owning the span (owned ==
// true) must close it with endRound.
func (t *Tracker) beginRound() (sp obs.ActiveSpan, owned bool) {
	if t.rec == nil || t.round.Valid() {
		return obs.ActiveSpan{}, false
	}
	sp = t.rec.Start(t.reqSpan, "core", "localize")
	t.round = sp.Ref()
	return sp, true
}

// endRound annotates the round span with the estimate's outcome and
// publishes it.
func (t *Tracker) endRound(sp *obs.ActiveSpan, est Estimate) {
	sp.Attr("reported", float64(est.Reported))
	sp.Attr("star_fraction", est.StarFraction())
	sp.Attr("face", float64(est.FaceID))
	sp.Flag("degraded", est.Degraded)
	sp.Flag("retried", est.Retried)
	sp.Flag("extrapolated", est.Extrapolated)
	sp.End()
	t.round = obs.SpanRef{}
}

// SetRequestSpan installs the trace context the next rounds parent
// under — the serving layer's per-request span. Pass the zero SpanRef to
// clear. Like every Tracker method it is single-goroutine.
func (t *Tracker) SetRequestSpan(ref obs.SpanRef) { t.reqSpan = ref }

// sampleTraced collects one grouping sampling into the scratch group
// *dst, bracketed by a "sampling" child span when tracing is on. The
// sampler's fault events (report drops, RSS bias) parent under the
// collection span.
func (t *Tracker) sampleTraced(name string, pos geom.Point, rng *randx.Stream, dst **sampling.Group) *sampling.Group {
	if t.rec == nil {
		*dst = t.sampler.SampleInto(*dst, pos, t.cfg.SamplingTimes, rng)
		return *dst
	}
	sp := t.rec.Start(t.round, "sampling", name)
	t.sampler.TraceSpan = sp.Ref()
	g := t.sampler.SampleInto(*dst, pos, t.cfg.SamplingTimes, rng)
	*dst = g
	t.sampler.TraceSpan = obs.SpanRef{}
	sp.Attr("reported", float64(g.NumReported()))
	sp.End()
	return g
}

// LocalizeGroup matches an externally collected grouping sampling — the
// entry point used by the wsnnet substrate, whose reports arrive through
// the simulated network rather than directly from the sampler. When a
// registry or tracer is attached it also records the localization's
// telemetry; with neither the cost is two nil checks.
func (t *Tracker) LocalizeGroup(g *sampling.Group) Estimate {
	return t.LocalizeGroupRetry(g, nil)
}

// LocalizeGroupRetry is LocalizeGroup with the degradation policy's
// re-collection hook: when the sampling vector's star fraction exceeds
// Config.StarFractionLimit and recollect is non-nil, it is invoked once
// (after the caller's backoff, if any) to collect a replacement group;
// the better of the two collections wins. A round still degraded after
// the retry falls back to last-estimate + mobility extrapolation.
// recollect may be nil (no retry possible — e.g. the reports are a
// recorded trace) and may return nil (the re-collection itself failed).
func (t *Tracker) LocalizeGroupRetry(g *sampling.Group, recollect func() *sampling.Group) Estimate {
	return t.localize(&LocalizeRequest{Group: g, Span: t.reqSpan}, recollect)
}

// finishDegraded applies the degradation policy of DESIGN.md §9 to a
// round's first estimate and maintains the estimate history the
// extrapolation fallback consumes. With StarFractionLimit == 0 it is
// two point assignments — the hot path stays allocation-free.
func (t *Tracker) finishDegraded(est Estimate, p *batchPending) Estimate {
	lim := t.cfg.StarFractionLimit
	if lim <= 0 || est.StarFraction() <= lim {
		t.pushHistory(est.Pos)
		return est
	}
	est.Degraded = true
	t.rec.RecordEvent(t.round, "core", "degraded", est.StarFraction())
	face := t.prev
	if p.recollect != nil || p.retry != nil {
		est.Retried = true
		t.rec.RecordEvent(t.round, "core", "retry", est.StarFraction())
		if g2 := t.recollect(p); g2 != nil {
			v2, w2 := t.prematch(g2)
			est2 := t.finishMatch(v2, g2, t.matchTraced(v2, w2))
			if est2.StarFraction() < est.StarFraction() {
				// The retry heard more: adopt it (its face is already
				// the warm start).
				est2.Degraded = est2.StarFraction() > lim
				est2.Retried = true
				est = est2
				face = t.prev
			} else {
				t.prev = face // keep the first match's warm start
			}
		}
	}
	if est.Degraded {
		// The match is star-dominated noise: predict from the estimate
		// history instead. With two points, dead-reckon one step of the
		// observed velocity (uniform localization period); with one,
		// hold; with none, the cold-start match is all there is.
		switch {
		case t.histN >= 2:
			est.Pos = t.cfg.Field.Clamp(geom.Pt(
				2*t.lastPos.X-t.prevPos.X,
				2*t.lastPos.Y-t.prevPos.Y,
			))
			est.Extrapolated = true
		case t.histN == 1:
			est.Pos = t.lastPos
			est.Extrapolated = true
		}
		if est.Extrapolated {
			t.rec.RecordEvent(t.round, "core", "extrapolated", float64(t.histN))
			// Warm-start the next round where we believe the target is,
			// not at the noise-matched face.
			if f := t.div.FaceAt(est.Pos); f != nil {
				t.prev = f
				est.FaceID = f.ID
			}
		}
	}
	t.pushHistory(est.Pos)
	return est
}

// recollect runs a degraded round's one re-collection: the caller's
// hook, or on the sampling path a fresh collection from the round's
// "retry" substream after the backoff, which lets transient faults
// clear — the fault clock is advanced past it.
func (t *Tracker) recollect(p *batchPending) *sampling.Group {
	if p.recollect != nil {
		return p.recollect()
	}
	if t.faults != nil && t.cfg.RetryBackoff > 0 {
		t.faults.Seek(t.faults.Now() + t.cfg.RetryBackoff)
	}
	return t.sampleTraced("resample", p.pos, p.retry, &t.groups[1])
}

// pushHistory records a final position estimate for the extrapolation
// fallback.
func (t *Tracker) pushHistory(pos geom.Point) {
	t.prevPos = t.lastPos
	t.lastPos = pos
	if t.histN < 2 {
		t.histN++
	}
}

// prematch builds a collection's sampling vector and runs the defense's
// pre-match phase: the range-plausibility gate over the raw reports,
// then a snapshot of them, quorum correction or starring-out of suspect
// pairs in place, and the trust weights (nil while no node is suspect —
// the unmodified, byte-identical matcher path).
func (t *Tracker) prematch(g *sampling.Group) (vector.Vector, []float64) {
	v := t.samplingVector(g)
	var w []float64
	if t.defense != nil {
		t.defense.ObserveGroup(g)
		w = t.defense.Apply(v)
	}
	return v, w
}

// matchTraced matches v from the warm-start face on the tracker's own
// matcher, bracketed by a "match" span when tracing is on.
func (t *Tracker) matchTraced(v vector.Vector, w []float64) match.Result {
	if t.rec == nil {
		return t.matcher.MatchWeighted(v, t.prev, w)
	}
	msp := t.rec.Start(t.round, "match", "match")
	r := t.matcher.MatchWeighted(v, t.prev, w)
	endMatchSpan(msp, r)
	return r
}

// samplingVector builds the group's sampling vector for the configured
// variant, in the tracker's reused storage.
func (t *Tracker) samplingVector(g *sampling.Group) vector.Vector {
	if t.cfg.Variant == Extended {
		t.vbuf = g.ExtendedVectorInto(t.vbuf)
	} else {
		t.vbuf = g.VectorInto(t.vbuf)
	}
	return t.vbuf
}

// endMatchSpan annotates a match span with its result and publishes it.
func endMatchSpan(msp obs.ActiveSpan, r match.Result) {
	msp.Attr("visited", float64(r.Visited))
	if math.IsInf(r.Similarity, 1) {
		msp.Flag("exact", true)
	} else {
		msp.Attr("similarity", r.Similarity)
	}
	msp.Flag("fellback", r.FellBack)
	msp.End()
}

// finishMatch runs the defense's post-match learning — charging
// inversion evidence from what the nodes reported against the face the
// match settled on — and folds the result into the tracker's warm-start
// state and the round's Estimate.
func (t *Tracker) finishMatch(v vector.Vector, g *sampling.Group, r match.Result) Estimate {
	if t.defense != nil {
		t.defense.Observe(r.Face.Signature)
	}
	t.prev = r.Face
	return Estimate{
		Pos:        r.Estimate,
		FaceID:     r.Face.ID,
		Similarity: r.Similarity,
		Reported:   g.NumReported(),
		Stars:      v.CountStars(),
		Flipped:    v.CountFlipped(),
		Visited:    r.Visited,
		FellBack:   r.FellBack,
		pairsTotal: v.Dim(),
	}
}

// TrackedPoint pairs a true target position with its estimate.
type TrackedPoint struct {
	T        float64
	True     geom.Point
	Estimate Estimate
	// Error is the geographic distance between estimate and truth — the
	// paper's tracking error metric (Sec. 7).
	Error float64
}

// Track localizes every point of the true trace in order, warm-starting
// each localization from the previous face. times[i] is paired with
// trace[i]; pass nil times to use the index as time.
func (t *Tracker) Track(trace []geom.Point, times []float64, rng *randx.Stream) []TrackedPoint {
	out := make([]TrackedPoint, len(trace))
	for i, pos := range trace {
		tm := float64(i)
		if times != nil {
			tm = times[i]
		}
		if t.faults != nil {
			t.faults.Seek(tm)
		}
		est := t.Localize(pos, rng.SplitN("loc", i))
		out[i] = TrackedPoint{
			T:        tm,
			True:     pos,
			Estimate: est,
			Error:    est.Pos.Dist(pos),
		}
	}
	return out
}

// TrackParallel tracks several independent traces concurrently over this
// tracker's shared division, fanning the traces across a pool of workers
// (≤ 0 selects runtime.NumCPU(); 1 is serial). Trace i runs on a fresh
// tracker cloned over the shared division (its own warm-start state and
// matcher scratch) with the substream rng.SplitN("trace", i), so the
// output is identical for every worker count — and identical to tracking
// each trace serially on a fresh tracker with the same substream.
// times[i] pairs with traces[i] like Track's times; times may be nil, as
// may individual entries.
func (t *Tracker) TrackParallel(traces [][]geom.Point, times [][]float64, rng *randx.Stream, workers int) ([][]TrackedPoint, error) {
	if times != nil && len(times) != len(traces) {
		return nil, fmt.Errorf("core: %d traces but %d times entries", len(traces), len(times))
	}
	clones := make([]*Tracker, len(traces))
	streams := make([]*randx.Stream, len(traces))
	for i := range traces {
		if times != nil && times[i] != nil && len(times[i]) != len(traces[i]) {
			return nil, fmt.Errorf("core: trace %d has %d points but %d times", i, len(traces[i]), len(times[i]))
		}
		tr, err := NewWithDivision(t.cfg, t.div)
		if err != nil {
			return nil, err
		}
		clones[i] = tr
		streams[i] = rng.SplitN("trace", i)
	}
	out := make([][]TrackedPoint, len(traces))
	fanOut(len(traces), workers, func(i int) {
		var tm []float64
		if times != nil {
			tm = times[i]
		}
		out[i] = clones[i].Track(traces[i], tm, streams[i])
	})
	return out, nil
}

// Errors extracts the per-point tracking errors from a tracked trace.
func Errors(pts []TrackedPoint) []float64 {
	errs := make([]float64, len(pts))
	for i, p := range pts {
		errs[i] = p.Error
	}
	return errs
}

// RequiredSamplingTimes returns the minimum grouping-sampling count k
// satisfying the Sec. 5.1 bound: the probability of capturing every
// expected flipped pair among nPairs pairs exceeds lambda when
//
//	k > 1 − log2(1 − λ^(1/(N−1))).
//
// For nPairs ≤ 1 the bound degenerates and the function returns 1.
func RequiredSamplingTimes(nPairs int, lambda float64) int {
	if nPairs <= 1 || lambda <= 0 {
		return 1
	}
	if lambda >= 1 {
		panic("core: λ must be < 1")
	}
	root := math.Pow(lambda, 1/float64(nPairs-1))
	k := 1 - math.Log2(1-root)
	ik := int(k) + 1 // strictly greater
	if ik < 1 {
		ik = 1
	}
	return ik
}

// FlipCaptureProbability returns the Sec. 5.1 probability that a grouping
// sampling of k instants captures all of nPairs expected flipped pairs:
// (1 − (1/2)^(k−1))^(N−1) per Appendix I's closed form as used in the
// body of the paper. For nPairs ≤ 1 the exponent N−1 is ≤ 0 and the
// probability is 1 — there is at most one expected flipped pair, which
// the formula's conditioning already accounts for.
func FlipCaptureProbability(nPairs, k int) float64 {
	if nPairs <= 1 {
		return 1
	}
	f := math.Pow(0.5, float64(k-1))
	return math.Pow(1-f, float64(nPairs-1))
}
