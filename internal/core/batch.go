package core

import (
	"time"

	"fttt/internal/field"
	"fttt/internal/geom"
	"fttt/internal/match"
	"fttt/internal/obs"
	"fttt/internal/randx"
	"fttt/internal/sampling"
	"fttt/internal/vector"
)

// batchPending is one request's mid-round state between the round's
// pre-match phase (sampling + vector construction, batchBegin) and its
// post-match completion (batchFinish). The round's first match sits
// between the two — one lane of a MultiTracker wave, or the tracker's
// own matcher for the serial entry points (a one-lane wave); everything
// a lane needs to resume after it lives here.
type batchPending struct {
	tr     *Tracker
	reqIdx int
	// g is the collected (or externally provided) grouping sampling; v
	// its sampling vector; prev the warm-start face captured before the
	// first match.
	g    *sampling.Group
	v    vector.Vector
	prev *field.Face
	// w is the defense layer's per-pair trust weight vector for the
	// first match (nil without a Defense, or while no node is suspect).
	w []float64
	// recollect is LocalizeGroupRetry's caller-supplied re-collection
	// hook. On the sampling path with the degradation policy armed, pos
	// and retry (the request's "retry" substream) drive the
	// re-collection instead.
	recollect func() *sampling.Group
	pos       geom.Point
	retry     *randx.Stream
	// roundSp/roundOwned and cbEnd are the round's span and
	// callback-tracer bookkeeping; start feeds the latency histogram.
	roundSp      obs.ActiveSpan
	roundOwned   bool
	cbEnd        func()
	instrumented bool
	start        time.Time
}

// batchBegin runs a round up to (but excluding) its first match:
// request span installation, round span, grouping collection with the
// retry hook, the instrumentation preamble, sampling-vector
// construction and the defense's pre-match phase. The returned pending
// state's (v, prev, w) is the round's match lane.
func (t *Tracker) batchBegin(r *LocalizeRequest) batchPending {
	t.SetRequestSpan(r.Span)
	p := batchPending{tr: t}
	if r.Group != nil {
		p.g = r.Group
	} else {
		// The Localize path: the round span opens around the collection,
		// and a degraded round may re-collect from the unconditional
		// "retry" substream (split here, so it never perturbs the primary
		// draws).
		p.roundSp, p.roundOwned = t.beginRound()
		p.g = t.sampleTraced("sample", r.Pos, r.Rng, &t.groups[0])
		if t.cfg.StarFractionLimit > 0 {
			p.pos, p.retry = r.Pos, r.Rng.Split("retry")
		}
	}
	if t.metrics != nil || t.tracer != nil {
		p.instrumented = true
		if sp, owned := t.beginRound(); owned { // Group path: round opens here
			p.roundSp, p.roundOwned = sp, true
		}
		p.cbEnd = obs.StartSpan(t.cb, "core", "localize")
		p.start = time.Now()
	}
	// The matching defense Observe runs in batchFinish, before the
	// degradation policy's retry can open its own Apply/Observe round.
	p.v, p.w = t.prematch(p.g)
	p.prev = t.prev
	return p
}

// batchFinish consumes the lane's match result and completes the round:
// the defense's post-match phase, warm-start update, degradation policy
// (retries run on the tracker's own matcher), metrics, events, and
// round close.
func (t *Tracker) batchFinish(p *batchPending, r match.Result) Estimate {
	est := t.finishDegraded(t.finishMatch(p.v, p.g, r), p)
	if p.instrumented {
		if m := t.metrics; m != nil {
			m.latency.Observe(time.Since(p.start).Seconds())
			m.localizations.Inc()
			m.visited.Observe(float64(est.Visited))
			m.stars.Add(float64(est.Stars))
			m.flipped.Add(float64(est.Flipped))
			m.missing.Add(float64(p.g.N() - p.g.NumReported()))
			if est.FellBack {
				m.fallbacks.Inc()
			}
			if est.Degraded {
				m.degraded.Inc()
			}
			if est.Retried {
				m.retries.Inc()
			}
			if est.Extrapolated {
				m.extrapolated.Inc()
			}
		}
		if est.FellBack {
			obs.Emit(t.cb, "core", "matcher_fallback", est.Similarity)
		}
		if est.Degraded {
			obs.Emit(t.cb, "core", "degraded", est.StarFraction())
		}
		p.cbEnd()
	}
	if p.roundOwned {
		t.endRound(&p.roundSp, est)
	}
	return est
}
