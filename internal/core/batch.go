package core

import (
	"time"

	"fttt/internal/field"
	"fttt/internal/match"
	"fttt/internal/obs"
	"fttt/internal/sampling"
	"fttt/internal/vector"
)

// batchPending is one request's mid-round state between the wave's
// pre-match phase (sampling + vector construction, batchBegin) and its
// post-match completion (batchFinish). The central MatchBatch pass sits
// between the two; everything a lane needs to resume exactly where the
// serial code would be after its first matcher call lives here.
type batchPending struct {
	tr     *Tracker
	reqIdx int
	// g is the collected (or externally provided) grouping sampling; v
	// its sampling vector; prev the warm-start face captured before the
	// central match.
	g    *sampling.Group
	v    vector.Vector
	prev *field.Face
	// w is the defense layer's per-pair trust weight vector for the
	// central match (nil without a Defense, or while no node is suspect).
	w []float64
	// recollect is the degradation policy's bounded re-collection hook,
	// built exactly like Localize builds it (nil on the Group path or
	// with the policy disarmed).
	recollect func() *sampling.Group
	// roundSp/roundOwned and cbEnd replay LocalizeGroupRetry's span and
	// callback-tracer bookkeeping; start feeds the latency histogram.
	roundSp      obs.ActiveSpan
	roundOwned   bool
	cbEnd        func()
	instrumented bool
	start        time.Time
}

// batchBegin replays the serial request flow up to (but excluding) the
// first matcher call: request span installation, round span, grouping
// collection with the retry hook, sampling-vector construction, and the
// LocalizeGroupRetry instrumentation preamble. The returned pending
// state plus the lane's (v, prev) pair is everything the central batch
// match needs.
func (t *Tracker) batchBegin(r *LocalizeRequest) batchPending {
	t.SetRequestSpan(r.Span)
	p := batchPending{tr: t}
	if r.Group != nil {
		p.g = r.Group
	} else {
		// The Localize path: the round span opens around the collection,
		// and a degraded round may re-collect from the unconditional
		// "retry" substream after the fault-clock backoff.
		p.roundSp, p.roundOwned = t.beginRound()
		p.g = t.sampleTraced("sample", r.Pos, r.Rng, &t.groups[0])
		if t.cfg.StarFractionLimit > 0 {
			retry := r.Rng.Split("retry")
			pos := r.Pos
			p.recollect = func() *sampling.Group {
				if t.faults != nil && t.cfg.RetryBackoff > 0 {
					t.faults.Seek(t.faults.Now() + t.cfg.RetryBackoff)
				}
				return t.sampleTraced("resample", pos, retry, &t.groups[1])
			}
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
	p.v = t.samplingVector(p.g)
	if t.defense != nil {
		// The serial pre-match defense phase — plausibility gate, then
		// Apply; the matching Observe runs in batchFinish, before the
		// degradation policy's retry can open its own Apply/Observe round.
		t.defense.ObserveGroup(p.g)
		p.w = t.defense.Apply(p.v)
	}
	p.prev = t.prev
	return p
}

// batchFinish consumes the lane's centrally computed match result —
// proven bitwise equal to what t.matcher.Match(p.v, p.prev) returns —
// and replays the rest of the serial request: match span, warm-start
// update, degradation policy (retries run on the tracker's own serial
// matcher), metrics, events, and round close.
func (t *Tracker) batchFinish(p *batchPending, r match.Result) Estimate {
	if t.rec != nil {
		endMatchSpan(t.rec.Start(t.round, "match", "match"), r)
	}
	if t.defense != nil {
		t.defense.Observe(r.Face.Signature)
	}
	est := t.finishDegraded(t.finishMatch(p.v, p.g, r), p.recollect)
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
