package match

import (
	"math"

	"fttt/internal/field"
	"fttt/internal/vector"
)

// Trust-weighted matching (DESIGN.md §15): the Byzantine defense layer
// reweights the Def. 8 squared modified distance by a per-pair trust
// weight before the Algorithm 2 search,
//
//	d²(v, sig; w) = Σ_k w[k]·(v[k] − sig[k])²   (stars contribute 0),
//
// so pairs involving distrusted nodes count less toward the face
// decision. A nil weight slice selects the unweighted matcher verbatim
// — the byz.Defense fast path under an honest fleet — and because an
// all-ones weight vector multiplies every term by exactly 1.0 (IEEE
// multiplication by 1 is exact), the weighted path degenerates to the
// unweighted sum bit for bit in that case too.
//
// Weighted distances lose the small-integer structure the bitplane
// kernel exploits, so weighted batch lanes always take a float path
// that replays the serial operation order verbatim (ascending pair
// order, Star skip, the incremental per-link patch with its clamp of
// rounding noise below zero) over the same signature codes — which is
// why MatchBatchWeighted stays byte-identical to the serial
// MatchWeighted under ANY trust vector, the §15 differential contract.

// dist2w is the trust-weighted squared modified distance. The iteration
// order and Star handling are exactly dist2's; each component term is
// scaled by w[k] before accumulation.
func dist2w(v vector.Vector, sig []int8, w []float64) float64 {
	var sum float64
	v, w = v[:len(sig)], w[:len(sig)]
	for k, c := range sig {
		if v[k].IsStar() {
			continue
		}
		d := float64(v[k]) - float64(c)
		sum += w[k] * (d * d)
	}
	return sum
}

// termw is one component's contribution to dist2w.
func termw(a vector.Value, c int8, wk float64) float64 {
	if a.IsStar() {
		return 0
	}
	d := float64(a) - float64(c)
	return wk * (d * d)
}

// simOf converts a squared distance to the Def. 7 similarity (+Inf on
// an exact match). Both the serial and batch weighted paths funnel
// through this one expression so the bits agree.
func simOf(d2 float64) float64 {
	if d2 > 0 {
		return 1 / math.Sqrt(d2)
	}
	return math.Inf(1)
}

// MatchWeighted is Match with a per-pair trust weight vector. A nil w
// delegates to the unweighted Match.
func (m *Exhaustive) MatchWeighted(v vector.Vector, prev *field.Face, w []float64) Result {
	if w == nil {
		return m.Match(v, prev)
	}
	best := math.Inf(-1)
	var winner *field.Face
	var ties []*field.Face
	for i := range m.Div.Faces {
		f := &m.Div.Faces[i]
		s := simOf(dist2w(v, f.Signature, w))
		switch {
		case s > best:
			best = s
			winner = f
			ties = ties[:0]
		case s == best:
			ties = append(ties, f)
		}
	}
	return finish(winner, ties, best, len(m.Div.Faces), 0)
}

// MatchWeighted is Match with a per-pair trust weight vector: the same
// bounded best-first search over the same frontier scratch, with every
// distance evaluation — cold and incremental — weighted by w. A nil w
// delegates to the unweighted Match.
func (m *Heuristic) MatchWeighted(v vector.Vector, prev *field.Face, w []float64) Result {
	if w == nil {
		return m.Match(v, prev)
	}
	start := prev
	if start == nil {
		start = m.Div.FaceAt(m.Div.Field.Center())
	}
	patience := m.Patience
	if patience <= 0 {
		patience = 24
	}

	if len(m.seen) != len(m.Div.Faces) {
		m.seen = make([]uint32, len(m.Div.Faces))
		m.epoch = 0
	}
	m.epoch++
	if m.epoch == 0 { // epoch wrapped: clear the stale marks once
		for i := range m.seen {
			m.seen[i] = 0
		}
		m.epoch = 1
	}
	epoch := m.epoch
	m.seen[start.ID] = epoch

	h := m.frontier[:0]
	h = h.push(faceEntry{d2: dist2w(v, start.Signature, w), id: start.ID})
	best := h[0]
	visited := 1
	rounds := 0
	stall := 0
	for len(h) > 0 && stall < patience {
		var e faceEntry
		h, e = h.pop()
		rounds++
		if e.d2 < best.d2 {
			best = e
			stall = 0
		} else {
			stall++
		}
		if best.d2 == 0 {
			break // exact match cannot be beaten
		}
		face := &m.Div.Faces[e.id]
		for ni, nb := range face.Neighbors {
			if m.seen[nb] == epoch {
				continue
			}
			m.seen[nb] = epoch
			visited++
			var d2 float64
			if m.Incremental && face.NeighborDiffs != nil {
				// Patch only the components that differ across the link.
				d2 = e.d2
				nbSig := m.Div.Faces[nb].Signature
				for _, k := range face.NeighborDiffs[ni] {
					d2 += termw(v[k], nbSig[k], w[k]) - termw(v[k], face.Signature[k], w[k])
				}
				if d2 < 0 { // guard against rounding just below zero
					d2 = 0
				}
			} else {
				d2 = dist2w(v, m.Div.Faces[nb].Signature, w)
			}
			h = h.push(faceEntry{d2: d2, id: nb})
		}
	}
	m.frontier = h[:0] // retain the grown backing array for the next call
	curSim := simOf(best.d2)
	if m.Fallback && curSim < m.FallbackBelow {
		ex := Exhaustive{Div: m.Div}
		r := ex.MatchWeighted(v, nil, w)
		r.Visited += visited
		r.Rounds = rounds
		r.FellBack = true
		return r
	}
	// The search returns a single face; ties among distant faces are not
	// visible to the local search, matching Algorithm 2.
	return finish(&m.Div.Faces[best.id], nil, curSim, visited, rounds)
}

// MatchBatchWeighted is MatchBatch with one trust weight vector per
// lane (ws itself, or any lane, may be nil — those lanes run the
// unweighted kernels). Weighted lanes score on a float path that
// replays the serial MatchWeighted operation order over the same
// signature codes, so every lane is byte-identical to the serial
// weighted matcher for any trust vector.
func (b *Batch) MatchBatchWeighted(dst []Result, vs []vector.Vector, prevs []*field.Face, ws [][]float64) []Result {
	for i := range vs {
		var prev *field.Face
		if prevs != nil {
			prev = prevs[i]
		}
		var w []float64
		if ws != nil {
			w = ws[i]
		}
		if w == nil {
			dst = append(dst, b.matchOne(vs[i], prev))
			continue
		}
		dst = append(dst, b.matchOneWeighted(vs[i], prev, w))
	}
	return dst
}

// matchOneWeighted scores a single weighted lane.
func (b *Batch) matchOneWeighted(v vector.Vector, prev *field.Face, w []float64) Result {
	if b.Exhaustive {
		return b.matchExhaustiveWeighted(v, w)
	}
	return b.matchHeuristicWeighted(v, prev, w)
}

// matchHeuristicWeighted replays Heuristic.MatchWeighted over the SoA
// store: identical control flow, weighted float distances throughout.
func (b *Batch) matchHeuristicWeighted(v vector.Vector, prev *field.Face, w []float64) Result {
	div := b.Div
	start := prev
	if start == nil {
		start = div.FaceAt(div.Field.Center())
	}
	patience := b.Patience
	if patience <= 0 {
		patience = 24
	}

	if len(b.seen) != len(div.Faces) {
		b.seen = make([]uint32, len(div.Faces))
		b.epoch = 0
	}
	b.epoch++
	if b.epoch == 0 { // epoch wrapped: clear the stale marks once
		for i := range b.seen {
			b.seen[i] = 0
		}
		b.epoch = 1
	}
	epoch := b.epoch
	b.seen[start.ID] = epoch

	h := b.frontier[:0]
	h = h.push(faceEntry{d2: dist2w(v, start.Signature, w), id: start.ID})
	best := h[0]
	visited := 1
	rounds := 0
	stall := 0
	for len(h) > 0 && stall < patience {
		var e faceEntry
		h, e = h.pop()
		rounds++
		if e.d2 < best.d2 {
			best = e
			stall = 0
		} else {
			stall++
		}
		if best.d2 == 0 {
			break // exact match cannot be beaten
		}
		face := &div.Faces[e.id]
		for ni, nb := range face.Neighbors {
			if b.seen[nb] == epoch {
				continue
			}
			b.seen[nb] = epoch
			visited++
			var d2 float64
			if b.Incremental && face.NeighborDiffs != nil {
				// The serial weighted per-link patch, replayed.
				d2 = e.d2
				nbSig := div.Faces[nb].Signature
				for _, k := range face.NeighborDiffs[ni] {
					d2 += termw(v[k], nbSig[k], w[k]) - termw(v[k], face.Signature[k], w[k])
				}
				if d2 < 0 { // guard against rounding just below zero
					d2 = 0
				}
			} else {
				d2 = dist2w(v, div.Faces[nb].Signature, w)
			}
			h = h.push(faceEntry{d2: d2, id: nb})
		}
	}
	b.frontier = h[:0] // retain the grown backing array for the next lane
	curSim := simOf(best.d2)
	if b.Fallback && curSim < b.FallbackBelow {
		r := b.matchExhaustiveWeighted(v, w)
		r.Visited += visited
		r.Rounds = rounds
		r.FellBack = true
		return r
	}
	return finish(&div.Faces[best.id], nil, curSim, visited, rounds)
}

// matchExhaustiveWeighted replays Exhaustive.MatchWeighted over the
// store: per-face weighted d² through the same simOf expression, so the
// winner, tie set and averaged estimate are identical.
func (b *Batch) matchExhaustiveWeighted(v vector.Vector, w []float64) Result {
	div := b.Div
	best := math.Inf(-1)
	var winner *field.Face
	ties := b.ties[:0]
	for i := range div.Faces {
		s := simOf(dist2w(v, div.Faces[i].Signature, w))
		switch {
		case s > best:
			best = s
			winner = &div.Faces[i]
			ties = ties[:0]
		case s == best:
			ties = append(ties, &div.Faces[i])
		}
	}
	r := finish(winner, ties, best, len(div.Faces), 0)
	b.ties = ties[:0] // retain the backing array across lanes
	return r
}
