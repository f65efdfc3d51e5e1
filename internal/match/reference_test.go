package match

import (
	"math"

	"fttt/internal/field"
	"fttt/internal/vector"
)

// The reference matchers below are the serial float loops the matcher
// grew from, kept as the differential oracle for Batch (the way
// field's referenceDivide serves FuzzDivide): an ordered float64 sum per
// face, every term scaled by a trust weight, and the incremental
// per-link patch with its clamp below zero. A nil weight vector is
// scored as all ones, which is exact (×1.0 in IEEE arithmetic), so the
// oracle covers the unweighted popcount lanes too.

// refExhaustive scans all faces serially.
type refExhaustive struct {
	Div *field.Division
}

// refHeuristic is the serial Algorithm 2 best-first search.
type refHeuristic struct {
	Div         *field.Division
	Incremental bool
	// Fallback, when true, reruns an exhaustive scan whenever the search
	// converges on a face whose similarity is below FallbackBelow.
	Fallback      bool
	FallbackBelow float64

	seen     []uint32
	epoch    uint32
	frontier faceHeap
}

// refOnes is the all-ones weight vector the oracle scores a nil w with.
func refOnes(n int) []float64 {
	w := make([]float64, n)
	for k := range w {
		w[k] = 1
	}
	return w
}

// dist2w is the trust-weighted squared modified distance.
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

// MatchWeighted scans every face with trust weights w.
func (m *refExhaustive) MatchWeighted(v vector.Vector, prev *field.Face, w []float64) Result {
	if w == nil {
		w = refOnes(len(v))
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

// MatchWeighted is the bounded best-first search with every distance
// evaluation — cold and incremental — weighted by w.
func (m *refHeuristic) MatchWeighted(v vector.Vector, prev *field.Face, w []float64) Result {
	if w == nil {
		w = refOnes(len(v))
	}
	start := prev
	if start == nil {
		start = m.Div.FaceAt(m.Div.Field.Center())
	}
	patience := 24

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
		ex := refExhaustive{Div: m.Div}
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
