// Package match locates the face whose signature vector best matches a
// sampling vector — the maximum-likelihood matching of Sec. 4.4.
//
// Two matchers are provided. Exhaustive scans every face, the O(n⁴)
// ergodic process the paper starts from. Heuristic implements
// Algorithm 2: hill-climb along neighbor-face links from a warm-start
// face (the previous localization during continuous tracking), which the
// paper shows drops the time complexity to O(n²). Both report search
// statistics so the benches can reproduce the complexity comparison.
//
// Concurrency: a Division is immutable after construction and may be
// shared freely. Exhaustive and WeightedTopM are stateless and safe for
// concurrent use; Heuristic owns per-matcher search scratch and is
// single-goroutine — give each goroutine (each Tracker) its own instance.
package match

import (
	"math"

	"fttt/internal/field"
	"fttt/internal/geom"
	"fttt/internal/vector"
)

// Result is the outcome of one matching operation.
type Result struct {
	// Face is the best-matching face.
	Face *field.Face
	// Similarity is the Def. 7 similarity of the winning face (may be
	// +Inf on an exact match).
	Similarity float64
	// Estimate is the reported target location. For a unique winner it is
	// the face centroid; when several faces tie at the maximum similarity
	// the estimate is the mean of their centroids (Sec. 6).
	Estimate geom.Point
	// Tied is the number of faces sharing the maximum similarity.
	Tied int
	// Visited is the number of faces whose similarity was evaluated.
	Visited int
	// Rounds is the number of hill-climbing rounds (heuristic only).
	Rounds int
	// FellBack reports that the heuristic search converged below its
	// FallbackBelow threshold and rescanned exhaustively.
	FellBack bool
}

// Matcher locates the best face for a sampling vector.
type Matcher interface {
	// Match finds the face best matching v. prev is the face returned by
	// the previous localization, or nil for the first one; matchers may
	// use it as a warm start.
	Match(v vector.Vector, prev *field.Face) Result
}

// Exhaustive scans all faces of the division. It is stateless and safe
// for concurrent use over a shared Division.
type Exhaustive struct {
	Div *field.Division
}

// Match implements Matcher.
func (m *Exhaustive) Match(v vector.Vector, _ *field.Face) Result {
	best := math.Inf(-1)
	var winner *field.Face
	var ties []*field.Face
	for i := range m.Div.Faces {
		f := &m.Div.Faces[i]
		s := simOf(dist2(v, f.Signature))
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

// Heuristic searches along neighbor-face links from a warm start
// (Algorithm 2). Instead of the paper's strictly-improving hill climb —
// which stalls on the similarity plateaus that flipped components create —
// it runs a bounded best-first search: faces are expanded in decreasing
// similarity order, and the search stops once Patience consecutive
// expansions fail to improve on the best face seen. This keeps the local,
// O(n²)-per-localization character of Algorithm 2 while tolerating
// plateaus; Patience = 0 selects a default of 24.
//
// A Heuristic owns reusable search scratch (a visited-epoch slice and the
// frontier heap), so Match performs no heap allocations after the first
// call. That makes a Heuristic single-goroutine: give each goroutine its
// own matcher (the Division it points at may be shared — matchers only
// read it).
type Heuristic struct {
	Div *field.Division
	// Patience is how many consecutive non-improving expansions the
	// search tolerates before stopping.
	Patience int
	// Incremental updates a neighbor's match distance from its parent's
	// using the per-link signature diffs (Face.NeighborDiffs): O(|diff|)
	// per hop instead of O(C(n,2)) — Theorem 1 says |diff| is usually 1.
	// Results are identical up to floating-point association order.
	Incremental bool
	// Fallback, when true, reruns an exhaustive scan whenever the search
	// converges on a face whose similarity is below FallbackBelow. The
	// paper's algorithm has no such escape; it is provided for the
	// ablation study of DESIGN.md §5.
	Fallback bool
	// FallbackBelow is the similarity threshold that triggers the
	// fallback; a face that matches at least this well is accepted.
	FallbackBelow float64

	// seen[id] == epoch marks face id as visited in the current Match;
	// bumping epoch invalidates the whole slice in O(1), so the scratch
	// never needs clearing between calls.
	seen  []uint32
	epoch uint32
	// frontier is the reusable best-first heap storage.
	frontier faceHeap
}

// faceHeap is a min-heap of (squared distance, faceID) entries ordered by
// d2. Push/pop are open-coded (no container/heap) to avoid the interface
// boxing allocation on every operation; the sift rules replicate
// container/heap exactly (strict-less comparisons), so expansion order —
// and therefore plateau tie-breaking — is unchanged.
type faceHeap []faceEntry

type faceEntry struct {
	d2 float64
	id int
}

// push appends e and sifts it up.
func (h faceHeap) push(e faceEntry) faceHeap {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].d2 <= h[i].d2 {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	return h
}

// pop removes and returns the minimum entry.
func (h faceHeap) pop() (faceHeap, faceEntry) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		smallest := i
		if l := 2*i + 1; l < len(h) && h[l].d2 < h[smallest].d2 {
			smallest = l
		}
		if r := 2*i + 2; r < len(h) && h[r].d2 < h[smallest].d2 {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	return h, top
}

// dist2 is the squared modified distance of Def. 8 between v and a
// face's signature codes (query stars contribute 0).
func dist2(v vector.Vector, sig []int8) float64 {
	var sum float64
	v = v[:len(sig)]
	for k, c := range sig {
		if v[k].IsStar() {
			continue
		}
		d := float64(v[k]) - float64(c)
		sum += d * d
	}
	return sum
}

// term is one component's contribution to dist2.
func term(a vector.Value, c int8) float64 {
	if a.IsStar() {
		return 0
	}
	d := float64(a) - float64(c)
	return d * d
}

// Match implements Matcher. With a nil prev it starts from the division's
// middle face (Algorithm 2's Initialization()).
func (m *Heuristic) Match(v vector.Vector, prev *field.Face) Result {
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
	h = h.push(faceEntry{d2: dist2(v, start.Signature), id: start.ID})
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
					d2 += term(v[k], nbSig[k]) - term(v[k], face.Signature[k])
				}
				if d2 < 0 { // guard against rounding just below zero
					d2 = 0
				}
			} else {
				d2 = dist2(v, m.Div.Faces[nb].Signature)
			}
			h = h.push(faceEntry{d2: d2, id: nb})
		}
	}
	m.frontier = h[:0] // retain the grown backing array for the next call
	curSim := math.Inf(1)
	if best.d2 > 0 {
		curSim = 1 / math.Sqrt(best.d2)
	}
	if m.Fallback && curSim < m.FallbackBelow {
		ex := Exhaustive{Div: m.Div}
		r := ex.Match(v, nil)
		r.Visited += visited
		r.Rounds = rounds
		r.FellBack = true
		return r
	}
	// The search returns a single face; ties among distant faces are not
	// visible to the local search, matching Algorithm 2.
	return finish(&m.Div.Faces[best.id], nil, curSim, visited, rounds)
}

// WeightedTopM scans all faces like Exhaustive but estimates the target
// position as the similarity-weighted mean of the M best faces'
// centroids instead of the single argmax. Face-matching errors are
// discrete jumps between candidate faces; averaging over the top
// candidates trades a little bias for much less jump variance — the
// estimator ablation of DESIGN.md §5 quantifies the effect against the
// paper's plain maximum-likelihood rule.
type WeightedTopM struct {
	Div *field.Division
	// M is how many of the best faces contribute (≥ 1).
	M int
}

// Match implements Matcher.
func (m *WeightedTopM) Match(v vector.Vector, _ *field.Face) Result {
	mm := m.M
	if mm < 1 {
		mm = 1
	}
	// Maintain the top-M faces by similarity in a small insertion list.
	type cand struct {
		sim float64
		id  int
	}
	top := make([]cand, 0, mm)
	// Track how many faces share the maximum similarity, so Tied reports
	// the true tie count like Exhaustive does.
	best := math.Inf(-1)
	ties := 0
	for i := range m.Div.Faces {
		s := simOf(dist2(v, m.Div.Faces[i].Signature))
		switch {
		case s > best:
			best, ties = s, 1
		case s == best:
			ties++
		}
		if len(top) < mm {
			top = append(top, cand{s, i})
			for a := len(top) - 1; a > 0 && top[a].sim > top[a-1].sim; a-- {
				top[a], top[a-1] = top[a-1], top[a]
			}
			continue
		}
		if s <= top[mm-1].sim {
			continue
		}
		top[mm-1] = cand{s, i}
		for a := mm - 1; a > 0 && top[a].sim > top[a-1].sim; a-- {
			top[a], top[a-1] = top[a-1], top[a]
		}
	}
	// Exact matches (+Inf similarity) dominate: average only those (at
	// most M of them; Tied still reports the full tie count).
	if math.IsInf(top[0].sim, 1) {
		var pts []geom.Point
		for _, c := range top {
			if math.IsInf(c.sim, 1) {
				pts = append(pts, m.Div.Faces[c.id].Centroid)
			}
		}
		return Result{
			Face:       &m.Div.Faces[top[0].id],
			Similarity: top[0].sim,
			Estimate:   geom.Centroid(pts),
			Tied:       ties,
			Visited:    len(m.Div.Faces),
		}
	}
	var sx, sy, sw float64
	for _, c := range top {
		w := c.sim
		sx += w * m.Div.Faces[c.id].Centroid.X
		sy += w * m.Div.Faces[c.id].Centroid.Y
		sw += w
	}
	est := m.Div.Faces[top[0].id].Centroid
	if sw > 0 {
		est = geom.Pt(sx/sw, sy/sw)
	}
	return Result{
		Face:       &m.Div.Faces[top[0].id],
		Similarity: top[0].sim,
		Estimate:   est,
		Tied:       ties,
		Visited:    len(m.Div.Faces),
	}
}

func finish(winner *field.Face, ties []*field.Face, sim float64, visited, rounds int) Result {
	r := Result{
		Face:       winner,
		Similarity: sim,
		Estimate:   winner.Centroid,
		Tied:       1 + len(ties),
		Visited:    visited,
		Rounds:     rounds,
	}
	if len(ties) > 0 {
		pts := make([]geom.Point, 0, len(ties)+1)
		pts = append(pts, winner.Centroid)
		for _, f := range ties {
			pts = append(pts, f.Centroid)
		}
		r.Estimate = geom.Centroid(pts)
	}
	return r
}
