// Package match locates the face whose signature vector best matches a
// sampling vector — the maximum-likelihood matching of Sec. 4.4.
//
// Batch is the one matcher. By default it runs Algorithm 2: a search
// along neighbor-face links from a warm-start face (the previous
// localization during continuous tracking), which the paper shows drops
// the time complexity to O(n²). With Exhaustive set it scans every
// face, the O(n⁴) ergodic process the paper starts from. Both report
// search statistics so the benches can reproduce the complexity
// comparison. WeightedTopM is the estimator ablation's top-M scan.
//
// Concurrency: a Division is immutable after construction and may be
// shared freely. WeightedTopM is stateless and safe for concurrent use;
// Batch owns per-matcher search scratch and is single-goroutine — give
// each goroutine (each Tracker) its own instance.
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

// patience is how many consecutive non-improving expansions the
// best-first search tolerates before stopping.
const patience = 24

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

// simOf converts a squared distance to the Def. 7 similarity (+Inf on
// an exact match). Every scan and search funnels through this one
// expression so the bits agree.
func simOf(d2 float64) float64 {
	if d2 > 0 {
		return 1 / math.Sqrt(d2)
	}
	return math.Inf(1)
}

// WeightedTopM scans all faces like an Exhaustive Batch but estimates
// the target position as the similarity-weighted mean of the M best
// faces' centroids instead of the single argmax. Face-matching errors are
// discrete jumps between candidate faces; averaging over the top
// candidates trades a little bias for much less jump variance — the
// estimator ablation of DESIGN.md §5 quantifies the effect against the
// paper's plain maximum-likelihood rule.
type WeightedTopM struct {
	Div *field.Division
	// M is how many of the best faces contribute (≥ 1).
	M int
}

// Match scores every face against v and returns the top-M estimate.
// The previous face is ignored: the scan has no warm start.
func (m WeightedTopM) Match(v vector.Vector, _ *field.Face) Result {
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
	// the true tie count like the exhaustive scan does.
	best := math.Inf(-1)
	ties := 0
	for i := range m.Div.Faces {
		s := simOf(floatD2(v, m.Div.Faces[i].Signature, nil))
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
