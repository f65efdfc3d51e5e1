package match

import (
	"math"
	"math/bits"

	"fttt/internal/field"
	"fttt/internal/vector"
)

// Batch is the matcher: one best-first search (Algorithm 2), one
// exhaustive scan and one fallback, each scoring faces through the
// lane's distance kernel against the division's structure-of-arrays
// signature store (field.SigSoA). A lane is one (vector, warm start,
// trust weights) query; Match and MatchWeighted score one lane,
// MatchBatchWeighted many. Lanes are independent, so any regrouping of
// the same lanes across calls produces identical bytes.
//
// Two kernels compute the Def. 8 squared modified distance:
//
//   - The popcount kernel serves unweighted lanes whose components are
//     all ternary or Star (the Basic variant, the common case). Each
//     component difference is 0, 1 or 4, so the store's bitplanes
//     collapse the C(n,2)-iteration sum to a handful of AND/OR/popcount
//     words,
//
//     d² = 4·|sign flips| + 1·|one-sided zeros|,
//
//     counted 64 pairs at a time. The result is an exact small integer,
//     equal to the float sum in any association order.
//
//   - The float kernel serves everything else: fractional (Def. 10)
//     lanes and trust-weighted lanes (DESIGN.md §15), where
//
//     d²(v, sig; w) = Σ_k w[k]·(v[k] − sig[k])²   (stars contribute 0)
//
//     and a nil w is the unweighted sum (×1.0 is exact in IEEE
//     arithmetic, so an all-ones w gives the same bits). It sums in
//     ascending pair order and, with Incremental set, patches a
//     neighbor's distance from its parent's along the per-link
//     signature diffs, clamping rounding noise below zero.
//
// A Batch owns reusable scratch (visited-epoch marks, the frontier heap,
// the query bitplanes, the tie list), so a warmed-up Batch scores
// unweighted heuristic lanes with zero heap allocations. That makes it
// single-goroutine; the Division (and its SoA store) is immutable and
// may be shared.
type Batch struct {
	Div *field.Division
	// Incremental updates a float lane's neighbor distance from its
	// parent's using the per-link signature diffs (Face.NeighborDiffs):
	// O(|diff|) per hop instead of O(C(n,2)) — Theorem 1 says |diff| is
	// usually 1. Popcount lanes always recompute; their sums are exact
	// integers either way.
	Incremental bool
	// FallbackBelow, when positive, reruns an exhaustive scan whenever
	// the search converges on a face whose similarity is below it. The
	// paper's algorithm has no such escape; it is provided for the
	// ablation study of DESIGN.md §5.
	FallbackBelow float64
	// Exhaustive scans every face per lane (with tie averaging) instead
	// of running the Algorithm 2 search.
	Exhaustive bool

	// seen[id] == epoch marks face id as visited in the current search;
	// bumping epoch invalidates the whole slice in O(1), so the scratch
	// never needs clearing between lanes.
	seen  []uint32
	epoch uint32
	// frontier is the reusable best-first heap storage.
	frontier faceHeap
	// pop is the popcount kernel with the current lane's query planes.
	pop popKernel
	// qMask is prepTernary's scratch: the query's non-Star components.
	qMask []uint64
	// ties is the exhaustive scan's tie scratch.
	ties []*field.Face
}

// Heuristic is the name the Algorithm 2 matcher went by before Batch
// served every lane; a Heuristic is a Batch.
type Heuristic = Batch

// Match finds the face best matching v. prev is the face returned by
// the previous localization, or nil for the first one, which starts
// from the division's middle face (Algorithm 2's Initialization()).
func (b *Batch) Match(v vector.Vector, prev *field.Face) Result {
	return b.MatchWeighted(v, prev, nil)
}

// MatchWeighted is Match with a per-pair trust weight vector; a nil w
// is the unweighted match.
func (b *Batch) MatchWeighted(v vector.Vector, prev *field.Face, w []float64) Result {
	ternary := w == nil && b.prepTernary(v)
	if b.Exhaustive {
		return b.scan(v, w, ternary)
	}
	best, visited, rounds := b.search(v, prev, w, ternary)
	sim := simOf(best.d2)
	if sim < b.FallbackBelow {
		r := b.scan(v, w, ternary)
		r.Visited += visited
		r.Rounds = rounds
		r.FellBack = true
		return r
	}
	// The search returns a single face; ties among distant faces are not
	// visible to the local search, matching Algorithm 2.
	return finish(&b.Div.Faces[best.id], nil, sim, visited, rounds)
}

// MatchBatchWeighted scores vs[i] warm-started from prevs[i] with trust
// weights ws[i] and appends one Result per lane to dst, which is
// returned. prevs and ws may be nil (all lanes cold, all lanes
// unweighted), as may any entry of them. Result i depends only on
// (vs[i], prevs[i], ws[i]).
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
		dst = append(dst, b.MatchWeighted(vs[i], prev, w))
	}
	return dst
}

// popKernel is the popcount kernel over the store's bitplanes (words
// uint64s per face): pos/neg mark the face's +1/−1 codes, qp/qn the
// query's, qa = qp|qn its nonzero components and qz its zero
// components. qa and qz are derived once per lane so the hot loop does
// not recompute them per face.
type popKernel struct {
	words          int
	pos, neg       []uint64
	qp, qn, qa, qz []uint64
}

// d2 is face f's distance to the query: a component where the query is
// Star (outside the query mask) contributes 0, a +1/−1 sign flip 4, a
// one-sided zero 1.
func (k *popKernel) d2(f int) float64 {
	base := f * k.words
	pos := k.pos[base : base+k.words]
	neg := k.neg[base : base+k.words]
	qp, qn, qa, qz := k.qp[:len(pos)], k.qn[:len(pos)], k.qa[:len(pos)], k.qz[:len(pos)]
	var c4, c1 int
	for w := range pos {
		sp, sn := pos[w], neg[w]
		c4 += bits.OnesCount64((qp[w] & sn) | (qn[w] & sp))
		s := sp | sn
		c1 += bits.OnesCount64((qz[w] & s) | (qa[w] &^ s))
	}
	return float64(4*c4 + c1)
}

// prepTernary classifies the lane: when every component is ternary or
// Star, it fills the popcount kernel's query planes and selects it.
// Fractional components (Def. 10) select the float kernel.
func (b *Batch) prepTernary(v vector.Vector) bool {
	soa := b.Div.SoA()
	words := soa.Words
	k := &b.pop
	if cap(k.qp) < words {
		planes := make([]uint64, 5*words)
		k.qp, k.qn = planes[:words:words], planes[words:2*words:2*words]
		k.qa, k.qz = planes[2*words:3*words:3*words], planes[3*words:4*words:4*words]
		b.qMask = planes[4*words:]
	}
	k.words, k.pos, k.neg = words, soa.PosBits, soa.NegBits
	qp, qn, qm := k.qp[:words], k.qn[:words], b.qMask[:words]
	for w := 0; w < words; w++ {
		qp[w], qn[w], qm[w] = 0, 0, 0
	}
	for i, x := range v {
		switch {
		case x.IsStar():
		case x == vector.Nearer:
			qm[i/64] |= 1 << (i % 64)
			qp[i/64] |= 1 << (i % 64)
		case x == vector.Farther:
			qm[i/64] |= 1 << (i % 64)
			qn[i/64] |= 1 << (i % 64)
		case x == vector.Flipped:
			qm[i/64] |= 1 << (i % 64)
		default:
			return false
		}
	}
	qa, qz := k.qa[:words], k.qz[:words]
	for w := 0; w < words; w++ {
		a := qp[w] | qn[w]
		qa[w] = a
		qz[w] = qm[w] &^ a
	}
	return true
}

// d2 is the lane's distance to face f: the popcount kernel for a
// ternary lane, the float kernel otherwise.
func (b *Batch) d2(v vector.Vector, w []float64, f int, ternary bool) float64 {
	if ternary {
		return b.pop.d2(f)
	}
	return floatD2(v, b.Div.Faces[f].Signature, w)
}

// floatD2 is the float kernel: the squared modified distance of Def. 8
// between v and a face's signature codes, each term scaled by w[k] (nil
// w = unweighted), summed in ascending pair order.
func floatD2(v vector.Vector, sig []int8, w []float64) float64 {
	var sum float64
	v = v[:len(sig)]
	for k, c := range sig {
		if !v[k].IsStar() {
			sum += term(v[k], c, w, k)
		}
	}
	return sum
}

// term is one non-Star component's contribution to floatD2.
func term(a vector.Value, c int8, w []float64, k int) float64 {
	d := float64(a) - float64(c)
	if w == nil {
		return d * d
	}
	return w[k] * (d * d)
}

// search is Algorithm 2 as a bounded best-first search. Instead of the
// paper's strictly-improving hill climb — which stalls on the
// similarity plateaus that flipped components create — faces are
// expanded in increasing distance order, and the search stops once
// patience consecutive expansions fail to improve on the best face
// seen. This keeps the local, O(n²)-per-localization character of
// Algorithm 2 while tolerating plateaus.
func (b *Batch) search(v vector.Vector, prev *field.Face, w []float64, ternary bool) (best faceEntry, visited, rounds int) {
	div := b.Div
	start := prev
	if start == nil {
		start = div.FaceAt(div.Field.Center())
	}
	if len(b.seen) != len(div.Faces) {
		b.seen = make([]uint32, len(div.Faces))
		b.epoch = 0
	}
	b.epoch++
	if b.epoch == 0 { // epoch wrapped: clear the stale marks once
		clear(b.seen)
		b.epoch = 1
	}
	epoch, seen := b.epoch, b.seen
	seen[start.ID] = epoch

	h := b.frontier[:0]
	h = h.push(faceEntry{d2: b.d2(v, w, start.ID, ternary), id: start.ID})
	best = h[0]
	visited = 1
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
			if seen[nb] == epoch {
				continue
			}
			seen[nb] = epoch
			visited++
			var d2 float64
			switch {
			case ternary:
				d2 = b.pop.d2(nb)
			case b.Incremental && face.NeighborDiffs != nil:
				// Patch only the components that differ across the link.
				d2 = e.d2
				nbSig := div.Faces[nb].Signature
				for _, k := range face.NeighborDiffs[ni] {
					if !v[k].IsStar() {
						d2 += term(v[k], nbSig[k], w, k) - term(v[k], face.Signature[k], w, k)
					}
				}
				if d2 < 0 { // guard against rounding just below zero
					d2 = 0
				}
			default:
				d2 = floatD2(v, div.Faces[nb].Signature, w)
			}
			h = h.push(faceEntry{d2: d2, id: nb})
		}
	}
	b.frontier = h[:0] // retain the grown backing array for the next lane
	return best, visited, rounds
}

// scan is the exhaustive match: every face's Def. 7 similarity from the
// lane kernel's d², the maximum-similarity faces tied and their
// centroids averaged.
func (b *Batch) scan(v vector.Vector, w []float64, ternary bool) Result {
	div := b.Div
	best := math.Inf(-1)
	var winner *field.Face
	ties := b.ties[:0]
	for i := range div.Faces {
		s := simOf(b.d2(v, w, i, ternary))
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
