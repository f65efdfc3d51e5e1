package match

import (
	"math"
	"math/bits"

	"fttt/internal/field"
	"fttt/internal/vector"
)

// Batch scores many sampling vectors per pass against the division's
// structure-of-arrays signature store (field.SigSoA) and is
// proven byte-identical to running the serial matchers lane by lane:
// every lane reproduces Heuristic.Match (or Exhaustive.Match with
// Exhaustive set) bit for bit — same face, same similarity, same
// estimate, same Visited/Rounds/Tied/FellBack statistics — for any
// batch size and any split of the same lanes across calls.
//
// Why it is faster than N serial matches: the hot operation is the
// Def. 8 squared modified distance, and for the ternary/Star queries of
// the Basic variant (the common case) the store's bitplanes collapse it
// from a C(n,2)-iteration float64 loop to a handful of AND/OR/popcount
// words — each component difference is 0, 1 or 4, so
//
//	d² = 4·|sign flips| + 1·|one-sided zeros|
//
// counted 64 pairs at a time, and the float64 sum the serial matcher
// computes is exactly this integer (all partial sums are small integers,
// which float64 represents exactly regardless of association order).
// Fractional (Def. 10) query lanes take a float path that replays the
// serial operation order verbatim — no speedup, same bits.
//
// Like Heuristic, a Batch owns reusable scratch and is single-goroutine;
// the Division (and its SoA store) is immutable and may be shared.
type Batch struct {
	Div *field.Division
	// Patience, Incremental, Fallback, FallbackBelow mirror Heuristic's
	// knobs and must be set identically to the serial matcher a caller
	// wants batch results to agree with.
	Patience      int
	Incremental   bool
	Fallback      bool
	FallbackBelow float64
	// Exhaustive selects per-lane Exhaustive.Match semantics (full face
	// scan with tie averaging) instead of the Algorithm 2 search.
	Exhaustive bool

	// Per-lane heuristic search scratch, exactly Heuristic's shape.
	seen     []uint32
	epoch    uint32
	frontier faceHeap
	// Query bitplanes for the ternary integer kernel. qAny and qZero are
	// derived per lane (qAny = qPos|qNeg, qZero = qMask&^qAny) so the hot
	// loop does not recompute them per face.
	qPos, qNeg, qMask, qAny, qZero []uint64
	// ties is the exhaustive-mode tie scratch.
	ties []*field.Face
}

// MatchBatch scores vs[i] warm-started from prevs[i] (nil for a cold
// start; prevs itself may be nil for all-cold batches) and appends one
// Result per lane to dst, which is returned. Lanes are independent:
// result i depends only on (vs[i], prevs[i]), so any regrouping of the
// same lanes across calls produces identical bytes. Steady-state the
// call performs zero heap allocations when dst has capacity (heuristic
// mode; exhaustive tie averaging allocates like the serial matcher
// does).
func (b *Batch) MatchBatch(dst []Result, vs []vector.Vector, prevs []*field.Face) []Result {
	for i := range vs {
		var prev *field.Face
		if prevs != nil {
			prev = prevs[i]
		}
		dst = append(dst, b.matchOne(vs[i], prev))
	}
	return dst
}

// matchOne scores a single lane.
func (b *Batch) matchOne(v vector.Vector, prev *field.Face) Result {
	ternary := b.prepTernary(v)
	if b.Exhaustive {
		return b.matchExhaustive(v, ternary)
	}
	return b.matchHeuristic(v, prev, ternary)
}

// prepTernary classifies the lane: when every component is ternary or
// Star, it fills the query bitplanes and selects the integer kernel.
// Fractional components (Def. 10) select the float kernel.
func (b *Batch) prepTernary(v vector.Vector) bool {
	words := b.Div.SoA().Words
	if cap(b.qPos) < words {
		b.qPos = make([]uint64, words)
		b.qNeg = make([]uint64, words)
		b.qMask = make([]uint64, words)
		b.qAny = make([]uint64, words)
		b.qZero = make([]uint64, words)
	}
	qp := b.qPos[:words]
	qn := b.qNeg[:words]
	qm := b.qMask[:words]
	for w := 0; w < words; w++ {
		qp[w], qn[w], qm[w] = 0, 0, 0
	}
	for k, x := range v {
		switch {
		case x.IsStar():
		case x == vector.Nearer:
			qm[k/64] |= 1 << (k % 64)
			qp[k/64] |= 1 << (k % 64)
		case x == vector.Farther:
			qm[k/64] |= 1 << (k % 64)
			qn[k/64] |= 1 << (k % 64)
		case x == vector.Flipped:
			qm[k/64] |= 1 << (k % 64)
		default:
			return false
		}
	}
	qa := b.qAny[:words]
	qz := b.qZero[:words]
	for w := 0; w < words; w++ {
		a := qp[w] | qn[w]
		qa[w] = a
		qz[w] = qm[w] &^ a
	}
	return true
}

// intD2 is the bitplane kernel: the squared modified distance of the
// prepared ternary query against face f. Components where the query is
// Star (outside the query mask) contribute 0; a +1/−1 sign flip
// contributes 4; a one-sided zero contributes 1. The result is an
// integer, and equals the serial float64 accumulation bit for bit.
func (b *Batch) intD2(f int) float64 {
	soa := b.Div.SoA()
	base := f * soa.Words
	pos := soa.PosBits[base : base+soa.Words]
	neg := soa.NegBits[base : base+soa.Words]
	qp := b.qPos[:soa.Words]
	qn := b.qNeg[:soa.Words]
	qa := b.qAny[:soa.Words]
	qz := b.qZero[:soa.Words]
	var c4, c1 int
	for w := range pos {
		sp, sn := pos[w], neg[w]
		c4 += bits.OnesCount64((qp[w] & sn) | (qn[w] & sp))
		s := sp | sn
		c1 += bits.OnesCount64((qz[w] & s) | (qa[w] &^ s))
	}
	return float64(4*c4 + c1)
}

// laneD2 dispatches the full-distance computation for the lane's
// kernel: the bitplanes, or for fractional-query lanes the serial dist2
// loop, whose operation order bitwise identity requires.
func (b *Batch) laneD2(v vector.Vector, f int, ternary bool) float64 {
	if ternary {
		return b.intD2(f)
	}
	return dist2(v, b.Div.Faces[f].Signature)
}

// matchHeuristic replays Heuristic.Match over the SoA store: identical
// control flow (best-first frontier, patience stall counter, epoch-
// stamped seen marks, neighbor expansion order), with the distance
// computations swapped for the lane's kernel.
//
// Integer lanes recompute each neighbor's d² with the bitplane kernel
// even when Incremental is set: the serial incremental patch is exact
// integer arithmetic there (every term and partial sum is a small
// integer), so patched and recomputed values agree bit for bit. Float
// lanes replay the serial incremental patch — including its clamp of
// rounding noise below zero — term by term.
func (b *Batch) matchHeuristic(v vector.Vector, prev *field.Face, ternary bool) Result {
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

	var best faceEntry
	var visited, rounds int
	if ternary {
		best, visited, rounds = b.searchTernary(start, patience, epoch)
	} else {
		best, visited, rounds = b.searchFloat(v, start, patience, epoch)
	}
	curSim := math.Inf(1)
	if best.d2 > 0 {
		curSim = 1 / math.Sqrt(best.d2)
	}
	if b.Fallback && curSim < b.FallbackBelow {
		r := b.matchExhaustive(v, ternary)
		r.Visited += visited
		r.Rounds = rounds
		r.FellBack = true
		return r
	}
	return finish(&div.Faces[best.id], nil, curSim, visited, rounds)
}

// searchTernary is the Algorithm 2 frontier loop specialized for the
// bitplane kernel: slice headers and query planes are hoisted out of the
// loop and the popcount distance is written inline at both evaluation
// sites (the inliner refuses function bodies with loops on this hot
// path). Control flow is exactly searchFloat's — same frontier, same
// patience, same seen marks — so results stay bitwise serial-identical.
func (b *Batch) searchTernary(start *field.Face, patience int, epoch uint32) (best faceEntry, visited, rounds int) {
	div := b.Div
	soa := div.SoA()
	words := soa.Words
	posAll, negAll := soa.PosBits, soa.NegBits
	qp := b.qPos[:words]
	qn := b.qNeg[:words]
	qa := b.qAny[:words]
	qz := b.qZero[:words]
	seen := b.seen

	base := start.ID * words
	pos := posAll[base : base+words]
	neg := negAll[base : base+words]
	var c4, c1 int
	for w := range pos {
		sp, sn := pos[w], neg[w]
		c4 += bits.OnesCount64((qp[w] & sn) | (qn[w] & sp))
		s := sp | sn
		c1 += bits.OnesCount64((qz[w] & s) | (qa[w] &^ s))
	}

	h := b.frontier[:0]
	h = h.push(faceEntry{d2: float64(4*c4 + c1), id: start.ID})
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
		for _, nb := range div.Faces[e.id].Neighbors {
			if seen[nb] == epoch {
				continue
			}
			seen[nb] = epoch
			visited++
			base := nb * words
			pos := posAll[base : base+words]
			neg := negAll[base : base+words]
			var c4, c1 int
			for w := range pos {
				sp, sn := pos[w], neg[w]
				c4 += bits.OnesCount64((qp[w] & sn) | (qn[w] & sp))
				s := sp | sn
				c1 += bits.OnesCount64((qz[w] & s) | (qa[w] &^ s))
			}
			h = h.push(faceEntry{d2: float64(4*c4 + c1), id: nb})
		}
	}
	b.frontier = h[:0] // retain the grown backing array for the next lane
	return best, visited, rounds
}

// searchFloat is the frontier loop for fractional (Def. 10) query lanes:
// it replays the serial operation order verbatim — full distance for
// cold evaluations, the incremental per-link patch (with its clamp
// of rounding noise below zero) when enabled — so float lanes agree with
// the serial matcher bit for bit.
func (b *Batch) searchFloat(v vector.Vector, start *field.Face, patience int, epoch uint32) (best faceEntry, visited, rounds int) {
	div := b.Div
	h := b.frontier[:0]
	h = h.push(faceEntry{d2: dist2(v, start.Signature), id: start.ID})
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
			if b.seen[nb] == epoch {
				continue
			}
			b.seen[nb] = epoch
			visited++
			var d2 float64
			if b.Incremental && face.NeighborDiffs != nil {
				// The serial per-link patch, replayed.
				d2 = e.d2
				nbSig := div.Faces[nb].Signature
				for _, k := range face.NeighborDiffs[ni] {
					d2 += term(v[k], nbSig[k]) - term(v[k], face.Signature[k])
				}
				if d2 < 0 { // guard against rounding just below zero
					d2 = 0
				}
			} else {
				d2 = dist2(v, div.Faces[nb].Signature)
			}
			h = h.push(faceEntry{d2: d2, id: nb})
		}
	}
	b.frontier = h[:0] // retain the grown backing array for the next lane
	return best, visited, rounds
}

// matchExhaustive replays Exhaustive.Match over the store: for each
// face the Def. 7 similarity is 1/√d², computed from the lane kernel's
// d² — which equals the serial ordered float sum bit for bit — so the
// winner, the tie set and the averaged estimate are all identical.
func (b *Batch) matchExhaustive(v vector.Vector, ternary bool) Result {
	div := b.Div
	best := math.Inf(-1)
	var winner *field.Face
	ties := b.ties[:0]
	for i := range div.Faces {
		d := math.Sqrt(b.laneD2(v, i, ternary))
		s := math.Inf(1)
		if d != 0 {
			s = 1 / d
		}
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
