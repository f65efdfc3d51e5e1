package field

import (
	"math"
	"math/bits"

	"fttt/internal/geom"
	"fttt/internal/vector"
)

// cellCoder is one worker's share of the signature pass: it classifies
// grid cells straight into ternary int8 code rows, one grid row at a
// time (sweepRow), and interns every distinct row as a face, in
// first-appearance order.
type cellCoder struct {
	rc    *RatioClassifier
	row   []int8    // the current cell's code row
	dist  []float64 // codeRow scratch: n distances, then n C-multiples
	dy2   []float64 // per node: squared y offset of the swept row
	faces *faceTable

	// The swept row's schedule: each pair's scheduled cells (evCell,
	// evPair), bucketed by cell into order (cell c's pairs are
	// order[start[c]:start[c+1]]), and the pairs evaluated at every cell.
	evCell, evPair, order, start, dense []int32

	startRow, endRow int // the row band a DivideWorkers shard covers
}

// newCellCoder returns a coder whose face table is sized for faces
// faces and grows past that only if it must: a band's cell count bounds
// its faces.
func newCellCoder(rc *RatioClassifier, faces int) *cellCoder {
	n, dim := rc.NumNodes(), vector.NumPairs(rc.NumNodes())
	return &cellCoder{rc: rc, row: make([]int8, dim), dist: make([]float64, 2*n), dy2: make([]float64, n),
		faces: newFaceTable(dim, make([]int8, 0, faces*dim), faces)}
}

// classify fills the coder's row with p's codes and returns it.
func (cc *cellCoder) classify(p geom.Point) []int8 {
	cc.rc.codeRow(cc.row, p, cc.dist)
	return cc.row
}

// codeRow writes the ternary codes of p's C(n,2) pairs into row, in
// signature order: Classify's ratio test with each node distance, and
// its C-multiple, computed once per cell into dist (2n floats).
func (rc *RatioClassifier) codeRow(row []int8, p geom.Point, dist []float64) {
	n := len(rc.Nodes)
	d, dc := dist[:n], dist[n:2*n]
	for i, node := range rc.Nodes {
		d[i] = p.Dist(node)
		dc[i] = d[i] * rc.C
	}
	k := 0
	for i, di := range d {
		dci, rest, restC := dc[i], d[i+1:], dc[i+1:]
		restC = restC[:len(rest)]
		out := row[k : k+len(rest)]
		for j, dj := range rest {
			out[j] = code(dci <= dj, restC[j] <= di)
		}
		k += len(rest)
	}
}

// code is a pair's ternary code from its two ratio tests, branch-free
// on a random sign pattern: Nearer is the byte 0x01, Farther 0xFF,
// Flipped 0; Nearer wins a C = 1 tie.
func code(nearer, farther bool) int8 {
	near, far := b2u(nearer), b2u(farther)
	return int8(near | -(far &^ near))
}

func b2u(b bool) byte {
	var x byte
	if b {
		x = 1
	}
	return x
}

// finish lays the interned rows out as the division's row store and
// assembles the division: cell counts, centroids and neighbours from
// the raster (block as in faceGeometry), then the shared assembly.
func (d *Division) finish(t *faceTable, block int) *Division {
	d.faceGeometry(t.n, block)
	d.assemble(&SigSoA{NumFaces: t.n, Dim: t.dim, Rows: t.exactRows(), Words: (t.dim + 63) / 64})
	return d
}

// faceTable interns code rows as faces: an open-addressed table of face
// IDs over a face-major slab of their rows. A row's hash is linear in
// its codes, Σ code_k·w_k over fixed pseudo-random weights, so a caller
// that changes a few codes of a row can update its hash in O(changes)
// (sweepRow does); a lookup compares the row only with the rows its
// probes land on. Nothing is allocated per row, and the slab grows only
// past the face count it was sized for.
type faceTable struct {
	dim    int
	n      int      // faces interned
	rows   []int8   // face f's row is rows[f*dim:(f+1)*dim]
	hashes []uint64 // face f's hash
	slots  []int32  // face ID + 1, 0 when free; a power of two long
	w      []uint64 // the hash weights, one per component
}

// newFaceTable returns an empty table over slab (length 0), with slots
// for faces faces at most half full.
func newFaceTable(dim int, slab []int8, faces int) *faceTable {
	w := make([]uint64, dim)
	for k := range w {
		w[k] = mix64(uint64(k) + 1)
	}
	return &faceTable{dim: dim, rows: slab, hashes: make([]uint64, 0, faces),
		slots: make([]int32, 1<<bits.Len(uint(2*faces))), w: w}
}

// row returns face f's row.
func (t *faceTable) row(f int) []int8 { return t.rows[f*t.dim : (f+1)*t.dim] }

// hash returns row's linear hash.
func (t *faceTable) hash(row []int8) uint64 {
	var h uint64
	w := t.w[:len(row)]
	for k, c := range row {
		h += uint64(int64(c)) * w[k]
	}
	return h
}

// intern returns row's face ID, appending the row as a new face the
// first time it is seen.
func (t *faceTable) intern(row []int8) int { return t.internHashed(row, t.hash(row)) }

// internHashed is intern for a row whose hash the caller has: h must
// be t.hash(row).
func (t *faceTable) internHashed(row []int8, h uint64) int {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	for s := mix64(h) & mask; ; s = (s + 1) & mask {
		id := int(t.slots[s]) - 1
		if id < 0 {
			t.slots[s] = int32(t.n + 1)
			t.rows = append(t.rows, row...)
			t.hashes = append(t.hashes, h)
			t.n++
			return t.n - 1
		}
		if t.hashes[id] == h && rowsEqual(t.row(id), row) {
			return id
		}
	}
}

// grow doubles the slots and re-places every face.
func (t *faceTable) grow() {
	t.slots = make([]int32, 2*len(t.slots))
	mask := uint64(len(t.slots) - 1)
	for f, h := range t.hashes {
		s := mix64(h) & mask
		for t.slots[s] != 0 {
			s = (s + 1) & mask
		}
		t.slots[s] = int32(f + 1)
	}
}

// exactRows returns the interned rows in a slab of exactly their size.
func (t *faceTable) exactRows() []int8 {
	if cap(t.rows) == len(t.rows) {
		return t.rows
	}
	rows := make([]int8, len(t.rows))
	copy(rows, t.rows)
	return rows
}

// mix64 is the SplitMix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// rowsEqual reports whether two rows hold the same codes, comparing
// eight at a time.
func rowsEqual(a, b []int8) bool {
	if len(a) != len(b) {
		return false
	}
	k := 0
	for ; k+8 <= len(a); k += 8 {
		if load8(a[k:]) != load8(b[k:]) {
			return false
		}
	}
	for ; k < len(a); k++ {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}

// rowSweep is the read-only, per-division half of the row sweep that
// every shard shares.
//
// Along one grid row a pair's code changes only where the row crosses
// the pair's two Apollonius circles (eq. 3-4): for C > 1 the circle
// around node i inside which a point is Nearer and the one around node
// j inside which it is Farther; for C = 1 both are the bisector. So a
// row's codes are carried from cell to cell, and a pair is evaluated
// only at the cells around its crossings (schedule). Between them the
// carried code stands, which is sound only where codeRow's float
// predicate cannot flip: schedule checks that on every carried stretch
// both ratio tests keep one sign with a margin far above float
// rounding, and a pair whose row fails the check is evaluated at every
// cell of it. The check covers what the crossing points cannot show
// safe on their own: ties on a row along a C = 1 bisector, rows that
// graze a circle, and crossings placed off by rounding. C within 5e-7
// of 1 (but not 1) is not swept at all: its circles are so large that
// their centres, which the check evaluates at, lose too many bits.
//
// The tests are the signs of two quadratics in x along the row,
// gN = C²·q_i − q_j (Nearer iff gN ≤ 0) and gF = C²·q_j − q_i, with q
// the squared node distances from a cell centre. With X and Y bounding
// every coordinate's magnitude, q ≤ 4(X²+Y²), and evaluating g in
// floats errs by a few ulps of (C²+1)·4(X²+Y²). codeRow's predicate
// C·d_i ≤ d_j rounds its two sides by a few ulps of C·d_i + d_j, and
// C·d_i − d_j = gN/(C·d_i + d_j), so it can only disagree with gN's
// sign where |gN| is within a few ulps of (C+1)²·4(X²+Y²) of zero. The
// margin is 1e-8·(C²+1)·4(X²+Y²), millions of ulps clear of both: where
// g clears it, its sign is codeRow's answer, and an evaluation needs the
// node distances (codeAt) only at a near-tie.
type rowSweep struct {
	d       *Division
	rc      *RatioClassifier
	c2      float64 // C·C
	margin  float64 // the smallest |g| whose sign is trusted
	perCell float64 // 1/CellSize, to place crossings
	exact   bool    // no sweep: evaluate every pair at every cell
	pairs   []sweepPair
}

// sweepPair is one node pair: its nodes and, for C > 1, the circles
// bounding its Nearer and Farther regions (geom.Apollonius).
type sweepPair struct {
	i, j      int
	xi, xj    float64 // the nodes' x
	near, far geom.Circle
}

// newRowSweep plans the sweep of d's grid for rc.
func newRowSweep(d *Division, rc *RatioClassifier) *rowSweep {
	sw := &rowSweep{d: d, rc: rc, c2: rc.C * rc.C, perCell: 1 / d.CellSize}
	lo, hi := d.CellCenter(0, 0), d.CellCenter(d.Cols-1, d.Rows-1)
	x, y := max(math.Abs(lo.X), math.Abs(hi.X)), max(math.Abs(lo.Y), math.Abs(hi.Y))
	for _, p := range rc.Nodes {
		x, y = max(x, math.Abs(p.X)), max(y, math.Abs(p.Y))
	}
	sw.margin = 1e-8 * (sw.c2 + 1) * 4 * (x*x + y*y)
	sw.exact = (sw.c2 != 1 && sw.c2-1 < 1e-6) || !(sw.margin < math.MaxFloat64)
	n := len(rc.Nodes)
	sw.pairs = make([]sweepPair, 0, vector.NumPairs(n))
	for i := range n {
		for j := i + 1; j < n; j++ {
			p := sweepPair{i: i, j: j, xi: rc.Nodes[i].X, xj: rc.Nodes[j].X}
			if sw.c2 != 1 {
				// d(x, node j) = C·d(x, node i) bounds the Nearer region.
				p.near, _ = geom.Apollonius(rc.Nodes[j], rc.Nodes[i], rc.C)
				p.far, _ = geom.Apollonius(rc.Nodes[i], rc.Nodes[j], rc.C)
			}
			sw.pairs = append(sw.pairs, p)
		}
	}
	return sw
}

// maxScheduled bounds one pair's scheduled cells on a row: one per
// crossing, of at most four.
const maxScheduled = 4

// schedule writes the cells at which pair p must be evaluated on the
// row at y (dy2 holds each node's squared y offset) into out, ascending
// and excluding cell 0, and returns how many there are. ok is false
// when a carried stretch cannot be shown safe: the pair must then be
// evaluated at every cell.
//
// A crossing at continuous cell coordinate u (cell c's centre is at
// u = c) schedules the first cell at or after it, ⌈u⌉. The stretches
// between crossings, which steady checks, each start on a scheduled
// cell (or cell 0) and end on the cell before the next crossing's.
func (sw *rowSweep) schedule(p *sweepPair, y float64, dy2 []float64, out *[maxScheduled]int32) (n int, ok bool) {
	if sw.exact {
		return 0, false
	}
	d := sw.d
	var xs [4]float64
	m := 0
	if sw.c2 == 1 {
		// The bisector: q_i − q_j = (x_j − x_i)(2x − x_i − x_j) + dy_i² − dy_j².
		if p.xi != p.xj {
			xs[0] = (p.xi + p.xj + (dy2[p.j]-dy2[p.i])/(p.xj-p.xi)) / 2
			m = 1
		}
	} else {
		// The row crosses a circle where (x − c.X)² = R² − (y − c.Y)²:
		// geom.CircleLineIntersect for a horizontal line.
		for _, c := range [2]*geom.Circle{&p.near, &p.far} {
			if h2 := c.R*c.R - (y-c.C.Y)*(y-c.C.Y); h2 > 0 {
				h := math.Sqrt(h2)
				xs[m], xs[m+1] = c.C.X-h, c.C.X+h
				m += 2
			}
		}
	}
	var us [4]float64
	k := 0
	for _, x := range xs[:m] {
		if u := (x-d.Field.Min.X)*sw.perCell - 0.5; u > -1 && u <= float64(d.Cols-1) {
			j := k // insertion sort of at most four crossings
			for ; j > 0 && us[j-1] > u; j-- {
				us[j] = us[j-1]
			}
			us[j] = u
			k++
		}
	}
	start := 0
	for _, u := range us[:k] {
		c := int(math.Ceil(u))
		if c <= start {
			continue // no cell between this crossing and the last
		}
		if !sw.steady(p, dy2, start, c-1) {
			return 0, false
		}
		out[n] = int32(c)
		n++
		start = c
	}
	return n, sw.steady(p, dy2, start, d.Cols-1)
}

// steady reports whether both of p's ratio tests keep one sign, clear
// of the margin, on cells a..b of the row (a ≤ b). Each test is
// checked at both ends. For C > 1 the quadratics are convex: one that
// is clear below −margin at both ends is so between them, and one that
// is clear above +margin is also checked at its vertex (its circle
// centre's x) when that lies between the ends.
func (sw *rowSweep) steady(p *sweepPair, dy2 []float64, a, b int) bool {
	xa, xb := sw.cellX(a), sw.cellX(b)
	na, fa := sw.tests(p, dy2, xa)
	nb, fb := sw.tests(p, dy2, xb)
	if !sw.firm(na, nb) || !sw.firm(fa, fb) {
		return false
	}
	if sw.c2 == 1 {
		return true // linear in x: the ends bound the stretch
	}
	if v := p.near.C.X; na > 0 && xa < v && v < xb {
		if nv, _ := sw.tests(p, dy2, v); !sw.firm(na, nv) {
			return false
		}
	}
	if v := p.far.C.X; fa > 0 && xa < v && v < xb {
		if _, fv := sw.tests(p, dy2, v); !sw.firm(fa, fv) {
			return false
		}
	}
	return true
}

// tests evaluates p's two quadratics gN and gF at x on the row.
func (sw *rowSweep) tests(p *sweepPair, dy2 []float64, x float64) (gn, gf float64) {
	qi := (x-p.xi)*(x-p.xi) + dy2[p.i]
	qj := (x-p.xj)*(x-p.xj) + dy2[p.j]
	return sw.c2*qi - qj, sw.c2*qj - qi
}

// firm reports whether g0 and g1 share a sign, both clear of the margin.
func (sw *rowSweep) firm(g0, g1 float64) bool {
	m := sw.margin
	return (g0 >= m && g1 >= m) || (g0 <= -m && g1 <= -m)
}

// codeAt is pair p's code at q, a cell centre on the row: codeRow's
// value, read off the tests' signs unless one is within the margin of
// a tie.
func (sw *rowSweep) codeAt(p *sweepPair, dy2 []float64, q geom.Point) int8 {
	gn, gf := sw.tests(p, dy2, q.X)
	if m := sw.margin; (gn >= m || gn <= -m) && (gf >= m || gf <= -m) {
		return code(gn < 0, gf < 0)
	}
	di, dj := q.Dist(sw.rc.Nodes[p.i]), q.Dist(sw.rc.Nodes[p.j])
	return code(di*sw.rc.C <= dj, dj*sw.rc.C <= di)
}

// cellX is the x of column c's cell centres (CellCenter's).
func (sw *rowSweep) cellX(c int) float64 {
	return sw.d.Field.Min.X + (float64(c)+0.5)*sw.d.CellSize
}

// sweepRow classifies grid row r into ids, one face ID per column. Cell
// 0 runs codeRow; every later cell carries the previous cell's codes,
// re-evaluates the pairs scheduled on it, and looks its row up only if
// a code changed: otherwise it is the left neighbour's face.
func (cc *cellCoder) sweepRow(sw *rowSweep, r int, ids []int) {
	d, rc := sw.d, cc.rc
	cols := len(ids)
	p := d.CellCenter(0, r)
	ids[0] = cc.faces.intern(cc.classify(p))

	// Schedule: each pair's cells, bucketed by cell.
	for i, node := range rc.Nodes {
		cc.dy2[i] = (p.Y - node.Y) * (p.Y - node.Y)
	}
	cc.evCell, cc.evPair, cc.dense = cc.evCell[:0], cc.evPair[:0], cc.dense[:0]
	start := append(cc.start[:0], make([]int32, cols+1)...)
	var cells [maxScheduled]int32
	for k := range sw.pairs {
		m, ok := sw.schedule(&sw.pairs[k], p.Y, cc.dy2, &cells)
		if !ok {
			cc.dense = append(cc.dense, int32(k))
			continue
		}
		for _, c := range cells[:m] {
			cc.evCell = append(cc.evCell, c)
			cc.evPair = append(cc.evPair, int32(k))
			start[c]++
		}
	}
	// A counting sort: the per-cell counts become running ends, and
	// filling backwards leaves start[c] at cell c's first pair.
	for c := 1; c <= cols; c++ {
		start[c] += start[c-1]
	}
	order := append(cc.order[:0], make([]int32, len(cc.evCell))...)
	for e := len(cc.evCell) - 1; e >= 0; e-- {
		c := cc.evCell[e]
		start[c]--
		order[start[c]] = cc.evPair[e]
	}
	cc.start, cc.order = start, order

	// Sweep, keeping the row's hash current as codes change.
	h, w := cc.faces.hash(cc.row), cc.faces.w
	for c := 1; c < cols; c++ {
		id := ids[c-1]
		if evs := order[start[c]:start[c+1]]; len(evs) > 0 || len(cc.dense) > 0 {
			q := d.CellCenter(c, r)
			changed := false
			for _, list := range [2][]int32{evs, cc.dense} {
				for _, k := range list {
					v, old := sw.codeAt(&sw.pairs[k], cc.dy2, q), cc.row[k]
					h += uint64(int64(v)-int64(old)) * w[k]
					cc.row[k] = v
					changed = changed || v != old
				}
			}
			if changed {
				id = cc.faces.internHashed(cc.row, h)
			}
		}
		ids[c] = id
	}
}
