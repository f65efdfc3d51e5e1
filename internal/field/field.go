// Package field divides the monitor area into faces and builds their
// signature vectors, the preprocessing phase of Sec. 4.3.
//
// Exact face extraction from the arrangement of O(n²) Apollonius-circle
// pairs is a hard computational-geometry problem; the paper instead uses
// the approximate grid division of Sec. 4.3: overlay a square grid,
// compute each cell's signature vector, and group cells with identical
// signatures into faces (Lemma 1). Face centroids come from eq. 5, and
// neighbor-face links (Def. 8 / Theorem 1) come from 4-connected cell
// adjacency between cells of different faces.
package field

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"fttt/internal/geom"
	"fttt/internal/vector"
)

// RatioClassifier classifies by distance ratio against the uncertainty
// constant C of eq. 3: value +1 iff d_i ≤ d_j / C, -1 iff d_i ≥ C·d_j,
// else 0. C == 1 degenerates to the certain perpendicular-bisector
// division used by the sequence-matching baselines (Fig. 3(a)); C > 1
// yields the Apollonius-bounded uncertain areas (Fig. 3(b)).
type RatioClassifier struct {
	Nodes []geom.Point
	C     float64
}

// NewRatioClassifier validates and returns a ratio classifier.
func NewRatioClassifier(nodes []geom.Point, c float64) (*RatioClassifier, error) {
	if c < 1 {
		return nil, fmt.Errorf("field: uncertainty constant C must be >= 1, got %v", c)
	}
	if len(nodes) < 2 {
		return nil, fmt.Errorf("field: need at least 2 nodes, got %d", len(nodes))
	}
	return &RatioClassifier{Nodes: nodes, C: c}, nil
}

// NumNodes returns the number of nodes the classifier covers.
func (rc *RatioClassifier) NumNodes() int { return len(rc.Nodes) }

// Classify assigns the geometric node-pair value of p: for the pair
// (i, j) with i < j it returns Nearer (+1) when p is firmly nearer node
// i, Farther (-1) when firmly nearer node j, and Flipped (0) inside the
// pair's uncertain area. Divide runs the same test inlined over a whole
// cell (codeRow).
func (rc *RatioClassifier) Classify(p geom.Point, i, j int) vector.Value {
	di, dj := p.Dist(rc.Nodes[i]), p.Dist(rc.Nodes[j])
	switch {
	case di*rc.C <= dj:
		return vector.Nearer
	case dj*rc.C <= di:
		return vector.Farther
	default:
		return vector.Flipped
	}
}

// Signature returns the full signature vector of point p (Def. 6).
func Signature(c *RatioClassifier, p geom.Point) vector.Vector {
	n, k := c.NumNodes(), 0
	v := vector.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v[k] = c.Classify(p, i, j)
			k++
		}
	}
	return v
}

// Face is one equivalence class of grid cells sharing a signature vector.
type Face struct {
	// ID indexes the face within its Division.
	ID int
	// Signature is the face's signature vector (Lemma 1: unique per face)
	// as its ternary codes, +1, 0 or −1 per node pair: a read-only view
	// of the face's row in the division's SigSoA.Rows.
	Signature []int8
	// Centroid is the mean of the member cell centres (eq. 5) — the
	// location estimate reported when the target matches this face.
	Centroid geom.Point
	// Cells is the number of member grid cells; Cells × cellArea
	// approximates the face area (intra-face error of Sec. 5.2).
	Cells int
	// Neighbors lists the IDs of faces sharing at least one 4-connected
	// cell edge with this face, in ascending order.
	Neighbors []int
	// NeighborDiffs[i] lists the signature components in which this face
	// differs from Neighbors[i] — usually exactly one (Theorem 1). The
	// incremental matcher uses it to update a match distance in O(|diff|)
	// per hop instead of recomputing all C(n,2) components.
	NeighborDiffs [][]int
}

// Division is the preprocessed monitor area: the face set, the
// signature store, and the cell-to-face raster.
type Division struct {
	Field    geom.Rect
	CellSize float64
	Cols     int
	Rows     int
	Faces    []Face

	// cellFace[r*Cols+c] is the face ID of the cell at column c, row r.
	cellFace []int
	// soa is the signature store every Face.Signature views. Built once
	// alongside the faces, immutable.
	soa *SigSoA
}

// SoA returns the division's signature store: the int8 code rows and
// their bitplanes.
func (d *Division) SoA() *SigSoA { return d.soa }

// dimEps guards the ceiling grid division against floating-point noise:
// an extent/cellSize quotient within 1e-9 of an integer counts as exact.
const dimEps = 1e-9

// gridDims returns the cell counts per axis for the approximate grid
// division: ⌈extent/cellSize⌉, so the grid always covers the whole field.
// When cellSize does not divide an extent the last row/column of cells
// overhangs the field's max edge (previously the count was rounded to
// nearest, which could leave up to half a cell of the field uncovered).
// A cell larger than either field extent is rejected.
func gridDims(fieldRect geom.Rect, cellSize float64) (cols, rows int, err error) {
	if cellSize <= 0 {
		return 0, 0, fmt.Errorf("field: non-positive cell size %v", cellSize)
	}
	if cellSize > fieldRect.Width() || cellSize > fieldRect.Height() {
		return 0, 0, fmt.Errorf("field: cell size %v too large for field %vx%v",
			cellSize, fieldRect.Width(), fieldRect.Height())
	}
	cols = int(math.Ceil(fieldRect.Width()/cellSize - dimEps))
	rows = int(math.Ceil(fieldRect.Height()/cellSize - dimEps))
	return cols, rows, nil
}

// Divide performs the approximate grid division of Sec. 4.3 with square
// cells of the given size. Cell centres follow Fig. 6(b): the bottom-left
// cell centre is the origin corner plus half a cell; the grid has
// ⌈extent/cellSize⌉ cells per axis, so for non-dividing cell sizes the
// last row/column overhangs the field (the field is always fully
// covered). The signature pass is fanned across runtime.NumCPU() workers;
// the result is identical for every worker count (see DivideWorkers).
func Divide(fieldRect geom.Rect, classifier *RatioClassifier, cellSize float64) (*Division, error) {
	return DivideWorkers(fieldRect, classifier, cellSize, runtime.NumCPU())
}

// DivideWorkers is Divide with an explicit worker count for the signature
// pass (≤ 1 selects the serial path). The division is deterministic and
// byte-identical for every worker count: face IDs follow the row-major
// first-appearance order of the serial scan — row shards are merged in
// shard order, and a shard's local first appearances are already in
// row-major order, so the concatenation reproduces the global scan order
// exactly — and centroids are accumulated in a separate serial row-major
// pass so float summation order never depends on the sharding.
func DivideWorkers(fieldRect geom.Rect, classifier *RatioClassifier, cellSize float64, workers int) (*Division, error) {
	cols, rows, err := gridDims(fieldRect, cellSize)
	if err != nil {
		return nil, err
	}
	d := &Division{Field: fieldRect, CellSize: cellSize, Cols: cols, Rows: rows, cellFace: make([]int, cols*rows)}

	// Each shard's face table is sized for its band's cells, which bound
	// its faces; shard 0's, which the others merge into, for every cell.
	sw := newRowSweep(d, classifier)
	shards := max(min(workers, rows), 1)
	coders := make([]*cellCoder, shards)
	var wg sync.WaitGroup
	for s := range coders {
		start, end := s*rows/shards, (s+1)*rows/shards
		cells := (end - start) * cols
		if s == 0 {
			cells = rows * cols
		}
		cc := newCellCoder(classifier, cells)
		cc.startRow, cc.endRow, coders[s] = start, end, cc
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := cc.startRow; r < cc.endRow; r++ {
				cc.sweepRow(sw, r, d.cellFace[r*cols:(r+1)*cols])
			}
		}()
	}
	wg.Wait()

	// Merge into shard 0's table in shard order, renumbering each later
	// shard's band of the raster from local to global face IDs.
	global := coders[0].faces
	for _, cc := range coders[1:] {
		remap := make([]int, cc.faces.n)
		for li, h := range cc.faces.hashes {
			remap[li] = global.internHashed(cc.faces.row(li), h)
		}
		for i := cc.startRow * cols; i < cc.endRow*cols; i++ {
			d.cellFace[i] = remap[d.cellFace[i]]
		}
	}
	return d.finish(global, 1), nil
}

// CellCenter returns the centre of the cell at column c, row r.
func (d *Division) CellCenter(c, r int) geom.Point {
	return geom.Pt(
		d.Field.Min.X+(float64(c)+0.5)*d.CellSize,
		d.Field.Min.Y+(float64(r)+0.5)*d.CellSize,
	)
}

// CellOf returns the grid cell containing p, clamped to the grid.
func (d *Division) CellOf(p geom.Point) (c, r int) {
	c = int((p.X - d.Field.Min.X) / d.CellSize)
	r = int((p.Y - d.Field.Min.Y) / d.CellSize)
	return min(max(c, 0), d.Cols-1), min(max(r, 0), d.Rows-1)
}

// FaceAt returns the face containing the point p (by its grid cell).
func (d *Division) FaceAt(p geom.Point) *Face {
	c, r := d.CellOf(p)
	return &d.Faces[d.cellFace[r*d.Cols+c]]
}

// NumFaces returns the number of distinct faces.
func (d *Division) NumFaces() int { return len(d.Faces) }

// CellArea returns the area of one grid cell.
func (d *Division) CellArea() float64 { return d.CellSize * d.CellSize }

// MeanFaceArea returns the average face area in m².
func (d *Division) MeanFaceArea() float64 {
	if len(d.Faces) == 0 {
		return 0
	}
	return d.Field.Area() / float64(len(d.Faces))
}

// NeighborLinkCount returns the total number of undirected neighbor links
// |L| (Sec. 4.4: O(n⁴) like the face count).
func (d *Division) NeighborLinkCount() int {
	total := 0
	for _, f := range d.Faces {
		total += len(f.Neighbors)
	}
	return total / 2
}

// UncertainFraction returns the fraction of grid cells whose signature has
// at least one Flipped component — an estimate of how much of the field
// lies in some pair's uncertain area (Fig. 3's shrinking certain faces).
func (d *Division) UncertainFraction() float64 {
	if d.Cols*d.Rows == 0 {
		return 0
	}
	cells := 0
	for _, f := range d.Faces {
		if slices.Contains(f.Signature, 0) {
			cells += f.Cells
		}
	}
	return float64(cells) / float64(d.Cols*d.Rows)
}
