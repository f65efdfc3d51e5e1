package field

import (
	"slices"

	"fttt/internal/geom"
	"fttt/internal/vector"
)

// cellCoder is one worker's share of the signature pass: it classifies
// grid cells straight into ternary int8 code rows with an inlined ratio
// test and interns every distinct row as a face, in first-appearance
// order.
type cellCoder struct {
	rc    *RatioClassifier
	row   []byte
	dist  []float64 // codeRow scratch: n distances, then n C-multiples
	index map[string]int
	keys  []string // face ID → its code row, as the index key
	rows  []int8   // the same rows, face-major: the store's Rows slab

	startRow, endRow int // the row band a DivideWorkers shard covers
}

func newCellCoder(rc *RatioClassifier) *cellCoder {
	n := rc.NumNodes()
	return &cellCoder{rc: rc, row: make([]byte, vector.NumPairs(n)), dist: make([]float64, 2*n), index: make(map[string]int)}
}

// classify fills the coder's row with p's codes and returns it.
func (cc *cellCoder) classify(p geom.Point) []byte {
	cc.rc.codeRow(cc.row, p, cc.dist)
	return cc.row
}

// intern returns row's face ID, adding a face the first time the row
// is seen. The lookup does not allocate.
func (cc *cellCoder) intern(row []byte) int {
	if id, ok := cc.index[string(row)]; ok {
		return id
	}
	n := len(cc.rows)
	cc.rows = slices.Grow(cc.rows, len(row))[:n+len(row)]
	for k, c := range row {
		cc.rows[n+k] = int8(c)
	}
	return cc.add(string(row))
}

// add appends a face under the given index key and returns its ID; the
// caller appends its row.
func (cc *cellCoder) add(key string) int {
	id := len(cc.keys)
	cc.index[key] = id
	cc.keys = append(cc.keys, key)
	return id
}

// codeRow writes the ternary codes of p's C(n,2) pairs into row, in
// signature order: Classify's ratio test with each node distance, and
// its C-multiple, computed once per cell into dist (2n floats).
func (rc *RatioClassifier) codeRow(row []byte, p geom.Point, dist []float64) {
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
			// Branch-free on a random sign pattern: Nearer is the byte
			// 0x01, Farther 0xFF, Flipped 0; Nearer wins a C = 1 tie.
			near, far := b2u(dci <= dj), b2u(restC[j] <= di)
			out[j] = near | -(far &^ near)
		}
		k += len(rest)
	}
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
func (d *Division) finish(cc *cellCoder, block int) *Division {
	nf, dim := len(cc.keys), len(cc.row)
	d.faceGeometry(nf, block)
	d.assemble(&SigSoA{NumFaces: nf, Dim: dim, Rows: cc.rows, Words: (dim + 63) / 64})
	return d
}
