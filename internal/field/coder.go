package field

import (
	"fmt"
	"slices"

	"fttt/internal/geom"
	"fttt/internal/vector"
)

// cellCoder is one worker's share of the signature pass: it classifies
// grid cells straight into int8 code rows and interns every distinct
// row as a face, in first-appearance order. A RatioClassifier's rows are
// its ternary codes, written by an inlined ratio test; any other
// classifier is asked pair by pair, and its values are interned into a
// code alphabet (pairValues) that finish turns into quantized codes.
type cellCoder struct {
	rc     *RatioClassifier // nil: classify through pc and values
	pc     PairClassifier
	values *pairValues
	row    []byte
	dist   []float64 // codeRow scratch: n distances, then n C-multiples
	index  map[string]int
	keys   []string // face ID → its code row, as the index key
	rows   []int8   // the same rows, face-major: the store's Rows slab

	startRow, endRow int // the row band a DivideWorkers shard covers
}

func newCellCoder(pc PairClassifier) *cellCoder {
	n := pc.NumNodes()
	cc := &cellCoder{pc: pc, row: make([]byte, vector.NumPairs(n)), index: make(map[string]int)}
	if rc, ok := pc.(*RatioClassifier); ok {
		cc.rc, cc.dist = rc, make([]float64, 2*n)
	} else {
		cc.values = &pairValues{byKey: make(map[string]byte)}
		cc.values.decode[starByte] = vector.Star
	}
	return cc
}

// classify fills the coder's row with p's codes and returns it.
func (cc *cellCoder) classify(p geom.Point) []byte {
	if cc.rc != nil {
		cc.rc.codeRow(cc.row, p, cc.dist)
		return cc.row
	}
	for k, v := range Signature(cc.pc, p) {
		cc.row[k] = cc.values.code(v)
	}
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

// starByte is vector.StarCode as a code-row byte.
const starByte = 0x80

// pairValues is a custom classifier's code alphabet. Star takes
// StarCode; every other value takes the next free byte, one per
// distinct Vector.Key fragment, so code rows group cells exactly as
// signature keys do. At most 255 distinct values fit.
type pairValues struct {
	byKey  map[string]byte
	decode [256]vector.Value // code byte → the first value seen for it
	err    error
}

func (pv *pairValues) code(v vector.Value) byte {
	if v.IsStar() {
		return starByte
	}
	key := vector.Vector{v}.Key()
	c, ok := pv.byKey[key]
	if !ok {
		if len(pv.byKey) == 255 {
			pv.err = fmt.Errorf("field: classifier emits more than 255 distinct pair values")
			return 0
		}
		c = byte(len(pv.byKey))
		if c >= starByte {
			c++
		}
		pv.byKey[key] = c
		pv.decode[c] = v
	}
	return c
}

// finish lays the interned rows out as the division's row store and
// assembles the division: cell counts, centroids and neighbours from
// the raster (block as in faceGeometry), then the shared assembly. A
// RatioClassifier's rows are final ternary codes; a custom classifier's
// are quantized when one denominator represents every value, and are
// otherwise kept as symbols for a division without an SoA store.
func (d *Division) finish(cc *cellCoder, block int) (*Division, error) {
	if cc.values != nil && cc.values.err != nil {
		return nil, cc.values.err
	}
	nf, dim := len(cc.keys), len(cc.row)
	s := &SigSoA{NumFaces: nf, Dim: dim, Denom: 1, Rows: cc.rows, Words: (dim + 63) / 64}
	var symbols *[256]vector.Value
	if pv := cc.values; pv != nil {
		// Unassigned codes decode to 0, which every denominator represents.
		if s.Denom = vector.CommonDenominator(pv.decode[:]); s.Denom > 0 {
			for i, c := range s.Rows { // CommonDenominator vouched for every value
				s.Rows[i], _ = vector.Quantize(pv.decode[uint8(c)], s.Denom)
			}
		} else {
			symbols = &pv.decode
		}
	}
	d.faceGeometry(nf, block)
	if err := d.assemble(s, symbols); err != nil {
		return nil, err
	}
	return d, nil
}
