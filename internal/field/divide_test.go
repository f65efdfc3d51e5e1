package field

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"fttt/internal/deploy"
	"fttt/internal/geom"
	"fttt/internal/randx"
	"fttt/internal/vector"
)

// digestCase is one row of the division equivalence table: a spec, or
// an AdaptiveDivide build when coarse > 0, with the SHA-256 of its
// spill file.
type digestCase struct {
	name   string
	spec   Spec
	coarse float64
	want   string
}

// digestCases are the divisions TestDivideMatchesParentDigests pins.
// The digests were recorded from the float-keyed division pass that
// the code-row pass replaced, so any change to a face ID, centroid bit,
// neighbour list or signature code shows up here.
func digestCases() []digestCase {
	table1 := deploy.Random(fieldRect, 20, randx.New(6)).Positions()
	return []digestCase{
		{"table1-1m", Spec{Field: fieldRect, Nodes: table1, C: defaultC(), CellSize: 1},
			0, "fa43d1a177d822e886445a2388eda3c5ac89f65a2c1049a92779e35e16654e7d"},
		{"grid36-2m", Spec{Field: fieldRect, Nodes: deploy.Grid(fieldRect, 36).Positions(), C: defaultC(), CellSize: 2},
			0, "d1cac648bc1d98daf1af887485e910656c085e8a5e5cd64c7e0f7014a586ba8b"},
		{"grid9-c1", Spec{Field: fieldRect, Nodes: deploy.Grid(fieldRect, 9).Positions(), C: 1, CellSize: 2},
			0, "98525341cf33b8a8280019b81c3c24361f8ccb6c83d378857e1898931eaa4f0c"},
		{"grid4-0.7m", Spec{Field: fieldRect, Nodes: deploy.Grid(fieldRect, 4).Positions(), C: defaultC(), CellSize: 0.7},
			0, "92b373747cd1c75cd659f322eb3d4c9e673d52a69db6bf3e0232dc3470e1651e"},
		{"two-nodes", Spec{Field: fieldRect, Nodes: []geom.Point{geom.Pt(30, 40), geom.Pt(70, 55)}, C: defaultC(), CellSize: 1},
			0, "3ffb7f357834565aaa2c8de28705fb653893bf121fa5922772910e357c7eb45b"},
		{"adaptive-grid9", Spec{Field: fieldRect, Nodes: deploy.Grid(fieldRect, 9).Positions(), C: defaultC(), CellSize: 2},
			8, "ad061a9ac6bbb2a465767a49f03ae523d0c99798ec6d89eda9e37f19cc79c35a"},
		// 1.3 m centres are not dyadic, so this digest pins the block-walk
		// summation order of the centroids too.
		{"adaptive-table1-1.3m", Spec{Field: fieldRect, Nodes: table1, C: defaultC(), CellSize: 1.3},
			5.2, "d7a1cc04704fe8400ce611c12d9ef3dfa083d0516d1d9c01167b53ab7c0e14e8"},
	}
}

func spillDigest(t *testing.T, d *Division) string {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestDivideMatchesParentDigests pins the spill bytes of every table
// division, for 1, 2 and 4 workers, to the digests the float-keyed
// pass produced.
func TestDivideMatchesParentDigests(t *testing.T) {
	for _, tc := range digestCases() {
		if tc.coarse > 0 {
			rc, err := NewRatioClassifier(tc.spec.Nodes, tc.spec.C)
			if err != nil {
				t.Fatal(err)
			}
			d, err := AdaptiveDivide(tc.spec.Field, rc, tc.coarse, tc.spec.CellSize)
			if err != nil {
				t.Fatal(err)
			}
			if got := spillDigest(t, d); got != tc.want {
				t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
			}
			continue
		}
		for _, w := range []int{1, 2, 4} {
			spec := tc.spec
			spec.Workers = w
			d, err := spec.Divide()
			if err != nil {
				t.Fatal(err)
			}
			if got := spillDigest(t, d); got != tc.want {
				t.Errorf("%s workers=%d: digest %s, want %s", tc.name, w, got, tc.want)
			}
		}
	}
}

// referenceDivide is the float-keyed serial division the code-row pass
// replaced, kept as FuzzDivide's oracle: one Classify call per pair,
// faces interned by Vector.Key, centroids summed row-major, neighbour
// sets per face, diffs by float comparison, and the int8 store
// converted from the float signatures with per-component bitplanes.
func referenceDivide(fieldRect geom.Rect, rc *RatioClassifier, cellSize float64) (*Division, error) {
	cols, rows, err := gridDims(fieldRect, cellSize)
	if err != nil {
		return nil, err
	}
	d := &Division{Field: fieldRect, CellSize: cellSize, Cols: cols, Rows: rows,
		cellFace: make([]int, cols*rows)}
	bySig := make(map[string]int)
	type accum struct {
		sig        vector.Vector
		sumX, sumY float64
		cells      int
	}
	var acc []*accum
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			sig := Signature(rc, d.CellCenter(c, r))
			key := sig.Key()
			id, ok := bySig[key]
			if !ok {
				id = len(acc)
				bySig[key] = id
				acc = append(acc, &accum{sig: sig})
			}
			d.cellFace[r*cols+c] = id
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			a, p := acc[d.cellFace[r*cols+c]], d.CellCenter(c, r)
			a.sumX += p.X
			a.sumY += p.Y
			a.cells++
		}
	}
	sets := make([]map[int]bool, len(acc))
	for i := range sets {
		sets[i] = map[int]bool{}
	}
	link := func(a, b int) {
		if a != b {
			sets[a][b], sets[b][a] = true, true
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			id := d.cellFace[r*cols+c]
			if c+1 < cols {
				link(id, d.cellFace[r*cols+c+1])
			}
			if r+1 < rows {
				link(id, d.cellFace[(r+1)*cols+c])
			}
		}
	}
	d.Faces = make([]Face, len(acc))
	sigs := make([]vector.Vector, len(acc))
	for id, a := range acc {
		sigs[id] = a.sig
		nbrs := make([]int, 0, len(sets[id]))
		for nb := range sets[id] {
			nbrs = append(nbrs, nb)
		}
		sort.Ints(nbrs)
		diffs := make([][]int, len(nbrs))
		for i, nb := range nbrs {
			for k := range a.sig {
				if a.sig[k] != acc[nb].sig[k] {
					diffs[i] = append(diffs[i], k)
				}
			}
		}
		d.Faces[id] = Face{ID: id, Cells: a.cells, Neighbors: nbrs, NeighborDiffs: diffs,
			Centroid: geom.Pt(a.sumX/float64(a.cells), a.sumY/float64(a.cells))}
	}
	d.soa = referenceSoA(sigs)
	for f := range d.Faces {
		d.Faces[f].Signature = d.soa.Rows[f*d.soa.Dim : (f+1)*d.soa.Dim]
	}
	return d, nil
}

// referenceSoA converts the float signatures into a store the way the
// float-keyed pass did: row-major codes and per-component bitplanes.
func referenceSoA(sigs []vector.Vector) *SigSoA {
	nf, dim := len(sigs), sigs[0].Dim()
	words := (dim + 63) / 64
	s := &SigSoA{NumFaces: nf, Dim: dim, Words: words, Rows: make([]int8, nf*dim),
		PosBits: make([]uint64, nf*words), NegBits: make([]uint64, nf*words)}
	for f, sig := range sigs {
		for k, v := range sig {
			bit := uint64(1) << (k % 64)
			switch v {
			case vector.Nearer:
				s.Rows[f*dim+k] = 1
				s.PosBits[f*s.Words+k/64] |= bit
			case vector.Farther:
				s.Rows[f*dim+k] = -1
				s.NegBits[f*s.Words+k/64] |= bit
			case vector.Flipped:
			default:
				panic(fmt.Sprintf("face %d component %d: non-ternary value %v", f, k, v))
			}
		}
	}
	return s
}

// TestReferenceDivideAgrees keeps the oracle honest on the fixed table:
// the reference pass reproduces DivideWorkers on the non-adaptive digest
// cases.
func TestReferenceDivideAgrees(t *testing.T) {
	for _, tc := range digestCases() {
		// The 1 m Table-1 case is the costliest for the reference pass and
		// its bytes are pinned by TestDivideMatchesParentDigests.
		if tc.coarse > 0 || tc.name == "table1-1m" {
			continue
		}
		rc, err := NewRatioClassifier(tc.spec.Nodes, tc.spec.C)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceDivide(tc.spec.Field, rc, tc.spec.CellSize)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DivideWorkers(tc.spec.Field, rc, tc.spec.CellSize, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: %s", tc.name, divisionDiff(want, got))
		}
	}
}

// FuzzDivide compares DivideWorkers with the float-keyed reference pass
// over small deployments, random or on a grid (grid nodes put ties on
// cell centres and C = 1 bisectors along rows): 2–9 nodes, C ∈ [1, 3],
// cell sizes from 2 to 12.5 m on a 50 m field, and 1–4 workers. The
// divisions must be reflect.DeepEqual — raster, faces, neighbour diffs
// and SoA store.
func FuzzDivide(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint16(0), uint8(0), uint8(1), false)
	f.Add(uint64(2), uint8(9), uint16(1000), uint8(7), uint8(2), false)
	f.Add(uint64(3), uint8(2), uint16(400), uint8(3), uint8(4), false)
	f.Add(uint64(4), uint8(7), uint16(65535), uint8(255), uint8(3), false)
	f.Add(uint64(5), uint8(7), uint16(0), uint8(0), uint8(1), true)    // 9-node grid, C = 1, 2 m cells
	f.Add(uint64(6), uint8(2), uint16(0), uint8(61), uint8(2), true)   // 4-node grid, C = 1, 4.5 m cells
	f.Add(uint64(7), uint8(7), uint16(3900), uint8(0), uint8(3), true) // 9-node grid, C ≈ 1.12
	f.Add(uint64(8), uint8(2), uint16(1), uint8(24), uint8(1), false)  // C within 3.1e-5 of 1
	small := geom.NewRect(geom.Pt(0, 0), geom.Pt(50, 50))
	f.Fuzz(func(t *testing.T, seed uint64, n uint8, c uint16, cell uint8, workers uint8, grid bool) {
		nodes := deploy.Random(small, 2+int(n)%8, randx.New(seed)).Positions()
		if grid {
			nodes = deploy.Grid(small, 2+int(n)%8).Positions()
		}
		C := 1 + 2*float64(c)/65535
		cellSize := 2 + float64(cell)/255*10.5
		rc, err := NewRatioClassifier(nodes, C)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceDivide(small, rc, cellSize)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DivideWorkers(small, rc, cellSize, 1+int(workers)%4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("nodes %v C %v cell %v workers %d: %s", nodes, C, cellSize, 1+int(workers)%4, divisionDiff(want, got))
		}
	})
}
