package field

import (
	"fmt"
	"slices"
	"testing"

	"fttt/internal/deploy"
	"fttt/internal/geom"
	"fttt/internal/randx"
	"fttt/internal/vector"
)

// TestSweepMatchesCodeRow is the row sweep's property: every cell's face
// row is the code row codeRow computes at the cell's centre, on layouts
// that stress what the sweep carries — random and grid deployments
// (grids put C = 1 ties exactly on cell centres and run bisectors along
// rows), C = 1, C within 1e-9 and 1e-6 of 1, the 36-node 2 m grid
// (630 pairs, not a multiple of 64), overhanging 0.7 m cells, and rows
// exactly tangent to a circle at a cell centre.
func TestSweepMatchesCodeRow(t *testing.T) {
	type layout struct {
		name  string
		nodes []geom.Point
		c     float64
		cell  float64
		field geom.Rect
	}
	var cases []layout
	for _, c := range []float64{defaultC(), 1, 1 + 1e-9, 1 + 1e-6, 3} {
		for seed := uint64(1); seed <= 3; seed++ {
			cases = append(cases, layout{fmt.Sprintf("random12-seed%d-C%v", seed, c),
				deploy.Random(fieldRect, 12, randx.New(seed)).Positions(), c, 1.5, fieldRect})
		}
		for _, n := range []int{4, 9, 16} {
			cases = append(cases, layout{fmt.Sprintf("grid%d-C%v", n, c), deploy.Grid(fieldRect, n).Positions(), c, 2, fieldRect})
		}
	}
	cases = append(cases,
		layout{"grid36-2m", deploy.Grid(fieldRect, 36).Positions(), defaultC(), 2, fieldRect},
		layout{"grid4-0.7m", deploy.Grid(fieldRect, 4).Positions(), defaultC(), 0.7, fieldRect},
		layout{"grid9-c1-0.7m", deploy.Grid(fieldRect, 9).Positions(), 1, 0.7, fieldRect},
		layout{"table1-1m", deploy.Random(fieldRect, 20, randx.New(6)).Positions(), defaultC(), 1, fieldRect},
		// C = 2: the pair's circles are centred at (30, 20) and (30, 70)
		// with radius 20, so the rows at y = 40 and y = 50 touch them at
		// x = 30, a cell centre of this grid, where C·d_i = d_j exactly.
		layout{"tangent-rows", []geom.Point{geom.Pt(30, 30), geom.Pt(30, 60)}, 2, 2,
			geom.NewRect(geom.Pt(-1, -1), geom.Pt(99, 99))},
	)
	for _, tc := range cases {
		rc, err := NewRatioClassifier(tc.nodes, tc.c)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			d, err := DivideWorkers(tc.field, rc, tc.cell, workers)
			if err != nil {
				t.Fatal(err)
			}
			n := rc.NumNodes()
			want, dist := make([]int8, vector.NumPairs(n)), make([]float64, 2*n)
			for r := 0; r < d.Rows; r++ {
				for c := 0; c < d.Cols; c++ {
					p := d.CellCenter(c, r)
					rc.codeRow(want, p, dist)
					if got := d.Faces[d.cellFace[r*d.Cols+c]].Signature; !slices.Equal(got, want) {
						t.Fatalf("%s workers=%d: cell (%d,%d) at %v: face row differs from codeRow in components %v",
							tc.name, workers, c, r, p, diffComponents(got, want))
					}
				}
			}
		}
	}
}

// TestRowSweepPlans checks which divisions the sweep runs on (every C
// except one within 5e-7 of 1), and that on the Table-1 field almost
// no pair falls back to evaluation at every cell of a row.
func TestRowSweepPlans(t *testing.T) {
	nodes := deploy.Random(fieldRect, 20, randx.New(6)).Positions()
	for _, tc := range []struct {
		c     float64
		exact bool
	}{{defaultC(), false}, {1, false}, {1 + 1e-6, false}, {1 + 1e-9, true}, {1 + 1e-12, true}} {
		rc, err := NewRatioClassifier(nodes, tc.c)
		if err != nil {
			t.Fatal(err)
		}
		d := &Division{Field: fieldRect, CellSize: 1, Cols: 100, Rows: 100}
		if sw := newRowSweep(d, rc); sw.exact != tc.exact {
			t.Errorf("C = %v: exact %v, want %v", tc.c, sw.exact, tc.exact)
		}
	}
	rc, err := NewRatioClassifier(nodes, defaultC())
	if err != nil {
		t.Fatal(err)
	}
	d := &Division{Field: fieldRect, CellSize: 1, Cols: 100, Rows: 100, cellFace: make([]int, 100*100)}
	sw, cc := newRowSweep(d, rc), newCellCoder(rc, 100*100)
	dense, scheduled := 0, 0
	for r := 0; r < d.Rows; r++ {
		cc.sweepRow(sw, r, d.cellFace[r*d.Cols:(r+1)*d.Cols])
		dense += len(cc.dense)
		scheduled += len(cc.evPair)
	}
	// 190 pairs × 100 rows; a pair is scheduled on about one cell per
	// crossing, and a row crosses each pair's circles at most 4 times.
	if dense > 10 || scheduled > 190*100*4 {
		t.Errorf("%d of 19000 pair-rows fell back to every cell; %d scheduled evaluations", dense, scheduled)
	}
}

// TestFaceTableGrows interns more faces than the table's first size
// holds: IDs stay in first-appearance order, every row is found again
// after the slots double, and the stored hashes stay each row's hash.
func TestFaceTableGrows(t *testing.T) {
	const dim, faces = 13, 1000
	rowOf := func(i int) []int8 { // i in base 3, one digit per component
		row := make([]int8, dim)
		for k := range row {
			row[k] = int8(i%3) - 1
			i /= 3
		}
		return row
	}
	tab := newFaceTable(dim, nil, 1)
	first := len(tab.slots)
	for i := range faces {
		if id := tab.intern(rowOf(i)); id != i {
			t.Fatalf("row %d interned as face %d", i, id)
		}
	}
	if len(tab.slots) <= first || 2*tab.n > len(tab.slots) {
		t.Fatalf("%d faces in %d slots (first size %d)", tab.n, len(tab.slots), first)
	}
	for i := range faces {
		row := rowOf(i)
		if id := tab.intern(row); id != i {
			t.Fatalf("row %d found as face %d after growing", i, id)
		}
		if !slices.Equal(tab.row(i), row) || tab.hashes[i] != tab.hash(row) {
			t.Fatalf("face %d: stored row or hash differs", i)
		}
	}
	if tab.n != faces || len(tab.rows) != faces*dim {
		t.Fatalf("%d faces, %d codes after re-interning", tab.n, len(tab.rows))
	}
}

// TestNeighborDiffsShared checks that a link's diff reads the same from
// both of its faces, is the set of components their rows differ in,
// and is one slice shared by both directions, for a divided and a
// loaded division.
func TestNeighborDiffsShared(t *testing.T) {
	rc, err := NewRatioClassifier(deploy.Random(fieldRect, 12, randx.New(4)).Positions(), defaultC())
	if err != nil {
		t.Fatal(err)
	}
	div, err := Divide(fieldRect, rc, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]*Division{"divided": div, "loaded": roundTrip(t, div)} {
		for a := range d.Faces {
			fa := &d.Faces[a]
			for i, b := range fa.Neighbors {
				fb := &d.Faces[b]
				j, ok := slices.BinarySearch(fb.Neighbors, a)
				if !ok {
					t.Fatalf("%s: face %d lists %d, which does not list it back", name, a, b)
				}
				ab, ba := fa.NeighborDiffs[i], fb.NeighborDiffs[j]
				if !slices.Equal(ab, ba) || !slices.Equal(ab, diffComponents(fa.Signature, fb.Signature)) {
					t.Fatalf("%s: diff (%d,%d) %v, (%d,%d) %v", name, a, b, ab, b, a, ba)
				}
				if len(ab) > 0 && &ab[0] != &ba[0] {
					t.Fatalf("%s: link (%d,%d) holds two copies of its diff", name, a, b)
				}
			}
		}
	}
}
