package field

import (
	"math"
	"slices"
	"testing"

	"fttt/internal/deploy"
	"fttt/internal/geom"
	"fttt/internal/randx"
	"fttt/internal/rf"
	"fttt/internal/vector"
)

var fieldRect = geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))

func defaultC() float64 { return rf.Default().UncertaintyC(1) }

// codes converts a ternary signature vector to its int8 codes.
func codes(v vector.Vector) []int8 {
	c := make([]int8, len(v))
	for k, x := range v {
		c[k] = int8(x)
	}
	return c
}

// vec is the signature vector of a code row.
func vec(row []int8) vector.Vector { return vector.AppendCodes(nil, row) }

func gridClassifier(t *testing.T, n int, c float64) *RatioClassifier {
	t.Helper()
	d := deploy.Grid(fieldRect, n)
	rc, err := NewRatioClassifier(d.Positions(), c)
	if err != nil {
		t.Fatal(err)
	}
	return rc
}

func TestNewRatioClassifierValidation(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)}
	if _, err := NewRatioClassifier(pts, 0.9); err == nil {
		t.Error("C<1 should be rejected")
	}
	if _, err := NewRatioClassifier(pts[:1], 1.2); err == nil {
		t.Error("single node should be rejected")
	}
	if _, err := NewRatioClassifier(pts, 1.2); err != nil {
		t.Errorf("valid classifier rejected: %v", err)
	}
}

func TestClassifyThreeRegions(t *testing.T) {
	nodes := []geom.Point{geom.Pt(30, 50), geom.Pt(70, 50)}
	rc, _ := NewRatioClassifier(nodes, 1.5)
	// Right next to node 0: firmly nearer.
	if got := rc.Classify(geom.Pt(31, 50), 0, 1); got != vector.Nearer {
		t.Errorf("near node0 = %v, want Nearer", got)
	}
	// Right next to node 1.
	if got := rc.Classify(geom.Pt(69, 50), 0, 1); got != vector.Farther {
		t.Errorf("near node1 = %v, want Farther", got)
	}
	// On the bisector: always uncertain for C > 1.
	if got := rc.Classify(geom.Pt(50, 50), 0, 1); got != vector.Flipped {
		t.Errorf("bisector = %v, want Flipped", got)
	}
}

func TestClassifyBisectorDegenerate(t *testing.T) {
	// C = 1: certain division; uncertain band vanishes except exact ties.
	nodes := []geom.Point{geom.Pt(30, 50), geom.Pt(70, 50)}
	rc, _ := NewRatioClassifier(nodes, 1)
	if got := rc.Classify(geom.Pt(49, 50), 0, 1); got != vector.Nearer {
		t.Errorf("left of bisector = %v, want Nearer", got)
	}
	if got := rc.Classify(geom.Pt(51, 50), 0, 1); got != vector.Farther {
		t.Errorf("right of bisector = %v, want Farther", got)
	}
	// Exactly equidistant: both comparisons hold with equality → Nearer
	// wins by the <= convention. Just assert it is not Flipped-free crash.
	_ = rc.Classify(geom.Pt(50, 50), 0, 1)
}

func TestClassifyBoundaryIsApollonius(t *testing.T) {
	// Points just inside/outside the Apollonius circle flip classification.
	p, q := geom.Pt(40, 50), geom.Pt(60, 50)
	C := 1.4
	rc, _ := NewRatioClassifier([]geom.Point{p, q}, C)
	// Circle of points x with d(x,p) = C·d(x,q) — the boundary between
	// Flipped and Farther.
	circ, ok := geom.Apollonius(p, q, C)
	if !ok {
		t.Fatal("Apollonius degenerate")
	}
	for _, theta := range []float64{0.3, 1.7, 2.9, 4.1, 5.3} {
		on := circ.PointAt(theta)
		// The circle encloses q: its interior is where d(x,p) > C·d(x,q),
		// i.e. the Farther region; just outside lies the uncertain band.
		inside := on.Add(circ.C.Sub(on).Unit().Scale(0.01))
		outside := on.Add(on.Sub(circ.C).Unit().Scale(0.01))
		if got := rc.Classify(inside, 0, 1); got != vector.Farther {
			t.Errorf("θ=%v inside = %v, want Farther", theta, got)
		}
		if got := rc.Classify(outside, 0, 1); got != vector.Flipped {
			t.Errorf("θ=%v outside = %v, want Flipped", theta, got)
		}
	}
}

func TestSignatureDimension(t *testing.T) {
	rc := gridClassifier(t, 4, defaultC())
	sig := Signature(rc, geom.Pt(10, 10))
	if sig.Dim() != 6 {
		t.Errorf("signature dim = %d, want 6", sig.Dim())
	}
}

func TestSignatureAntisymmetryUnderSwap(t *testing.T) {
	// A point near node i must be Nearer for every pair (i, j).
	rc := gridClassifier(t, 4, defaultC())
	d := deploy.Grid(fieldRect, 4)
	p := d.Nodes[0].Pos // on top of node 0
	sig := Signature(rc, p)
	n := 4
	for j := 1; j < n; j++ {
		if got := sig.Get(0, j, n); got != vector.Nearer {
			t.Errorf("pair (0,%d) = %v, want Nearer", j, got)
		}
	}
}

func TestDivideBasics(t *testing.T) {
	rc := gridClassifier(t, 4, defaultC())
	div, err := Divide(fieldRect, rc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if div.Cols != 100 || div.Rows != 100 {
		t.Fatalf("grid %dx%d, want 100x100", div.Cols, div.Rows)
	}
	if div.NumFaces() < 8 {
		t.Errorf("only %d faces; uncertain boundaries of 4 nodes should give more than the 8 certain faces", div.NumFaces())
	}
	// Total cells accounted for.
	total := 0
	for _, f := range div.Faces {
		total += f.Cells
	}
	if total != 100*100 {
		t.Errorf("cells sum to %d, want 10000", total)
	}
}

func TestDivideErrors(t *testing.T) {
	rc := gridClassifier(t, 4, defaultC())
	if _, err := Divide(fieldRect, rc, 0); err == nil {
		t.Error("zero cell size should fail")
	}
	if _, err := Divide(fieldRect, rc, -1); err == nil {
		t.Error("negative cell size should fail")
	}
	if _, err := Divide(fieldRect, rc, 1000); err == nil {
		t.Error("cell larger than field should fail")
	}
}

func TestLemma1UniquenessOnGrid(t *testing.T) {
	// Lemma 1 (grid form): two cells belong to the same face iff their
	// signatures are identical. By construction of Divide this must hold
	// exactly; verify on a sample of cells.
	rc := gridClassifier(t, 5, defaultC())
	div, err := Divide(fieldRect, rc, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(5)
	for trial := 0; trial < 500; trial++ {
		c1, r1 := rng.Intn(div.Cols), rng.Intn(div.Rows)
		c2, r2 := rng.Intn(div.Cols), rng.Intn(div.Rows)
		p1, p2 := div.CellCenter(c1, r1), div.CellCenter(c2, r2)
		f1, f2 := div.FaceAt(p1), div.FaceAt(p2)
		sameFace := f1.ID == f2.ID
		sameSig := vector.Equal(Signature(rc, p1), Signature(rc, p2))
		if sameFace != sameSig {
			t.Fatalf("Lemma 1 violated: sameFace=%v sameSig=%v at %v vs %v",
				sameFace, sameSig, p1, p2)
		}
	}
}

func TestFaceSignatureMatchesMembers(t *testing.T) {
	rc := gridClassifier(t, 4, defaultC())
	div, _ := Divide(fieldRect, rc, 2)
	rng := randx.New(6)
	for trial := 0; trial < 300; trial++ {
		c, r := rng.Intn(div.Cols), rng.Intn(div.Rows)
		p := div.CellCenter(c, r)
		f := div.FaceAt(p)
		if !slices.Equal(f.Signature, codes(Signature(rc, p))) {
			t.Fatalf("face %d signature mismatch at %v", f.ID, p)
		}
	}
}

func TestNeighborsSymmetricAndSorted(t *testing.T) {
	rc := gridClassifier(t, 4, defaultC())
	div, _ := Divide(fieldRect, rc, 2)
	for _, f := range div.Faces {
		prev := -1
		for _, nb := range f.Neighbors {
			if nb <= prev {
				t.Fatalf("face %d neighbors not strictly ascending: %v", f.ID, f.Neighbors)
			}
			prev = nb
			if nb == f.ID {
				t.Fatalf("face %d lists itself as neighbor", f.ID)
			}
			// Symmetry.
			found := false
			for _, back := range div.Faces[nb].Neighbors {
				if back == f.ID {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("neighbor link %d→%d not symmetric", f.ID, nb)
			}
		}
	}
}

func TestTheorem1MostNeighborsDifferByOne(t *testing.T) {
	// Theorem 1: neighbor faces' signatures differ by Euclidean norm 1.
	// Under the approximate grid division, boundaries can cross inside a
	// single cell, so a minority of links jump by more; assert the
	// majority obey the theorem.
	rc := gridClassifier(t, 4, defaultC())
	div, _ := Divide(fieldRect, rc, 1)
	obey, total := 0, 0
	for _, f := range div.Faces {
		for _, nb := range f.Neighbors {
			if nb < f.ID {
				continue // count each undirected link once
			}
			total++
			if vector.HammingNeighbors(vec(f.Signature), vec(div.Faces[nb].Signature)) {
				obey++
			}
		}
	}
	if total == 0 {
		t.Fatal("no links")
	}
	if frac := float64(obey) / float64(total); frac < 0.5 {
		t.Errorf("only %.1f%% of links obey Theorem 1 (%d/%d)", 100*frac, obey, total)
	}
}

func TestCellOfClamping(t *testing.T) {
	rc := gridClassifier(t, 4, defaultC())
	div, _ := Divide(fieldRect, rc, 1)
	c, r := div.CellOf(geom.Pt(-50, 500))
	if c != 0 || r != div.Rows-1 {
		t.Errorf("CellOf outside = (%d,%d), want (0,%d)", c, r, div.Rows-1)
	}
	c, r = div.CellOf(geom.Pt(100, 100)) // on max corner
	if c != div.Cols-1 || r != div.Rows-1 {
		t.Errorf("CellOf max corner = (%d,%d)", c, r)
	}
}

func TestCentroidInsideField(t *testing.T) {
	rc := gridClassifier(t, 5, defaultC())
	div, _ := Divide(fieldRect, rc, 2)
	for _, f := range div.Faces {
		if !fieldRect.Contains(f.Centroid) {
			t.Errorf("face %d centroid %v outside field", f.ID, f.Centroid)
		}
	}
}

func TestMoreNodesMoreFaces(t *testing.T) {
	divs := make([]int, 0, 3)
	for _, n := range []int{4, 9, 16} {
		rc := gridClassifier(t, n, defaultC())
		div, err := Divide(fieldRect, rc, 2)
		if err != nil {
			t.Fatal(err)
		}
		divs = append(divs, div.NumFaces())
	}
	if !(divs[0] < divs[1] && divs[1] < divs[2]) {
		t.Errorf("face count should grow with n: %v", divs)
	}
}

func TestUncertainBoundariesSplitCertainFaces(t *testing.T) {
	// Fig. 3: the uncertain division (C>1) must produce at least as many
	// faces as the certain bisector division (C=1).
	certain := gridClassifier(t, 4, 1)
	uncertain := gridClassifier(t, 4, defaultC())
	dc, _ := Divide(fieldRect, certain, 1)
	du, _ := Divide(fieldRect, uncertain, 1)
	if du.NumFaces() < dc.NumFaces() {
		t.Errorf("uncertain division has fewer faces (%d) than certain (%d)",
			du.NumFaces(), dc.NumFaces())
	}
	if du.UncertainFraction() <= 0 {
		t.Error("uncertain division should have flipped cells")
	}
	if dc.UncertainFraction() != 0 {
		t.Errorf("certain division reports %v uncertain fraction, want 0",
			dc.UncertainFraction())
	}
}

func TestLargeCWipesOutCertainFaces(t *testing.T) {
	// Fig. 3(c): when C is large enough, no face has a fully certain
	// signature for every pair of nearby nodes. With huge C every
	// in-field pair comparison is uncertain.
	rc := gridClassifier(t, 4, 1e6)
	div, _ := Divide(fieldRect, rc, 5)
	if got := div.UncertainFraction(); got != 1 {
		t.Errorf("uncertain fraction = %v, want 1 for huge C", got)
	}
}

func TestMeanFaceAreaAndLinks(t *testing.T) {
	rc := gridClassifier(t, 4, defaultC())
	div, _ := Divide(fieldRect, rc, 1)
	if got := div.MeanFaceArea(); math.Abs(got-fieldRect.Area()/float64(div.NumFaces())) > 1e-9 {
		t.Errorf("MeanFaceArea = %v", got)
	}
	if div.NeighborLinkCount() <= 0 {
		t.Error("expected some neighbor links")
	}
	if got := div.CellArea(); got != 1 {
		t.Errorf("CellArea = %v, want 1", got)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// divisionsIdentical asserts every externally observable part of two
// divisions matches byte for byte: grid dims, raster, face IDs,
// signatures, centroids, cell counts, neighbors and per-link diffs.
func divisionsIdentical(t *testing.T, want, got *Division) {
	t.Helper()
	if want.Cols != got.Cols || want.Rows != got.Rows {
		t.Fatalf("grid %dx%d vs %dx%d", got.Cols, got.Rows, want.Cols, want.Rows)
	}
	if len(want.cellFace) != len(got.cellFace) {
		t.Fatalf("raster length %d vs %d", len(got.cellFace), len(want.cellFace))
	}
	for i := range want.cellFace {
		if want.cellFace[i] != got.cellFace[i] {
			t.Fatalf("cell %d face %d vs %d", i, got.cellFace[i], want.cellFace[i])
		}
	}
	if len(want.Faces) != len(got.Faces) {
		t.Fatalf("%d faces vs %d", len(got.Faces), len(want.Faces))
	}
	for id := range want.Faces {
		w, g := &want.Faces[id], &got.Faces[id]
		if w.ID != g.ID || w.Cells != g.Cells {
			t.Fatalf("face %d: ID/Cells %d/%d vs %d/%d", id, g.ID, g.Cells, w.ID, w.Cells)
		}
		if !slices.Equal(w.Signature, g.Signature) {
			t.Fatalf("face %d signature differs", id)
		}
		if w.Centroid != g.Centroid { // exact float equality, not tolerance
			t.Fatalf("face %d centroid %v vs %v", id, g.Centroid, w.Centroid)
		}
		if len(w.Neighbors) != len(g.Neighbors) {
			t.Fatalf("face %d neighbor count %d vs %d", id, len(g.Neighbors), len(w.Neighbors))
		}
		for ni := range w.Neighbors {
			if w.Neighbors[ni] != g.Neighbors[ni] {
				t.Fatalf("face %d neighbor %d: %d vs %d", id, ni, g.Neighbors[ni], w.Neighbors[ni])
			}
			if len(w.NeighborDiffs[ni]) != len(g.NeighborDiffs[ni]) {
				t.Fatalf("face %d diff %d length differs", id, ni)
			}
			for k := range w.NeighborDiffs[ni] {
				if w.NeighborDiffs[ni][k] != g.NeighborDiffs[ni][k] {
					t.Fatalf("face %d diff %d component differs", id, ni)
				}
			}
		}
	}
}

func TestDivideWorkersByteIdentical(t *testing.T) {
	// The acceptance bar for the parallel signature pass: for every worker
	// count the Division is byte-identical to the serial one — face IDs in
	// row-major first-appearance order, identical raster, signatures,
	// centroids (exact float equality) and neighbor links.
	for _, n := range []int{4, 9, 16} {
		rc := gridClassifier(t, n, defaultC())
		serial, err := DivideWorkers(fieldRect, rc, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 4, 7, 16, 1000} {
			par, err := DivideWorkers(fieldRect, rc, 2, workers)
			if err != nil {
				t.Fatal(err)
			}
			divisionsIdentical(t, serial, par)
		}
		// The default entry point (NumCPU workers) matches too.
		def, err := Divide(fieldRect, rc, 2)
		if err != nil {
			t.Fatal(err)
		}
		divisionsIdentical(t, serial, def)
	}
}

func TestDivideCeilingGridForNonDividingCellSize(t *testing.T) {
	rc := gridClassifier(t, 4, defaultC())
	// 0.7 m cells on a 100 m field: ⌈142.857⌉ = 143 columns; the last
	// column overhangs (143·0.7 = 100.1 m) but the field is covered.
	div, err := Divide(fieldRect, rc, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if div.Cols != 143 || div.Rows != 143 {
		t.Fatalf("grid %dx%d, want 143x143", div.Cols, div.Rows)
	}
	// 0.9 m cells: ⌈111.11⌉ = 112. The old round-to-nearest gave 111,
	// leaving a 0.1 m strip of the field in no cell.
	div, err = Divide(fieldRect, rc, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if div.Cols != 112 || div.Rows != 112 {
		t.Fatalf("grid %dx%d, want 112x112", div.Cols, div.Rows)
	}
	if covered := float64(div.Cols) * 0.9; covered < fieldRect.Width() {
		t.Fatalf("grid covers %.2f m of a %.0f m field", covered, fieldRect.Width())
	}
	// Exactly dividing sizes are untouched by the ceiling (no FP jitter).
	for _, tc := range []struct {
		cell float64
		want int
	}{{1, 100}, {2, 50}, {4, 25}, {0.5, 200}, {0.1, 1000}} {
		div, err := Divide(fieldRect, rc, tc.cell)
		if err != nil {
			t.Fatal(err)
		}
		if div.Cols != tc.want || div.Rows != tc.want {
			t.Fatalf("cell %v: grid %dx%d, want %dx%d", tc.cell, div.Cols, div.Rows, tc.want, tc.want)
		}
	}
	// A cell larger than the field is rejected outright.
	if _, err := Divide(fieldRect, rc, 150); err == nil {
		t.Error("cell size 150 on a 100 m field should be rejected")
	}
	// Every field point still lands in a cell and FaceAt stays in range.
	div, _ = Divide(fieldRect, rc, 0.7)
	rng := randx.New(7)
	for i := 0; i < 500; i++ {
		p := geom.Pt(rng.Uniform(0, 100), rng.Uniform(0, 100))
		if f := div.FaceAt(p); f == nil {
			t.Fatalf("no face at %v", p)
		}
	}
}

func TestSignatureDistanceFastPathMatchesClassify(t *testing.T) {
	// Divide classifies a RatioClassifier's cells through codeRow, the
	// ratio test inlined over per-cell distances; its codes must agree
	// with pair-by-pair Classify exactly, C = 1 ties included.
	for _, c := range []float64{defaultC(), 1} {
		rc := gridClassifier(t, 9, c)
		n := rc.NumNodes()
		row, dist := make([]int8, vector.NumPairs(n)), make([]float64, 2*n)
		rng := randx.New(8)
		for trial := 0; trial < 200; trial++ {
			p := geom.Pt(rng.Uniform(-10, 110), rng.Uniform(-10, 110))
			if trial == 0 {
				p = geom.Pt(50, 50) // equidistant from grid-symmetric node pairs
			}
			rc.codeRow(row, p, dist)
			k := 0
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					want := int8(rc.Classify(p, i, j))
					if row[k] != want {
						t.Fatalf("C=%v pair (%d,%d) at %v: code %d vs classify %d", c, i, j, p, row[k], want)
					}
					k++
				}
			}
		}
	}
}
