package field

import (
	"slices"
	"testing"

	"fttt/internal/deploy"
	"fttt/internal/geom"
	"fttt/internal/randx"
)

func TestAdaptiveDivideValidation(t *testing.T) {
	rc := gridClassifier(t, 4, defaultC())
	if _, err := AdaptiveDivide(fieldRect, rc, 8, 0); err == nil {
		t.Error("fine=0 should fail")
	}
	if _, err := AdaptiveDivide(fieldRect, rc, 5, 2); err == nil {
		t.Error("non-multiple coarse should fail")
	}
	if _, err := AdaptiveDivide(fieldRect, rc, 1000, 500); err == nil {
		t.Error("cells larger than field should fail")
	}
	if _, err := AdaptiveDivide(fieldRect, rc, 8, 2); err != nil {
		t.Errorf("valid adaptive division rejected: %v", err)
	}
}

func TestAdaptiveMatchesUniformMostCells(t *testing.T) {
	rc := gridClassifier(t, 9, defaultC())
	uniform, err := Divide(fieldRect, rc, 2)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := AdaptiveDivide(fieldRect, rc, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Cols != uniform.Cols || adaptive.Rows != uniform.Rows {
		t.Fatalf("raster dims differ: %dx%d vs %dx%d",
			adaptive.Cols, adaptive.Rows, uniform.Cols, uniform.Rows)
	}
	agree, total := 0, 0
	for r := 0; r < uniform.Rows; r++ {
		for c := 0; c < uniform.Cols; c++ {
			p := uniform.CellCenter(c, r)
			total++
			if slices.Equal(uniform.FaceAt(p).Signature, adaptive.FaceAt(p).Signature) {
				agree++
			}
		}
	}
	if frac := float64(agree) / float64(total); frac < 0.97 {
		t.Errorf("only %.1f%% of cells agree with the uniform division", 100*frac)
	}
}

func TestAdaptiveFaceInvariants(t *testing.T) {
	rc := gridClassifier(t, 9, defaultC())
	div, err := AdaptiveDivide(fieldRect, rc, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	totalCells := 0
	for _, f := range div.Faces {
		totalCells += f.Cells
		if !fieldRect.Contains(f.Centroid) {
			t.Errorf("face %d centroid %v outside field", f.ID, f.Centroid)
		}
		for _, nb := range f.Neighbors {
			if nb == f.ID {
				t.Errorf("face %d is its own neighbor", f.ID)
			}
		}
	}
	if totalCells != div.Cols*div.Rows {
		t.Errorf("cells sum to %d, want %d", totalCells, div.Cols*div.Rows)
	}
}

func TestAdaptiveLemma1StillHolds(t *testing.T) {
	rc := gridClassifier(t, 5, defaultC())
	div, err := AdaptiveDivide(fieldRect, rc, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(3)
	for trial := 0; trial < 300; trial++ {
		c1, r1 := rng.Intn(div.Cols), rng.Intn(div.Rows)
		c2, r2 := rng.Intn(div.Cols), rng.Intn(div.Rows)
		f1 := div.FaceAt(div.CellCenter(c1, r1))
		f2 := div.FaceAt(div.CellCenter(c2, r2))
		if (f1.ID == f2.ID) != slices.Equal(f1.Signature, f2.Signature) {
			t.Fatal("Lemma 1 violated in adaptive division")
		}
	}
}

func TestAdaptiveCoarseEqualsFineDegenerate(t *testing.T) {
	// coarse == fine degenerates to the uniform division exactly.
	rc := gridClassifier(t, 4, defaultC())
	uniform, _ := Divide(fieldRect, rc, 4)
	adaptive, err := AdaptiveDivide(fieldRect, rc, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.NumFaces() != uniform.NumFaces() {
		t.Errorf("face counts differ: %d vs %d", adaptive.NumFaces(), uniform.NumFaces())
	}
	for r := 0; r < uniform.Rows; r++ {
		for c := 0; c < uniform.Cols; c++ {
			p := uniform.CellCenter(c, r)
			if !slices.Equal(uniform.FaceAt(p).Signature, adaptive.FaceAt(p).Signature) {
				t.Fatalf("cell (%d,%d) signatures differ", c, r)
			}
		}
	}
}

func TestAdaptiveHandlesRaggedBlocks(t *testing.T) {
	// Field whose fine-grid dims are not multiples of the block ratio.
	rect := geom.NewRect(geom.Pt(0, 0), geom.Pt(90, 70))
	dep := deploy.Grid(rect, 4)
	rc, err := NewRatioClassifier(dep.Positions(), defaultC())
	if err != nil {
		t.Fatal(err)
	}
	div, err := AdaptiveDivide(rect, rc, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if div.Cols != 45 || div.Rows != 35 {
		t.Fatalf("dims %dx%d, want 45x35", div.Cols, div.Rows)
	}
	total := 0
	for _, f := range div.Faces {
		total += f.Cells
	}
	if total != 45*35 {
		t.Errorf("cells sum to %d", total)
	}
}

func BenchmarkDivideUniform(b *testing.B) {
	dep := deploy.Grid(fieldRect, 16)
	rc, _ := NewRatioClassifier(dep.Positions(), 1.19)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Divide(fieldRect, rc, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDivideAdaptive(b *testing.B) {
	dep := deploy.Grid(fieldRect, 16)
	rc, _ := NewRatioClassifier(dep.Positions(), 1.19)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AdaptiveDivide(fieldRect, rc, 10, 1); err != nil {
			b.Fatal(err)
		}
	}
}
