package field

import (
	"bytes"
	"runtime"
	"testing"

	"fttt/internal/deploy"
	"fttt/internal/geom"
	"fttt/internal/randx"
)

func testSpec(nodes []geom.Point, c, cell float64) Spec {
	return Spec{Field: fieldRect, Nodes: nodes, C: c, CellSize: cell}
}

func TestSpecKeyDeterministic(t *testing.T) {
	nodes := deploy.Grid(fieldRect, 9).Positions()
	a := testSpec(nodes, defaultC(), 2)
	b := testSpec(append([]geom.Point(nil), nodes...), defaultC(), 2)
	if a.Key() != b.Key() {
		t.Fatal("equal specs hash differently")
	}
	if len(a.Key()) != 64 {
		t.Fatalf("key %q is not hex sha256", a.Key())
	}
	// Workers is a latency knob, not content.
	b.Workers = 8
	if a.Key() != b.Key() {
		t.Fatal("Workers must not enter the content hash")
	}
}

func TestSpecKeySensitivity(t *testing.T) {
	nodes := deploy.Grid(fieldRect, 9).Positions()
	base := testSpec(nodes, defaultC(), 2)
	mutations := map[string]Spec{
		"cell size": testSpec(nodes, defaultC(), 2.5),
		"constant":  testSpec(nodes, defaultC()*1.01, 2),
		"field": {Field: geom.NewRect(geom.Pt(0, 0), geom.Pt(90, 100)),
			Nodes: nodes, C: defaultC(), CellSize: 2},
		"node count": testSpec(nodes[:8], defaultC(), 2),
		"node coord": func() Spec {
			moved := append([]geom.Point(nil), nodes...)
			moved[3].X += 0.001
			return testSpec(moved, defaultC(), 2)
		}(),
	}
	for name, m := range mutations {
		if m.Key() == base.Key() {
			t.Errorf("changing %s did not change the key", name)
		}
	}
}

func TestSpecDivideMatchesDivideWorkers(t *testing.T) {
	nodes := deploy.Random(fieldRect, 12, randx.New(3)).Positions()
	spec := testSpec(nodes, defaultC(), 2)
	spec.Workers = 1
	got, err := spec.Divide()
	if err != nil {
		t.Fatal(err)
	}
	rc, err := NewRatioClassifier(nodes, defaultC())
	if err != nil {
		t.Fatal(err)
	}
	want, err := DivideWorkers(fieldRect, rc, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := got.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := want.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("Spec.Divide differs from DivideWorkers on the same inputs")
	}
}

func TestSpecMatches(t *testing.T) {
	nodes := deploy.Grid(fieldRect, 9).Positions()
	spec := testSpec(nodes, defaultC(), 2)
	div, err := spec.Divide()
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Matches(div); err != nil {
		t.Fatalf("own division rejected: %v", err)
	}
	bad := spec
	bad.CellSize = 4
	if err := bad.Matches(div); err == nil {
		t.Error("cell-size mismatch accepted")
	}
	bad = spec
	bad.Nodes = nodes[:5]
	if err := bad.Matches(div); err == nil {
		t.Error("node-count (signature dimension) mismatch accepted")
	}
	bad = spec
	bad.Field = geom.NewRect(geom.Pt(0, 0), geom.Pt(50, 100))
	if err := bad.Matches(div); err == nil {
		t.Error("field mismatch accepted")
	}
}

func TestApproxBytesPositiveAndMonotone(t *testing.T) {
	coarse, err := testSpec(deploy.Grid(fieldRect, 9).Positions(), defaultC(), 5).Divide()
	if err != nil {
		t.Fatal(err)
	}
	fine, err := testSpec(deploy.Grid(fieldRect, 9).Positions(), defaultC(), 2).Divide()
	if err != nil {
		t.Fatal(err)
	}
	if coarse.ApproxBytes() <= 0 {
		t.Fatal("ApproxBytes must be positive")
	}
	if fine.ApproxBytes() <= coarse.ApproxBytes() {
		t.Errorf("finer division (%d faces) should dominate coarser (%d faces): %d <= %d",
			fine.NumFaces(), coarse.NumFaces(), fine.ApproxBytes(), coarse.ApproxBytes())
	}

	// The estimate tracks the live heap: on the 1 m Table-1 division it
	// lies within 20% of what the division retains after a GC.
	rc, err := NewRatioClassifier(deploy.Random(fieldRect, 20, randx.New(6)).Positions(), defaultC())
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	div, err := DivideWorkers(fieldRect, rc, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	est := div.ApproxBytes()
	runtime.KeepAlive(div)
	t.Logf("1 m Table-1 division: %d faces, %d bytes live, ApproxBytes %d", div.NumFaces(), live, est)
	if est < live*8/10 || est > live*12/10 {
		t.Errorf("ApproxBytes %d is not within 20%% of the %d bytes the division holds live", est, live)
	}
}
