package fieldcache

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"fttt/internal/deploy"
	"fttt/internal/field"
	"fttt/internal/geom"
	"fttt/internal/obs"
	"fttt/internal/rf"
)

var fieldRect = geom.NewRect(geom.Pt(0, 0), geom.Pt(60, 60))

func testSpec(t *testing.T, n int, cell float64) field.Spec {
	t.Helper()
	return field.Spec{
		Field:    fieldRect,
		Nodes:    deploy.Grid(fieldRect, n).Positions(),
		C:        rf.Default().UncertaintyC(1),
		CellSize: cell,
		Workers:  1,
	}
}

func counter(r *obs.Registry, name string) float64 {
	return r.Counter(name).Value()
}

func TestAcquireBuildsOnceAndShares(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := New(Config{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(t, 9, 3)
	d1, rel1, err := c.Acquire(spec)
	if err != nil {
		t.Fatal(err)
	}
	d2, rel2, err := c.Acquire(spec)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatal("same spec must share one division pointer")
	}
	if got := counter(reg, "fttt_fieldcache_builds_total"); got != 1 {
		t.Fatalf("builds = %v, want 1", got)
	}
	if got := counter(reg, "fttt_fieldcache_hits_total"); got != 1 {
		t.Fatalf("hits = %v, want 1", got)
	}
	if got := counter(reg, "fttt_fieldcache_misses_total"); got != 1 {
		t.Fatalf("misses = %v, want 1", got)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	if c.Bytes() <= 0 {
		t.Fatal("Bytes should be positive with one finished entry")
	}
	rel1()
	rel1() // idempotent
	rel2()
}

func TestAcquireSingleflightConcurrent(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := New(Config{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(t, 9, 2)
	const goroutines = 8
	divs := make([]*field.Division, goroutines)
	rels := make([]func(), goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, rel, err := c.Acquire(spec)
			if err != nil {
				t.Error(err)
				return
			}
			divs[i], rels[i] = d, rel
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if divs[i] != divs[0] {
			t.Fatal("concurrent acquirers got different divisions")
		}
	}
	if got := counter(reg, "fttt_fieldcache_builds_total"); got != 1 {
		t.Fatalf("builds = %v, want exactly 1 under concurrency", got)
	}
	if h, m := counter(reg, "fttt_fieldcache_hits_total"), counter(reg, "fttt_fieldcache_misses_total"); h != goroutines-1 || m != 1 {
		t.Fatalf("hits/misses = %v/%v, want %d/1", h, m, goroutines-1)
	}
	for _, rel := range rels {
		if rel != nil {
			rel()
		}
	}
}

func TestEvictionRespectsPinsAndLRU(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := New(Config{MaxEntries: 2, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	a, b, d := testSpec(t, 4, 10), testSpec(t, 4, 12), testSpec(t, 4, 15)
	_, relA, err := c.Acquire(a)
	if err != nil {
		t.Fatal(err)
	}
	_, relB, err := c.Acquire(b)
	if err != nil {
		t.Fatal(err)
	}
	// Both pinned: a third acquire transiently exceeds the bound but must
	// not evict a pinned entry.
	_, relD, err := c.Acquire(d)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d; pinned entries must not be evicted", c.Len())
	}
	// Release a: it is now the only eviction candidate and must go on the
	// next eviction pass (triggered by the release itself).
	relA()
	if c.Len() != 2 {
		t.Fatalf("Len = %d after releasing one over-bound entry, want 2", c.Len())
	}
	if got := counter(reg, "fttt_fieldcache_evictions_total"); got != 1 {
		t.Fatalf("evictions = %v, want 1", got)
	}
	// Re-acquiring a is a fresh miss (it was evicted)...
	_, relA2, err := c.Acquire(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := counter(reg, "fttt_fieldcache_misses_total"); got != 4 {
		t.Fatalf("misses = %v, want 4 (a was evicted)", got)
	}
	// ...while b survived as a hit.
	_, relB2, err := c.Acquire(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := counter(reg, "fttt_fieldcache_hits_total"); got != 1 {
		t.Fatalf("hits = %v, want 1 (b resident)", got)
	}
	relB()
	relB2()
	relA2()
	relD()
}

func TestDiskSpillWarmRestart(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(t, 9, 3)

	reg1 := obs.NewRegistry()
	c1, err := New(Config{Dir: dir, Obs: reg1})
	if err != nil {
		t.Fatal(err)
	}
	d1, rel, err := c1.Acquire(spec)
	if err != nil {
		t.Fatal(err)
	}
	rel()
	if got := counter(reg1, "fttt_fieldcache_builds_total"); got != 1 {
		t.Fatalf("cold cache builds = %v, want 1", got)
	}
	if _, err := os.Stat(filepath.Join(dir, spec.Key()+".div")); err != nil {
		t.Fatalf("spill file missing: %v", err)
	}

	// "Restart": a fresh cache over the same dir loads from disk, no
	// build.
	reg2 := obs.NewRegistry()
	c2, err := New(Config{Dir: dir, Obs: reg2})
	if err != nil {
		t.Fatal(err)
	}
	d2, rel2, err := c2.Acquire(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer rel2()
	if got := counter(reg2, "fttt_fieldcache_builds_total"); got != 0 {
		t.Fatalf("warm cache builds = %v, want 0", got)
	}
	if got := counter(reg2, "fttt_fieldcache_disk_loads_total"); got != 1 {
		t.Fatalf("disk loads = %v, want 1", got)
	}
	// The loaded division is semantically identical: every cell localizes
	// to the same face.
	for r := 0; r < d1.Rows; r++ {
		for col := 0; col < d1.Cols; col++ {
			p := d1.CellCenter(col, r)
			if d1.FaceAt(p).ID != d2.FaceAt(p).ID {
				t.Fatalf("cell (%d,%d) differs after warm restart", col, r)
			}
		}
	}
}

func TestDiskSpillCorruptFileRebuilds(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(t, 4, 10)
	path := filepath.Join(dir, spec.Key()+".div")
	if err := os.WriteFile(path, []byte("definitely not gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c, err := New(Config{Dir: dir, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	d, rel, err := c.Acquire(spec)
	if err != nil {
		t.Fatalf("corrupt spill must rebuild, got error: %v", err)
	}
	defer rel()
	if d == nil || d.NumFaces() == 0 {
		t.Fatal("rebuild produced no division")
	}
	if got := counter(reg, "fttt_fieldcache_disk_errors_total"); got != 1 {
		t.Fatalf("disk errors = %v, want 1", got)
	}
	if got := counter(reg, "fttt_fieldcache_builds_total"); got != 1 {
		t.Fatalf("builds = %v, want 1 after corrupt spill", got)
	}
	// The rebuild overwrote the bad file: a second cache now disk-loads.
	c2, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, rel2, err := c2.Acquire(spec); err != nil {
		t.Fatalf("overwritten spill unusable: %v", err)
	} else {
		rel2()
	}
}

// TestDiskSpillGobEraFileRebuilds pins the format migration: a spill
// file in the old gob encoding, under the unchanged spec key, fails
// Load's magic check, counts a disk error, and is rebuilt and
// overwritten with a file the next cache warm-starts from.
func TestDiskSpillGobEraFileRebuilds(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(t, 4, 10)
	div, err := spec.Divide()
	if err != nil {
		t.Fatal(err)
	}
	// The gob-era wire form: the fields of the old divisionSnapshot.
	type divisionSnapshot struct {
		Field    [4]float64
		CellSize float64
		Cols     int
		Rows     int
		Faces    []field.Face
		CellFace []int
	}
	snap := divisionSnapshot{
		Field:    [4]float64{div.Field.Min.X, div.Field.Min.Y, div.Field.Max.X, div.Field.Max.Y},
		CellSize: div.CellSize,
		Cols:     div.Cols,
		Rows:     div.Rows,
		Faces:    div.Faces,
	}
	for r := 0; r < div.Rows; r++ {
		for col := 0; col < div.Cols; col++ {
			snap.CellFace = append(snap.CellFace, div.FaceAt(div.CellCenter(col, r)).ID)
		}
	}
	var gobFile bytes.Buffer
	if err := gob.NewEncoder(&gobFile).Encode(snap); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, spec.Key()+".div")
	if err := os.WriteFile(path, gobFile.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	c, err := New(Config{Dir: dir, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	_, rel, err := c.Acquire(spec)
	if err != nil {
		t.Fatalf("gob-era spill must rebuild, got error: %v", err)
	}
	rel()
	for name, want := range map[string]float64{
		"fttt_fieldcache_disk_errors_total": 1,
		"fttt_fieldcache_builds_total":      1,
		"fttt_fieldcache_disk_loads_total":  0,
	} {
		if got := counter(reg, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := field.Load(f)
	f.Close()
	if err != nil {
		t.Fatalf("rebuilt spill file does not load: %v", err)
	}
	if err := spec.Matches(loaded); err != nil {
		t.Fatal(err)
	}
	reg2 := obs.NewRegistry()
	c2, err := New(Config{Dir: dir, Obs: reg2})
	if err != nil {
		t.Fatal(err)
	}
	_, rel2, err := c2.Acquire(spec)
	if err != nil {
		t.Fatal(err)
	}
	rel2()
	if got := counter(reg2, "fttt_fieldcache_builds_total"); got != 0 {
		t.Fatalf("warm start after the rewrite built %v times, want 0", got)
	}
	if got := counter(reg2, "fttt_fieldcache_disk_loads_total"); got != 1 {
		t.Fatalf("disk loads = %v, want 1", got)
	}
}

func TestDiskSpillWrongSpecFileRebuilds(t *testing.T) {
	// A spill file that decodes fine but describes a different division
	// (here: forged under the wrong key) must fail Matches and rebuild.
	dir := t.TempDir()
	right := testSpec(t, 9, 3)
	wrong := testSpec(t, 4, 5)
	div, err := wrong.Divide()
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, right.Key()+".div"))
	if err != nil {
		t.Fatal(err)
	}
	if err := div.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	reg := obs.NewRegistry()
	c, err := New(Config{Dir: dir, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	d, rel, err := c.Acquire(right)
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	if d.CellSize != right.CellSize {
		t.Fatal("mismatched spill adopted instead of rebuilt")
	}
	if got := counter(reg, "fttt_fieldcache_disk_errors_total"); got != 1 {
		t.Fatalf("disk errors = %v, want 1", got)
	}
}

func TestAcquireBuildErrorNotCached(t *testing.T) {
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	bad := field.Spec{ // 1 node: classifier construction fails
		Field:    fieldRect,
		Nodes:    deploy.Grid(fieldRect, 1).Positions(),
		C:        rf.Default().UncertaintyC(1),
		CellSize: 3,
		Workers:  1,
	}
	if _, _, err := c.Acquire(bad); err == nil {
		t.Fatal("bad spec must fail")
	}
	if c.Len() != 0 {
		t.Fatalf("failed build left %d resident entries", c.Len())
	}
	// A good spec under the same cache still works.
	if _, rel, err := c.Acquire(testSpec(t, 4, 10)); err != nil {
		t.Fatal(err)
	} else {
		rel()
	}
}

func TestNewRejectsBadDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Dir: filepath.Join(file, "sub")}); err == nil {
		t.Fatal("dir under a regular file must fail at construction")
	} else if !strings.Contains(err.Error(), "spill dir") {
		var pe *os.PathError
		if !errors.As(err, &pe) {
			t.Fatalf("unexpected error shape: %v", err)
		}
	}
}
