package field

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"fttt/internal/deploy"
	"fttt/internal/geom"
	"fttt/internal/randx"
)

// oneFaceClassifier puts a field away from its two nodes in one face
// with no neighbours: with so large a C every cell lies in the pair's
// uncertain area.
func oneFaceClassifier(tb testing.TB) *RatioClassifier {
	tb.Helper()
	rc, err := NewRatioClassifier([]geom.Point{geom.Pt(30, 40), geom.Pt(70, 55)}, 1e6)
	if err != nil {
		tb.Fatal(err)
	}
	return rc
}

// spillFile encodes div and returns the file with its section layout.
func spillFile(tb testing.TB, div *Division) ([]byte, spillLayout) {
	tb.Helper()
	b, lay, err := div.encodeSpill()
	if err != nil {
		tb.Fatal(err)
	}
	return b, lay
}

// reseal appends a fresh CRC-32C trailer to body, so a forged file
// reaches Load's structural checks.
func reseal(body []byte) []byte {
	out := append([]byte(nil), body...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, castagnoli))
}

func loadErr(b []byte) error {
	_, err := Load(bytes.NewReader(b))
	return err
}

func roundTrip(t *testing.T, div *Division) *Division {
	t.Helper()
	var buf bytes.Buffer
	if err := div.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// divisionDiff names the first part in which a and b differ, or returns
// "" when they are deeply equal.
func divisionDiff(a, b *Division) string {
	if len(a.Faces) != len(b.Faces) {
		return fmt.Sprintf("%d faces vs %d", len(a.Faces), len(b.Faces))
	}
	for i := range a.Faces {
		if !reflect.DeepEqual(a.Faces[i], b.Faces[i]) {
			return fmt.Sprintf("face %d: %+v vs %+v", i, a.Faces[i], b.Faces[i])
		}
	}
	for _, part := range []struct {
		name string
		x, y any
	}{
		{"raster", a.cellFace, b.cellFace},
		{"SoA store", a.soa, b.soa},
		{"division", a, b},
	} {
		if !reflect.DeepEqual(part.x, part.y) {
			return part.name
		}
	}
	return ""
}

// TestLoadDeepEqualsDivision is the format's completeness contract: a
// loaded division is reflect.DeepEqual to the divided one — faces with
// their neighbour diffs, raster and SoA store — over
// seeded random deployments, cell sizes and worker counts, and an
// adaptive division.
func TestLoadDeepEqualsDivision(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		rng := randx.New(uint64(40 + trial))
		spec := Spec{
			Field:    fieldRect,
			Nodes:    deploy.Random(fieldRect, 5+3*trial, rng.Split("deploy")).Positions(),
			C:        defaultC(),
			CellSize: []float64{1.5, 2, 2.5, 4, 5}[trial],
			Workers:  1 + trial%2,
		}
		orig, err := spec.Divide()
		if err != nil {
			t.Fatal(err)
		}
		if loaded := roundTrip(t, orig); !reflect.DeepEqual(orig, loaded) {
			t.Fatalf("trial %d: loaded division differs: %s", trial, divisionDiff(orig, loaded))
		}
	}
	single, err := Divide(fieldRect, oneFaceClassifier(t), 10)
	if err != nil {
		t.Fatal(err)
	}
	if loaded := roundTrip(t, single); single.NumFaces() != 1 || !reflect.DeepEqual(single, loaded) {
		t.Fatalf("one-face division differs after Load: %s", divisionDiff(single, loaded))
	}
	adaptive, err := AdaptiveDivide(fieldRect, gridClassifier(t, 9, defaultC()), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if loaded := roundTrip(t, adaptive); !reflect.DeepEqual(adaptive, loaded) {
		t.Fatalf("adaptive division differs after Load: %s", divisionDiff(adaptive, loaded))
	}
}

// TestSaveRejectsUnrepresentableDivisions pins Save's refusals: a
// signature code outside the ternary set, and a raster over the cell
// cap Load enforces.
func TestSaveRejectsUnrepresentableDivisions(t *testing.T) {
	small := geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10))
	twoCode, err := Divide(small, oneFaceClassifier(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	twoCode.Faces[0].Signature = []int8{2}
	huge, err := Divide(small, oneFaceClassifier(t), 5)
	if err != nil {
		t.Fatal(err)
	}
	huge.Cols, huge.Rows = 1<<13, 1<<12 // forged: Save must refuse before reading the raster
	for name, div := range map[string]*Division{"code +2": twoCode, "raster over the cap": huge} {
		var buf bytes.Buffer
		if err := div.Save(&buf); err == nil {
			t.Errorf("%s: saved", name)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: failed Save wrote %d bytes", name, buf.Len())
		}
	}
}

// withHeader re-encodes the header's size fields of a spill file.
func withHeader(b []byte, lay spillLayout, cols, rows, faces, dim, denom uint64) []byte {
	out := append([]byte(nil), b[:spillFixed]...)
	for _, v := range []uint64{cols, rows, faces, dim, denom} {
		out = binary.AppendUvarint(out, v)
	}
	return reseal(append(out, b[lay.header:len(b)-4]...))
}

// TestLoadRejectsCorruptBytes forges byte-level damage a peer could
// leave in a shared spill directory; each kind is rejected with its own
// error.
func TestLoadRejectsCorruptBytes(t *testing.T) {
	div, err := Divide(fieldRect, gridClassifier(t, 4, defaultC()), 5)
	if err != nil {
		t.Fatal(err)
	}
	full, lay := spillFile(t, div)
	body := full[:len(full)-4]
	gobEra, err := os.ReadFile("testdata/gob_era.div")
	if err != nil {
		t.Fatal(err)
	}
	// lastFace is the offset of the last face record: its varints
	// follow a 16-byte centroid.
	last := div.Faces[len(div.Faces)-1]
	tail := binary.AppendUvarint(nil, uint64(last.Cells))
	tail = binary.AppendUvarint(tail, uint64(len(last.Neighbors)))
	prev := -1
	for _, nb := range last.Neighbors {
		tail = binary.AppendUvarint(tail, uint64(nb-prev-1))
		prev = nb
	}
	lastFace := lay.faces - 16 - len(tail)
	flip := func(b []byte, off int, bit uint) []byte {
		out := append([]byte(nil), b...)
		out[off] ^= 1 << bit
		return out
	}
	set := func(b []byte, off int, v byte) []byte {
		out := append([]byte(nil), b...)
		out[off] = v
		return out
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"bad magic", set(full, 0, 'X'), errNotSpill},
		{"gob-era stream", gobEra, errGobEra},
		{"future version", set(full, len(spillMagic), spillVersion+1), errVersion},
		{"one flipped bit", flip(full, lay.codes+3, 2), errChecksum},
		{"flipped trailer bit", flip(full, len(full)-1, 7), errChecksum},
		{"unsealed truncation", full[:lay.faces], errChecksum},
		{"empty file", nil, errTruncated},
		{"magic only", full[:len(spillMagic)], errTruncated},
		{"cut at magic end", reseal(body[:lay.magic]), errTruncated},
		{"cut in header", reseal(body[:lay.magic+12]), errTruncated},
		{"cut in header sizes", reseal(body[:lay.header-1]), errTruncated},
		{"cut at header end", reseal(body[:lay.header]), errSize},
		{"cut at codes end", reseal(body[:lay.codes]), errSize},
		{"cut in the last centroid", reseal(body[:lastFace+8]), errTruncated},
		{"cut at faces end", reseal(body[:lay.faces]), errTruncated},
		{"cut in raster", reseal(body[:lay.raster-1]), errTruncated},
		{"trailing bytes", reseal(append(append([]byte(nil), body...), 0, 0)), errTrailing},
		{"illegal code", reseal(set(body, lay.header+1, 2)), errCode},
		{"code -127", reseal(set(body, lay.header, 0x81)), errCode},
		{"Star code", reseal(set(body, lay.codes-1, 0x80)), errCode},
		{"code +2 in the last row", reseal(set(body, lay.codes-2, 2)), errCode},
		{"header denominator 2", withHeader(full, lay, uint64(div.Cols), uint64(div.Rows), uint64(div.NumFaces()), uint64(div.soa.Dim), 2), errDenom},
		{"overlong varint", reseal(append(append(append([]byte(nil), body[:spillFixed]...), 0x80|byte(div.Cols), 0x00), body[spillFixed+1:]...)), errVarint},
		{"face count beyond payload", withHeader(full, lay, uint64(div.Cols), uint64(div.Rows), 1<<40, uint64(div.soa.Dim), 1), errSize},
		{"signature dim beyond payload", withHeader(full, lay, uint64(div.Cols), uint64(div.Rows), uint64(div.NumFaces()), 1<<50, 1), errSize},
		{"raster beyond the cell cap", withHeader(full, lay, 1<<20, 1<<20, uint64(div.NumFaces()), uint64(div.soa.Dim), 1), errSize},
	}
	for _, tc := range cases {
		_, err := Load(bytes.NewReader(tc.data))
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestLoadRejectsStructuralDamage forges sealed files whose every byte
// parses but whose content breaks an invariant Load enforces.
func TestLoadRejectsStructuralDamage(t *testing.T) {
	div, err := Divide(fieldRect, gridClassifier(t, 4, defaultC()), 5)
	if err != nil {
		t.Fatal(err)
	}
	full, lay := spillFile(t, div)
	nf := uint64(div.NumFaces())
	sized := func(cols, rows, faces, dim, denom uint64) error {
		_, err := Load(bytes.NewReader(withHeader(full, lay, cols, rows, faces, dim, denom)))
		return err
	}
	// Every code doubled under denominator 2 decodes to the same values,
	// but Divide would have chosen denominator 1: not canonical.
	doubled := withHeader(full, lay, uint64(div.Cols), uint64(div.Rows), nf, uint64(div.soa.Dim), 2)
	shift := len(doubled) - len(full) // the header varints kept their widths
	for i := lay.header + shift; i < lay.codes+shift; i++ {
		doubled[i] = byte(int8(doubled[i]) * 2)
	}
	doubled = reseal(doubled[:len(doubled)-4])
	for name, err := range map[string]error{
		"zero columns":          sized(0, uint64(div.Rows), nf, uint64(div.soa.Dim), 1),
		"no faces":              sized(uint64(div.Cols), uint64(div.Rows), 0, uint64(div.soa.Dim), 1),
		"denominator 0":         sized(uint64(div.Cols), uint64(div.Rows), nf, uint64(div.soa.Dim), 0),
		"raster short a row":    sized(uint64(div.Cols), uint64(div.Rows)+1, nf, uint64(div.soa.Dim), 1),
		"reducible denominator": loadErr(doubled),
	} {
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Swap two faces' cell counts: the raster no longer agrees.
	d2, _ := Divide(fieldRect, gridClassifier(t, 4, defaultC()), 5)
	for i := range d2.Faces {
		if d2.Faces[i].Cells != d2.Faces[0].Cells {
			d2.Faces[0].Cells, d2.Faces[i].Cells = d2.Faces[i].Cells, d2.Faces[0].Cells
			break
		}
	}
	b, _ := spillFile(t, d2)
	if _, err := Load(bytes.NewReader(b)); err == nil {
		t.Error("cell counts disagreeing with the raster were accepted")
	}
	// Header floats that no grid division has: a NaN cell size, and a
	// field rect with its corners swapped.
	for name, patch := range map[string]func([]byte){
		"NaN cell size": func(b []byte) {
			binary.LittleEndian.PutUint64(b[lay.magic+32:], math.Float64bits(math.NaN()))
		},
		"swapped field corners": func(b []byte) {
			var tmp [16]byte
			copy(tmp[:], b[lay.magic:lay.magic+16])
			copy(b[lay.magic:], b[lay.magic+16:lay.magic+32])
			copy(b[lay.magic+16:], tmp[:])
		},
	} {
		body := append([]byte(nil), full[:len(full)-4]...)
		patch(body)
		if err := loadErr(reseal(body)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A raster run split in two: the same cells, but not the one
	// canonical encoding, so a re-save would differ.
	rd := &spillReader{b: full[:len(full)-4], off: lay.faces}
	for rd.off < lay.raster {
		at := rd.off
		id, _ := rd.uvarint("raster")
		run, _ := rd.uvarint("raster")
		if run == 0 {
			continue
		}
		split := append([]byte(nil), full[:at]...)
		for _, v := range []uint64{id, 0, id, run - 1} {
			split = binary.AppendUvarint(split, v)
		}
		split = reseal(append(split, full[rd.off:len(full)-4]...))
		if err := loadErr(split); err == nil {
			t.Error("a split raster run was accepted")
		}
		break
	}
	// A face listed among its own neighbours.
	d3, _ := Divide(fieldRect, gridClassifier(t, 4, defaultC()), 5)
	f := &d3.Faces[1]
	at := sort.SearchInts(f.Neighbors, 1)
	f.Neighbors = append(f.Neighbors[:at:at], append([]int{1}, f.Neighbors[at:]...)...)
	b, _ = spillFile(t, d3)
	if _, err := Load(bytes.NewReader(b)); err == nil {
		t.Error("a self-link was accepted")
	}
}

// spillSeeds are FuzzLoad's corpus: saved grid, random, one-face and
// C = 1 (bisector, no Flipped codes) divisions, cuts at every section
// boundary, and single-bit flips resealed so mutation starts past the
// CRC.
func spillSeeds(tb testing.TB) [][]byte {
	small := geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10))
	rng := randx.New(3)
	var divs []*Division
	for _, build := range []func() (*Division, error){
		func() (*Division, error) {
			rc, err := NewRatioClassifier(deploy.Grid(fieldRect, 4).Positions(), defaultC())
			if err != nil {
				return nil, err
			}
			return Divide(fieldRect, rc, 10)
		},
		func() (*Division, error) {
			spec := Spec{Field: fieldRect, Nodes: deploy.Random(fieldRect, 5, rng).Positions(), C: defaultC(), CellSize: 10, Workers: 1}
			return spec.Divide()
		},
		func() (*Division, error) { return Divide(small, oneFaceClassifier(tb), 2) },
		func() (*Division, error) {
			rc, err := NewRatioClassifier(deploy.Grid(fieldRect, 9).Positions(), 1)
			if err != nil {
				return nil, err
			}
			return Divide(fieldRect, rc, 10)
		},
	} {
		d, err := build()
		if err != nil {
			tb.Fatal(err)
		}
		divs = append(divs, d)
	}
	var seeds [][]byte
	for _, d := range divs {
		full, lay := spillFile(tb, d)
		body := full[:len(full)-4]
		seeds = append(seeds, full)
		for _, cut := range []int{lay.magic, lay.header, lay.codes, lay.faces, lay.raster - 1} {
			seeds = append(seeds, reseal(body[:cut]))
		}
		for _, off := range []int{lay.magic + 3, lay.header - 1, lay.header, lay.codes + 17, lay.faces + 1, lay.raster - 1} {
			flipped := append([]byte(nil), body...)
			flipped[off] ^= 1 << (off % 8)
			seeds = append(seeds, reseal(flipped))
		}
	}
	return seeds
}

func TestSpillSeedsAreCanonical(t *testing.T) {
	for i, seed := range spillSeeds(t) {
		checkSpillInput(t, seed, i)
	}
}

// checkSpillInput is FuzzLoad's property: Load never panics, allocates
// no more than the input implies, and whatever it accepts saves back to
// the identical bytes.
//
// The allocation budget: everything Load derives from the codes, face
// records and read buffer is linear in the input, within 128 bytes per
// input byte. The raster (8 bytes a cell) and the neighbour diffs (8
// bytes an entry) are the two sizes the bytes do not bound, and Load
// allocates them only once every check has passed.
func checkSpillInput(t *testing.T, data []byte, id any) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err := Load(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	budget := 128*uint64(len(data)) + 64<<10
	if err == nil {
		budget += 8 * uint64(len(d.cellFace))
		for _, f := range d.Faces {
			for _, diff := range f.NeighborDiffs {
				budget += 8 * uint64(len(diff))
			}
		}
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Fatalf("input %v: Load of %d bytes allocated %d, budget %d (err %v)", id, len(data), got, budget, err)
	}
	if err != nil {
		return
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatalf("input %v: accepted division does not save: %v", id, err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatalf("input %v: accepted %d bytes re-save as %d different bytes", id, len(data), buf.Len())
	}
}

func FuzzLoad(f *testing.F) {
	for _, seed := range spillSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSpillInput(t, data, "fuzz")
	})
}
