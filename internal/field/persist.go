package field

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"strings"

	"fttt/internal/geom"
)

// The division spill format (DESIGN.md §13). The preprocessing phase of
// Sec. 4.3 is the expensive step of FTTT: a deployment computes it once
// and persists it, and trackers (or peer backends sharing a spill
// directory) Load it instead of re-dividing. Version 1 lays a file out
// as follows; integers are shortest-form unsigned LEB128 varints unless
// noted, floats are raw little-endian IEEE-754 bits.
//
//	magic    "FTTTDIV" and the version byte 1
//	header   field MinX, MinY, MaxX, MaxY and cell size (5 × 8 bytes),
//	         then cols, rows, faces, dim, denom (always 1)
//	codes    faces × dim ternary int8 signature codes (−1, 0, +1),
//	         face-major (SigSoA.Rows)
//	faces    per face: centroid X, Y (2 × 8 bytes), cell count,
//	         neighbour count, then each ascending neighbour ID as its
//	         gap − 1 to the previous one (the first counts from −1)
//	raster   row-major (face, run length − 1) pairs; adjacent runs name
//	         different faces
//	trailer  CRC-32C (Castagnoli) of everything above, 4 bytes LE
//
// The denom field is a leftover of a format that could hold fractional
// codes: Save writes 1 and Load rejects any other value. Everything else
// a Division holds — the bitplanes and NeighborDiffs — is derived on
// Load. Every field has exactly one encoding, so Save(Load(b))
// reproduces b byte for byte.
const (
	spillMagic   = "FTTTDIV"
	spillVersion = 1
	// spillFixed is the fixed-width prefix: magic, version, five floats.
	spillFixed = len(spillMagic) + 1 + 5*8
	// minFaceBytes is the smallest face record: a centroid plus one-byte
	// cell and neighbour counts.
	minFaceBytes = 2*8 + 1 + 1
	// maxRasterCells bounds the raster a file may declare. The raster is
	// run-length coded, so its size cannot be checked against the bytes
	// present; 2^24 cells is a 2.5 cm grid over the paper's 100 m field.
	maxRasterCells = 1 << 24
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Load rejects a malformed file with one of these (wrapped with detail).
var (
	errNotSpill  = errors.New("not a division spill file (bad magic)")
	errGobEra    = errors.New("gob-era division file: the format is no longer read, re-divide")
	errVersion   = errors.New("unsupported division spill version")
	errChecksum  = errors.New("CRC-32C mismatch")
	errTruncated = errors.New("truncated")
	errTrailing  = errors.New("trailing bytes after the raster")
	errCode      = errors.New("illegal int8 signature code")
	errDenom     = errors.New("signature code denominator is not 1")
	errSize      = errors.New("declared size exceeds the payload")
	errVarint    = errors.New("malformed varint")
)

// Save writes the division in the spill format with one Write. The
// signature codes are read from the Face records.
func (d *Division) Save(w io.Writer) error {
	b, _, err := d.encodeSpill()
	if err != nil {
		return fmt.Errorf("field: saving division: %w", err)
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("field: writing division: %w", err)
	}
	return nil
}

// spillLayout records the offset at which each section of an encoded
// file ends (the trailer follows raster).
type spillLayout struct {
	magic, header, codes, faces, raster int
}

func (d *Division) encodeSpill() ([]byte, spillLayout, error) {
	var lay spillLayout
	if d.Cols*d.Rows > maxRasterCells {
		return nil, lay, fmt.Errorf("raster %dx%d exceeds the format's %d cells", d.Cols, d.Rows, maxRasterCells)
	}
	nf, dim := len(d.Faces), 0
	if nf > 0 {
		dim = len(d.Faces[0].Signature)
	}
	links := 0
	for i := range d.Faces {
		links += len(d.Faces[i].Neighbors)
	}
	b := make([]byte, 0, spillFixed+64+nf*(dim+20)+2*links+len(d.cellFace)/2)
	b = append(b, spillMagic...)
	b = append(b, spillVersion)
	lay.magic = len(b)
	for _, v := range [5]float64{d.Field.Min.X, d.Field.Min.Y, d.Field.Max.X, d.Field.Max.Y, d.CellSize} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	for _, v := range [5]int{d.Cols, d.Rows, nf, dim, 1} {
		b = binary.AppendUvarint(b, uint64(v))
	}
	lay.header = len(b)

	for i := range d.Faces {
		f := &d.Faces[i]
		if f.ID != i {
			return nil, lay, fmt.Errorf("face %d has ID %d", i, f.ID)
		}
		if len(f.Signature) != dim {
			return nil, lay, fmt.Errorf("face %d signature dim %d, want %d", i, len(f.Signature), dim)
		}
		for _, c := range f.Signature {
			if c < -1 || c > 1 {
				return nil, lay, fmt.Errorf("face %d: %w %d", i, errCode, c)
			}
			b = append(b, byte(c))
		}
	}
	lay.codes = len(b)

	for i := range d.Faces {
		f := &d.Faces[i]
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f.Centroid.X))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f.Centroid.Y))
		if f.Cells < 0 {
			return nil, lay, fmt.Errorf("face %d has %d cells", i, f.Cells)
		}
		b = binary.AppendUvarint(b, uint64(f.Cells))
		b = binary.AppendUvarint(b, uint64(len(f.Neighbors)))
		prev := -1
		for _, nb := range f.Neighbors {
			if nb <= prev {
				return nil, lay, fmt.Errorf("face %d neighbours are not strictly ascending", i)
			}
			b = binary.AppendUvarint(b, uint64(nb-prev-1))
			prev = nb
		}
	}
	lay.faces = len(b)

	cf := d.cellFace
	for i := 0; i < len(cf); {
		j := i + 1
		for j < len(cf) && cf[j] == cf[i] {
			j++
		}
		if cf[i] < 0 {
			return nil, lay, fmt.Errorf("cell %d maps to invalid face %d", i, cf[i])
		}
		b = binary.AppendUvarint(b, uint64(cf[i]))
		b = binary.AppendUvarint(b, uint64(j-i-1))
		i = j
	}
	lay.raster = len(b)
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
	return b, lay, nil
}

// Load reads a division written by Save. The file may come from a
// faulty or hostile peer, so Load trusts nothing in it: it checks the
// magic, version and CRC, checks every size a header field declares
// against the bytes present before allocating from it, and validates
// every structural invariant a later lookup relies on (raster size and
// face IDs, neighbour bounds, legal codes, unique signatures), so a
// corrupted file fails here rather than panicking or mis-localizing
// later.
func Load(r io.Reader) (*Division, error) {
	b, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("field: reading division: %w", err)
	}
	d, err := decodeSpill(b)
	if err != nil {
		return nil, fmt.Errorf("field: loading division: %w", err)
	}
	return d, nil
}

// readAll reads r to EOF, sized up front when r knows its length, so a
// spill file is read into a single buffer.
func readAll(r io.Reader) ([]byte, error) {
	size := 0
	switch v := r.(type) {
	case interface{ Len() int }:
		size = v.Len()
	case interface{ Stat() (fs.FileInfo, error) }:
		if st, err := v.Stat(); err == nil && st.Mode().IsRegular() {
			size = int(st.Size())
		}
	}
	var buf bytes.Buffer
	buf.Grow(size + bytes.MinRead)
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

func decodeSpill(b []byte) (*Division, error) {
	if !bytes.HasPrefix(b, []byte(spillMagic)) {
		switch {
		case strings.HasPrefix(spillMagic, string(b)):
			return nil, fmt.Errorf("%w: %d-byte file", errTruncated, len(b))
		case bytes.Contains(b[:min(len(b), 64)], []byte("divisionSnapshot")):
			return nil, errGobEra
		}
		return nil, errNotSpill
	}
	if len(b) == len(spillMagic) {
		return nil, fmt.Errorf("%w: no version byte", errTruncated)
	}
	if v := b[len(spillMagic)]; v != spillVersion {
		return nil, fmt.Errorf("%w %d (want %d)", errVersion, v, spillVersion)
	}
	if len(b) < spillFixed+4 {
		return nil, fmt.Errorf("%w: %d-byte file", errTruncated, len(b))
	}
	body := b[:len(b)-4]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(b[len(body):]); got != want {
		return nil, fmt.Errorf("%w: computed %08x, trailer says %08x", errChecksum, got, want)
	}

	rd := &spillReader{b: body, off: len(spillMagic) + 1}
	var hf [5]float64
	for i := range hf {
		hf[i] = rd.f64()
	}
	var hv [5]uint64
	for i := range hv {
		v, err := rd.uvarint("header")
		if err != nil {
			return nil, err
		}
		hv[i] = v
	}
	rect := geom.Rect{Min: geom.Pt(hf[0], hf[1]), Max: geom.Pt(hf[2], hf[3])}
	cell := hf[4]
	if !finite(hf[:]...) || !(rect.Min.X < rect.Max.X && rect.Min.Y < rect.Max.Y) || !(cell > 0) {
		return nil, fmt.Errorf("corrupt division header (field %v cell %v)", rect, cell)
	}
	if hv[0] < 1 || hv[1] < 1 {
		return nil, fmt.Errorf("corrupt division header (%dx%d cell %v)", hv[0], hv[1], cell)
	}
	if hv[0] > maxRasterCells || hv[1] > maxRasterCells/hv[0] {
		return nil, fmt.Errorf("%w: raster %dx%d exceeds %d cells", errSize, hv[0], hv[1], maxRasterCells)
	}
	if hv[2] == 0 {
		return nil, fmt.Errorf("division has no faces")
	}
	if hv[4] != 1 {
		return nil, fmt.Errorf("%w: %d", errDenom, hv[4])
	}
	// Each face needs its dim codes plus a minimal record. The first
	// three tests bound both products by left, so the fourth cannot
	// overflow.
	left := uint64(rd.remaining())
	if hv[2] > left/minFaceBytes || hv[3] > left || (hv[3] > 0 && hv[2] > left/hv[3]) ||
		hv[2]*hv[3]+hv[2]*minFaceBytes > left {
		return nil, fmt.Errorf("%w: %d faces × %d pairs in %d bytes", errSize, hv[2], hv[3], left)
	}
	cols, rows, nf, dim := int(hv[0]), int(hv[1]), int(hv[2]), int(hv[3])

	// The codes become the SoA rows as they are checked: −1 (0xFF), 0
	// and +1 are the bytes b with b+1 ≤ 2.
	raw := rd.take(nf * dim)
	codes := make([]int8, nf*dim)
	for i, c := range raw {
		if c+1 > 2 {
			return nil, fmt.Errorf("%w %d at face %d", errCode, int8(c), i/dim)
		}
		codes[i] = int8(c)
	}

	// Faces. Each neighbour ID takes at least one byte, so the file's
	// length bounds the shared neighbour slab; faces take their
	// sub-slices once it is complete.
	faces := make([]Face, nf)
	nbrs := make([]int, 0, 4*nf) // a hint: grid faces have about four neighbours
	ends := make([]int, nf)
	for f := range faces {
		if rd.remaining() < 2*8 {
			return nil, fmt.Errorf("%w: face %d centroid", errTruncated, f)
		}
		x, y := rd.f64(), rd.f64()
		cells, err := rd.uvarint("face cells")
		if err != nil {
			return nil, err
		}
		if cells < 1 || cells > uint64(cols*rows) {
			return nil, fmt.Errorf("face %d has %d cells", f, cells)
		}
		cnt, err := rd.uvarint("neighbour count")
		if err != nil {
			return nil, err
		}
		prev := uint64(math.MaxUint64) // −1: the first gap counts from it
		for j := uint64(0); j < cnt; j++ {
			gap, err := rd.uvarint("neighbour")
			if err != nil {
				return nil, err
			}
			id := prev + 1 + gap
			if gap >= uint64(nf) || id >= uint64(nf) {
				return nil, fmt.Errorf("face %d has invalid neighbor %d", f, id)
			}
			if id == uint64(f) {
				return nil, fmt.Errorf("face %d lists itself as a neighbor", f)
			}
			nbrs = append(nbrs, int(id))
			prev = id
		}
		faces[f] = Face{ID: f, Centroid: geom.Pt(x, y), Cells: int(cells)}
		ends[f] = len(nbrs)
	}
	start := 0
	for f, end := range ends {
		faces[f].Neighbors = nbrs[start:end:end]
		start = end
	}

	// Raster, pass 1: validate the runs (face IDs, coverage, per-face
	// cell counts); the raster itself is allocated last.
	rasterAt, total := rd.off, cols*rows
	counts := make([]int, nf)
	last := -1
	for n := 0; n < total; {
		id, err := rd.uvarint("raster")
		if err != nil {
			return nil, err
		}
		run, err := rd.uvarint("raster")
		if err != nil {
			return nil, err
		}
		if id >= uint64(nf) {
			return nil, fmt.Errorf("cell %d maps to invalid face %d", n, id)
		}
		if int(id) == last {
			return nil, fmt.Errorf("raster runs at cell %d repeat face %d", n, id)
		}
		if run >= uint64(total-n) {
			return nil, fmt.Errorf("raster run at cell %d overruns the %d-cell raster", n, total)
		}
		last = int(id)
		counts[id] += int(run) + 1
		n += int(run) + 1
	}
	if rd.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d bytes", errTrailing, rd.remaining())
	}
	for f := range faces {
		if counts[f] != faces[f].Cells {
			return nil, fmt.Errorf("face %d claims %d cells, the raster holds %d", f, faces[f].Cells, counts[f])
		}
	}

	if err := uniqueRows(raw, nf, dim); err != nil {
		return nil, err
	}
	// The diffs and the raster, the sizes the bytes do not bound, are
	// allocated once every check has passed.
	d := &Division{Field: rect, CellSize: cell, Cols: cols, Rows: rows, Faces: faces}
	d.assemble(&SigSoA{NumFaces: nf, Dim: dim, Rows: codes, Words: (dim + 63) / 64})
	rd.off = rasterAt // pass 1 parsed these runs: their errors are dropped
	d.cellFace = make([]int, total)
	for n := 0; n < total; {
		id, _ := rd.uvarint("raster")
		run, _ := rd.uvarint("raster")
		for end := n + int(run) + 1; n < end; n++ {
			d.cellFace[n] = int(id)
		}
	}
	return d, nil
}

// uniqueRows rejects two faces with the same code row. Lemma 1 makes
// signatures unique per face, so a duplicate means the file is corrupt
// (or hand-edited): letting it through would leave two faces the
// matcher cannot tell apart.
func uniqueRows(codes []byte, nf, dim int) error {
	keys := string(codes)
	seen := make(map[string]int, nf)
	for f := range nf {
		key := keys[f*dim : (f+1)*dim]
		if prev, dup := seen[key]; dup {
			return fmt.Errorf("faces %d and %d share a signature (corrupt division)", prev, f)
		}
		seen[key] = f
	}
	return nil
}

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return false
		}
	}
	return true
}

// spillReader walks a spill file body.
type spillReader struct {
	b   []byte
	off int
}

func (r *spillReader) remaining() int { return len(r.b) - r.off }

// f64 reads raw float bits; callers have checked the bytes are present.
func (r *spillReader) f64() float64 {
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

// take returns the next n bytes; callers have checked they are present.
func (r *spillReader) take(n int) []byte {
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

// uvarint reads one shortest-form LEB128 varint: an overlong encoding
// is rejected, so every value has exactly one byte form.
func (r *spillReader) uvarint(what string) (uint64, error) {
	var x uint64
	for i := 0; ; i++ {
		if r.off >= len(r.b) {
			return 0, fmt.Errorf("%w: %s", errTruncated, what)
		}
		c := r.b[r.off]
		r.off++
		if i == binary.MaxVarintLen64-1 && c > 1 {
			return 0, fmt.Errorf("%w: %s overflows 64 bits", errVarint, what)
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			if c == 0 && i > 0 {
				return 0, fmt.Errorf("%w: %s is not in shortest form", errVarint, what)
			}
			return x, nil
		}
	}
}
