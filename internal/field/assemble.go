package field

import (
	"fmt"
	"slices"
	"strings"

	"fttt/internal/geom"
	"fttt/internal/vector"
)

// faceGeometry builds the face records from the raster: IDs, cell
// counts, centroids (eq. 5) and neighbour lists. Centroids sum the
// member cell centres over block×block tiles walked row-major, cells
// row-major within a tile: block 1 is DivideWorkers' plain row-major
// scan, and AdaptiveDivide passes its coarse block so the float
// summation order follows its walk. Neighbours are the faces across a
// 4-connected cell edge, ascending.
func (d *Division) faceGeometry(nf, block int) {
	faces := make([]Face, nf)
	sums := make([]geom.Point, nf)
	for br := 0; br < d.Rows; br += block {
		for bc := 0; bc < d.Cols; bc += block {
			for r := br; r < min(br+block, d.Rows); r++ {
				for c := bc; c < min(bc+block, d.Cols); c++ {
					f, p := d.cellFace[r*d.Cols+c], d.CellCenter(c, r)
					sums[f].X += p.X
					sums[f].Y += p.Y
					faces[f].Cells++
				}
			}
		}
	}

	// Every cell edge between two faces is a candidate link in both
	// directions: count them per face, bucket them into one slab, then
	// drop repeats with a per-face stamp and compact each bucket down.
	start := make([]int, nf+1)
	d.eachLink(func(a, b int) { start[a+1]++; start[b+1]++ })
	for f := range nf {
		start[f+1] += start[f]
	}
	links, fill := make([]int, start[nf]), slices.Clone(start[:nf])
	d.eachLink(func(a, b int) {
		links[fill[a]], links[fill[b]] = b, a
		fill[a]++
		fill[b]++
	})
	stamp, w := make([]int, nf), 0
	for f := range faces {
		lo := w
		for _, nb := range links[start[f]:start[f+1]] {
			if stamp[nb] != f+1 {
				stamp[nb] = f + 1
				links[w] = nb
				w++
			}
		}
		slices.Sort(links[lo:w])
		faces[f].ID = f
		faces[f].Neighbors = links[lo:w:w]
		n := float64(faces[f].Cells)
		faces[f].Centroid = geom.Pt(sums[f].X/n, sums[f].Y/n)
	}
	d.Faces = faces
}

// eachLink calls fn(a, b) for every pair of 4-connected cells in
// different faces a and b.
func (d *Division) eachLink(fn func(a, b int)) {
	cf := d.cellFace
	for i, id := range cf {
		if (i+1)%d.Cols != 0 && cf[i+1] != id {
			fn(id, cf[i+1])
		}
		if i+d.Cols < len(cf) && cf[i+d.Cols] != id {
			fn(id, cf[i+d.Cols])
		}
	}
}

// assemble derives everything DivideWorkers, AdaptiveDivide and Load
// share from a face-major row store s and face records carrying IDs,
// centroids, cell counts and neighbour lists: the SoA views, the float
// signature slab, the signature index and the per-link NeighborDiffs.
// One code path builds a divided and a loaded division, so they are
// reflect.DeepEqual by construction.
//
// symbols is nil for a quantized store, which becomes the division's
// SoA. Otherwise s holds a custom classifier's unquantizable values as
// code bytes (Denom 0) that symbols decodes; it finishes the division
// and is dropped, leaving the division without an SoA store.
func (d *Division) assemble(s *SigSoA, symbols *[256]vector.Value) error {
	if symbols == nil {
		s.deriveViews()
		d.soa = s
	}
	// The float slab is the largest view and depends on no other: build
	// it beside the rest.
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.deriveSignatures(s, symbols)
	}()
	defer func() { <-done }()
	if err := d.indexSignatures(s, symbols); err != nil {
		return err
	}
	d.deriveNeighborDiffs(s)
	return nil
}

// decodeTable returns the value each code byte of s stands for: symbols
// itself, or the dequantized code of a quantized store.
func decodeTable(s *SigSoA, symbols *[256]vector.Value) (val [256]vector.Value) {
	if symbols != nil {
		return *symbols
	}
	for i := range val {
		val[i] = vector.Dequantize(int8(i), s.Denom)
	}
	return val
}

// deriveSignatures decodes every face's float signature from the store
// rows into one slab.
func (d *Division) deriveSignatures(s *SigSoA, symbols *[256]vector.Value) {
	val := decodeTable(s, symbols)
	slab := make(vector.Vector, len(s.Rows))
	for i, c := range s.Rows {
		slab[i] = val[uint8(c)]
	}
	for f := range d.Faces {
		d.Faces[f].Signature = slab[f*s.Dim : (f+1)*s.Dim : (f+1)*s.Dim]
	}
}

// indexSignatures builds bySig from the store rows. The keys are the
// strings Vector.Key gives the float signatures, assembled from a
// per-code fragment table into one backing string.
func (d *Division) indexSignatures(s *SigSoA, symbols *[256]vector.Value) error {
	val := decodeTable(s, symbols)
	var frag [256]string
	fragment := func(c int8) string {
		if frag[uint8(c)] == "" {
			frag[uint8(c)] = vector.Vector{val[uint8(c)]}.Key()
		}
		return frag[uint8(c)]
	}
	var sb strings.Builder
	ends := make([]int, len(d.Faces))
	if s.Denom == 1 { // every fragment is one byte: map a row at a time
		sb.Grow(len(s.Rows))
		var tbl [256]byte
		for _, c := range [...]int8{-1, 0, 1, vector.StarCode} {
			tbl[uint8(c)] = fragment(c)[0]
		}
		row := make([]byte, s.Dim)
		for f := range ends {
			for k, c := range s.FaceRow(f) {
				row[k] = tbl[uint8(c)]
			}
			sb.Write(row)
			ends[f] = sb.Len()
		}
	} else {
		for f := range ends {
			for _, c := range s.FaceRow(f) {
				sb.WriteString(fragment(c))
			}
			ends[f] = sb.Len()
		}
	}
	keys := sb.String()
	d.bySig = make(map[string]int, len(d.Faces))
	start := 0
	for f, end := range ends {
		key := keys[start:end]
		if prev, dup := d.bySig[key]; dup {
			// Lemma 1: signatures are unique per face. A duplicate means
			// the file is corrupt (or hand-edited); silently letting the
			// later face win would collapse two faces into one and skew
			// every signature lookup, so reject instead.
			return fmt.Errorf("faces %d and %d share a signature (corrupt division)", prev, f)
		}
		d.bySig[key] = f
		start = end
	}
	return nil
}

// deriveNeighborDiffs fills every face's NeighborDiffs from the store
// into one slab of exactly the counted size.
func (d *Division) deriveNeighborDiffs(s *SigSoA) {
	links, total := 0, 0
	scratch := make([]int, 0, s.Dim) // no diff is longer than a row
	for a := range d.Faces {
		links += len(d.Faces[a].Neighbors)
		for _, b := range d.Faces[a].Neighbors {
			scratch = s.appendLinkDiff(scratch[:0], a, b)
			total += len(scratch)
		}
	}
	diffs := make([][]int, links)
	slab := make([]int, 0, total)
	for a := range d.Faces {
		f := &d.Faces[a]
		f.NeighborDiffs, diffs = diffs[:len(f.Neighbors):len(f.Neighbors)], diffs[len(f.Neighbors):]
		for i, b := range f.Neighbors {
			start := len(slab)
			slab = s.appendLinkDiff(slab, a, b)
			if len(slab) > start { // two faces always differ; keep an empty diff nil regardless
				f.NeighborDiffs[i] = slab[start:len(slab):len(slab)]
			}
		}
	}
}
