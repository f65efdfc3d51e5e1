package field

import (
	"slices"

	"fttt/internal/geom"
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
// centroids, cell counts and neighbour lists: the bitplanes, each
// face's Signature view of its row and the per-link NeighborDiffs. One
// code path builds a divided and a loaded division, so they are
// reflect.DeepEqual by construction.
func (d *Division) assemble(s *SigSoA) {
	s.deriveBitplanes()
	d.soa = s
	for f := range d.Faces {
		d.Faces[f].Signature = s.FaceRow(f)
	}
	d.deriveNeighborDiffs(s)
}

// deriveNeighborDiffs fills every face's NeighborDiffs. Each undirected
// link's diff is derived once, into one slab sized exactly by a
// popcount pass, and both directions share the slice. Neighbour lists
// are symmetric and ascending, so walking faces a in ascending order
// reaches each face b's lower neighbours in b's own order: next[b] is
// the slot of the one still to come.
func (d *Division) deriveNeighborDiffs(s *SigSoA) {
	links, total := 0, 0
	for a := range d.Faces {
		links += len(d.Faces[a].Neighbors)
		for _, b := range d.Faces[a].Neighbors {
			if b > a {
				total += s.linkDiffLen(a, b)
			}
		}
	}
	diffs := make([][]int, links)
	for a := range d.Faces {
		f := &d.Faces[a]
		f.NeighborDiffs, diffs = diffs[:len(f.Neighbors):len(f.Neighbors)], diffs[len(f.Neighbors):]
	}
	slab := make([]int, 0, total)
	next := make([]int, len(d.Faces))
	for a := range d.Faces {
		f := &d.Faces[a]
		for i, b := range f.Neighbors {
			if b < a {
				continue
			}
			start := len(slab)
			slab = s.appendLinkDiff(slab, a, b)
			var diff []int // two faces always differ; keep an empty diff nil regardless
			if len(slab) > start {
				diff = slab[start:len(slab):len(slab)]
			}
			f.NeighborDiffs[i] = diff
			d.Faces[b].NeighborDiffs[next[b]] = diff
			next[b]++
		}
	}
}
