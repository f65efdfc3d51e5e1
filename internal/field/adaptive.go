package field

import (
	"bytes"
	"fmt"
	"math"

	"fttt/internal/geom"
)

// AdaptiveDivide is the double-level grid division of the authors'
// companion work [29]: the field is first covered with coarse blocks;
// blocks whose probed signatures are uniform are filled wholesale, and
// only blocks straddling an uncertain boundary are refined to fine
// cells. The result is bit-compatible with Divide at the fine
// resolution wherever signatures were probed, and much cheaper to build
// when boundaries cover a small fraction of the field.
//
// coarse must be a positive integer multiple of fine. Uniformity is
// probed at nine points per block (corners, edge midpoints, centre); a
// boundary thinner than the probe spacing can be missed inside a
// "uniform" block, which is the documented approximation — shrink coarse
// to tighten it.
func AdaptiveDivide(fieldRect geom.Rect, classifier *RatioClassifier, coarse, fine float64) (*Division, error) {
	if fine <= 0 {
		return nil, fmt.Errorf("field: non-positive fine cell size %v", fine)
	}
	ratio := coarse / fine
	iratio := int(ratio + 0.5)
	if iratio < 1 || math.Abs(ratio-float64(iratio)) > 1e-9 {
		return nil, fmt.Errorf("field: coarse %v must be an integer multiple of fine %v", coarse, fine)
	}
	// Same ceiling grid semantics as Divide, so the bit-compatibility
	// claim holds for non-dividing fine cell sizes too.
	cols, rows, err := gridDims(fieldRect, fine)
	if err != nil {
		return nil, err
	}
	d := &Division{Field: fieldRect, CellSize: fine, Cols: cols, Rows: rows, cellFace: make([]int, cols*rows)}

	// Walk coarse blocks; face IDs follow first appearance in the walk.
	cc := newCellCoder(classifier)
	first := make([]byte, len(cc.row))
	for br := 0; br < rows; br += iratio {
		for bc := 0; bc < cols; bc += iratio {
			rEnd := min(br+iratio, rows)
			cEnd := min(bc+iratio, cols)
			// Probe 9 points of the block's bounding box.
			x0 := fieldRect.Min.X + float64(bc)*fine
			y0 := fieldRect.Min.Y + float64(br)*fine
			x1 := fieldRect.Min.X + float64(cEnd)*fine
			y1 := fieldRect.Min.Y + float64(rEnd)*fine
			xm, ym := (x0+x1)/2, (y0+y1)/2
			probes := [9]geom.Point{
				{X: x0, Y: y0}, {X: xm, Y: y0}, {X: x1, Y: y0},
				{X: x0, Y: ym}, {X: xm, Y: ym}, {X: x1, Y: ym},
				{X: x0, Y: y1}, {X: xm, Y: y1}, {X: x1, Y: y1},
			}
			copy(first, cc.classify(probes[0]))
			uniform := true
			for _, p := range probes[1:] {
				if !bytes.Equal(first, cc.classify(p)) {
					uniform = false
					break
				}
			}
			id := -1
			if uniform {
				id = cc.intern(first)
			}
			for r := br; r < rEnd; r++ {
				for c := bc; c < cEnd; c++ {
					if !uniform { // refine: per-fine-cell signatures
						id = cc.intern(cc.classify(d.CellCenter(c, r)))
					}
					d.cellFace[r*cols+c] = id
				}
			}
		}
	}
	// Centroids sum in the same block walk, so the float order is the
	// walk's.
	return d.finish(cc, iratio), nil
}
