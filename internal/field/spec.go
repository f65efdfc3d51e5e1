package field

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"

	"fttt/internal/geom"
	"fttt/internal/vector"
)

// Spec describes one division build completely: everything the
// approximate grid division of Sec. 4.3 consumes. Two specs with equal
// content produce byte-identical divisions (DivideWorkers' determinism
// contract), which is what makes the content hash of Key a safe cache
// address: internal/fieldcache shares one immutable *Division across
// every consumer whose spec hashes alike.
type Spec struct {
	// Field is the monitor area.
	Field geom.Rect
	// Nodes are the sensor positions in ID order.
	Nodes []geom.Point
	// C is the uncertainty constant of eq. 3 — the RF/resolution
	// parameters (β, σ_X, ε) enter the division only through it.
	C float64
	// CellSize is the grid cell edge in metres.
	CellSize float64
	// Workers is the signature-pass worker count handed to
	// DivideWorkers; ≤ 0 selects runtime.NumCPU(). It is a construction
	// latency knob only — the output is byte-identical for every
	// setting — so Key excludes it.
	Workers int
}

// specKeyVersion tags the canonical encoding Key hashes; bump it if the
// encoding (or anything the division derives from) ever changes shape,
// so stale disk-spill entries can never alias a new build.
const specKeyVersion = "fttt-divspec/v1"

// Key returns the spec's content address: the hex SHA-256 of a
// canonical binary encoding of (field rect, node coordinates, C, cell
// size). Workers is excluded — it does not affect the output.
func (s Spec) Key() string {
	h := sha256.New()
	h.Write([]byte(specKeyVersion))
	var buf [8]byte
	f64 := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	f64(s.Field.Min.X)
	f64(s.Field.Min.Y)
	f64(s.Field.Max.X)
	f64(s.Field.Max.Y)
	f64(s.C)
	f64(s.CellSize)
	binary.LittleEndian.PutUint64(buf[:], uint64(len(s.Nodes)))
	h.Write(buf[:])
	for _, n := range s.Nodes {
		f64(n.X)
		f64(n.Y)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Divide builds the division the spec describes: a RatioClassifier over
// the nodes with constant C, then the (possibly parallel) signature
// pass. The result is byte-identical for every Workers setting.
func (s Spec) Divide() (*Division, error) {
	rc, err := NewRatioClassifier(s.Nodes, s.C)
	if err != nil {
		return nil, err
	}
	w := s.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	return DivideWorkers(s.Field, rc, s.CellSize, w)
}

// Matches cheaply verifies that d could have been built from this spec:
// field rect, cell size, raster dimensions and the signature dimension
// implied by the node count must all agree. It cannot prove the node
// coordinates match (that would cost a full re-division) — it exists to
// fail fast on a mixed-up cache entry or disk-spill file before a
// mismatched division corrupts estimates.
func (s Spec) Matches(d *Division) error {
	if d.Field != s.Field {
		return fmt.Errorf("field: division field %v, spec wants %v", d.Field, s.Field)
	}
	if d.CellSize != s.CellSize {
		return fmt.Errorf("field: division cell size %v, spec wants %v", d.CellSize, s.CellSize)
	}
	cols, rows, err := gridDims(s.Field, s.CellSize)
	if err != nil {
		return err
	}
	if d.Cols != cols || d.Rows != rows {
		return fmt.Errorf("field: division raster %dx%d, spec wants %dx%d", d.Cols, d.Rows, cols, rows)
	}
	want := vector.NumPairs(len(s.Nodes))
	if len(d.Faces) == 0 {
		return fmt.Errorf("field: division has no faces")
	}
	if got := len(d.Faces[0].Signature); got != want {
		return fmt.Errorf("field: division signature dimension %d, spec's %d nodes want %d pairs",
			got, len(s.Nodes), want)
	}
	return nil
}

// ApproxBytes estimates the division's resident memory: the raster, the
// face records with their neighbor lists and per-link diffs, and the
// signature store their Signature rows view. The estimate feeds the
// fieldcache bytes gauge; it is deliberately cheap and approximate
// (slice headers are flat constants), not an exact accounting.
func (d *Division) ApproxBytes() int64 {
	const (
		ptrSize    = 8
		faceHeader = 112 // Face struct: ID, centroid, cells, 4 slice headers
	)
	total := int64(len(d.cellFace)) * ptrSize
	for i := range d.Faces {
		f := &d.Faces[i]
		total += faceHeader
		total += int64(len(f.Neighbors)) * ptrSize
		for _, diff := range f.NeighborDiffs {
			total += 24 + int64(len(diff))*ptrSize
		}
	}
	return total + d.soa.ApproxBytes()
}
