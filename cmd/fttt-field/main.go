// Command fttt-field inspects the monitor-area division: how many faces
// the uncertain boundaries carve, the signature dimension, the neighbor
// link count, and an ASCII rendering of the face map.
//
// Usage:
//
//	fttt-field -n 4 -deploy grid -eps 1 -cell 2 -map
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"fttt/internal/arrangement"
	"fttt/internal/deploy"
	"fttt/internal/field"
	"fttt/internal/fsx"
	"fttt/internal/geom"
	"fttt/internal/randx"
	"fttt/internal/rf"
	"fttt/internal/svg"
	"fttt/internal/vector"
)

func main() {
	var (
		n       = flag.Int("n", 4, "number of sensor nodes")
		layout  = flag.String("deploy", "grid", "deployment: random | grid | cross")
		eps     = flag.Float64("eps", 1, "sensing resolution ε (dBm)")
		sigma   = flag.Float64("sigma", 6, "noise σ_X (dB)")
		beta    = flag.Float64("beta", 4, "path-loss exponent β")
		size    = flag.Float64("field", 100, "square field edge (m)")
		cell    = flag.Float64("cell", 2, "grid division cell size (m)")
		cval    = flag.Float64("C", 0, "override uncertainty constant C (0 = eq. 3)")
		seed    = flag.Uint64("seed", 1, "seed for random deployment")
		drawMap = flag.Bool("map", false, "print an ASCII face map")
		top     = flag.Int("top", 10, "list the largest N faces")
		save    = flag.String("save", "", "persist the computed division to this file (binary spill format, DESIGN.md §13)")
		load    = flag.String("load", "", "load a persisted division instead of computing one")
		svgOut  = flag.String("svg", "", "render the division (faces, sensors, boundary circles) to this SVG file")
	)
	flag.Parse()

	if err := run(*n, *layout, *eps, *sigma, *beta, *size, *cell, *cval, *seed, *drawMap, *top, *save, *load, *svgOut); err != nil {
		fmt.Fprintln(os.Stderr, "fttt-field:", err)
		os.Exit(1)
	}
}

func run(n int, layout string, eps, sigma, beta, size, cell, cval float64, seed uint64, drawMap bool, top int, save, load, svgOut string) error {
	fieldRect := geom.NewRect(geom.Pt(0, 0), geom.Pt(size, size))
	model := rf.Default()
	model.SigmaX = sigma
	model.Beta = beta
	if err := model.Validate(); err != nil {
		return err
	}

	var dep deploy.Deployment
	switch layout {
	case "random":
		dep = deploy.Random(fieldRect, n, randx.New(seed))
	case "grid":
		dep = deploy.Grid(fieldRect, n)
	case "cross":
		dep = deploy.Cross(fieldRect, n, size*0.3)
	default:
		return fmt.Errorf("unknown deployment %q", layout)
	}

	c := cval
	if c == 0 {
		c = model.UncertaintyC(eps)
	}
	var div *field.Division
	if load != "" {
		f, err := os.Open(load)
		if err != nil {
			return err
		}
		div, err = field.Load(f)
		f.Close()
		if err != nil {
			return err
		}
		fmt.Printf("loaded division from %s\n", load)
	} else {
		rc, err := field.NewRatioClassifier(dep.Positions(), c)
		if err != nil {
			return err
		}
		div, err = field.Divide(fieldRect, rc, cell)
		if err != nil {
			return err
		}
	}
	if save != "" {
		f, err := fsx.Create(save)
		if err != nil {
			return err
		}
		err = div.Save(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("saved division to %s\n", save)
	}

	fmt.Printf("nodes=%d pairs=%d C=%.4f cell=%.1fm grid=%dx%d\n",
		n, vector.NumPairs(n), c, div.CellSize, div.Cols, div.Rows)
	fmt.Printf("faces=%d links=%d mean-face-area=%.1fm² uncertain-fraction=%.1f%%\n",
		div.NumFaces(), div.NeighborLinkCount(), div.MeanFaceArea(), 100*div.UncertainFraction())

	// Largest faces.
	idx := make([]int, len(div.Faces))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return div.Faces[idx[a]].Cells > div.Faces[idx[b]].Cells })
	if top > len(idx) {
		top = len(idx)
	}
	fmt.Printf("largest %d faces:\n", top)
	for _, fi := range idx[:top] {
		f := &div.Faces[fi]
		fmt.Printf("  face %4d: %4d cells, centroid %v, %d neighbors, flipped-components=%d\n",
			f.ID, f.Cells, f.Centroid, len(f.Neighbors), f.Signature.CountFlipped())
	}

	if drawMap {
		printMap(div, dep)
	}
	if svgOut != "" {
		circles, err := arrangement.BoundaryCircles(dep.Positions(), c)
		if err != nil {
			circles = nil // C=1: no boundary circles to draw
		}
		f, err := fsx.Create(svgOut)
		if err != nil {
			return err
		}
		err = svg.RenderDivision(f, div, dep.Positions(), circles, 1)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("rendered division to %s\n", svgOut)
	}
	return nil
}

// printMap renders the face raster: each face gets a letter (cycled);
// sensor positions print as '#'.
func printMap(div *field.Division, dep deploy.Deployment) {
	const glyphs = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	// Downsample to at most 64 columns for terminal friendliness.
	step := 1
	for div.Cols/step > 64 {
		step++
	}
	sensors := make(map[[2]int]bool)
	for _, nd := range dep.Nodes {
		c, r := div.CellOf(nd.Pos)
		sensors[[2]int{c / step, r / step}] = true
	}
	for r := div.Rows - 1; r >= 0; r -= step {
		line := make([]byte, 0, div.Cols/step+1)
		for c := 0; c < div.Cols; c += step {
			if sensors[[2]int{c / step, r / step}] {
				line = append(line, '#')
				continue
			}
			f := div.FaceAt(div.CellCenter(c, r))
			line = append(line, glyphs[f.ID%len(glyphs)])
		}
		fmt.Println(string(line))
	}
}
