// Command fttt-field inspects the monitor-area division: how many faces
// the uncertain boundaries carve, the signature dimension, the neighbor
// link count, and an ASCII rendering of the face map.
//
// With -load the header reports the file's node and pair counts and
// cell size (a spill file does not store C), and -map/-svg, which draw
// the -n/-deploy sensors, must agree with the file's pair count.
//
// Usage:
//
//	fttt-field -n 4 -deploy grid -eps 1 -cell 2 -map
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
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

	if err := run(os.Stdout, *n, *layout, *eps, *sigma, *beta, *size, *cell, *cval, *seed, *drawMap, *top, *save, *load, *svgOut); err != nil {
		fmt.Fprintln(os.Stderr, "fttt-field:", err)
		os.Exit(1)
	}
}

// run builds or loads the division and writes the report to out.
func run(out io.Writer, n int, layout string, eps, sigma, beta, size, cell, cval float64, seed uint64, drawMap bool, top int, save, load, svgOut string) error {
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
	header := fmt.Sprintf("nodes=%d pairs=%d C=%.4f", n, vector.NumPairs(n), c)
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
		// A spill file stores neither the deployment nor C: report what
		// the file holds, and refuse renderings that would draw the
		// flags' sensors over a division built for other ones.
		pairs := len(div.Faces[0].Signature)
		nodes, ok := nodesForPairs(pairs)
		if !ok {
			return fmt.Errorf("%s: signature dimension %d is not C(n,2) for any node count", load, pairs)
		}
		if (drawMap || svgOut != "") && vector.NumPairs(n) != pairs {
			return fmt.Errorf("-map and -svg draw the sensors of -n/-deploy: -n %d gives %d pairs, %s has %d (%d nodes)",
				n, vector.NumPairs(n), load, pairs, nodes)
		}
		header = fmt.Sprintf("nodes=%d pairs=%d", nodes, pairs)
		fmt.Fprintf(out, "loaded division from %s\n", load)
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
		fmt.Fprintf(out, "saved division to %s\n", save)
	}

	fmt.Fprintf(out, "%s cell=%.1fm grid=%dx%d\n", header, div.CellSize, div.Cols, div.Rows)
	fmt.Fprintf(out, "faces=%d links=%d mean-face-area=%.1fm² uncertain-fraction=%.1f%%\n",
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
	fmt.Fprintf(out, "largest %d faces:\n", top)
	for _, fi := range idx[:top] {
		f := &div.Faces[fi]
		fmt.Fprintf(out, "  face %4d: %4d cells, centroid %v, %d neighbors, flipped-components=%d\n",
			f.ID, f.Cells, f.Centroid, len(f.Neighbors), countZero(f.Signature))
	}

	if drawMap {
		printMap(out, div, dep)
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
		fmt.Fprintf(out, "rendered division to %s\n", svgOut)
	}
	return nil
}

// printMap renders the face raster: each face gets a letter (cycled);
// sensor positions print as '#'.
func printMap(out io.Writer, div *field.Division, dep deploy.Deployment) {
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
		fmt.Fprintln(out, string(line))
	}
}

// nodesForPairs solves C(n,2) = pairs for the node count n; ok is false
// when pairs is not a pair count.
func nodesForPairs(pairs int) (n int, ok bool) {
	n = int(math.Round((1 + math.Sqrt(1+8*float64(pairs))) / 2))
	return n, vector.NumPairs(n) == pairs
}

// countZero counts a signature's Flipped (0) codes.
func countZero(sig []int8) int {
	n := 0
	for _, c := range sig {
		if c == 0 {
			n++
		}
	}
	return n
}
