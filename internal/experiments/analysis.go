package experiments

import (
	"math"

	"fttt/internal/arrangement"
	"fttt/internal/core"
	"fttt/internal/deploy"
	"fttt/internal/field"
	"fttt/internal/geom"
	"fttt/internal/match"
	"fttt/internal/randx"
	"fttt/internal/sampling"
	"fttt/internal/stats"
	"fttt/internal/vector"
)

// SamplingTimesRow compares the Sec. 5.1 theory with Monte-Carlo
// estimates of the probability that a grouping sampling of k instants
// captures all flipped pairs.
type SamplingTimesRow struct {
	K         int
	Theory    float64 // (1-(1/2)^(k-1))^(N-1), the paper's closed form
	Empirical float64 // Monte-Carlo capture frequency
}

// SamplingTimes evaluates theory vs simulation for nPairs expected
// flipped pairs over the given ks. It also returns the paper's k bound
// for λ = 0.99.
func SamplingTimes(p Params, nPairs int, ks []int, trials int) (rows []SamplingTimesRow, kFor99 int) {
	rng := randx.New(p.Seed).Split("sampling-times")
	for _, k := range ks {
		captured := 0
		for trial := 0; trial < trials; trial++ {
			all := true
			for pair := 0; pair < nPairs; pair++ {
				up, down := false, false
				for s := 0; s < k; s++ {
					if rng.Bernoulli(0.5) {
						up = true
					} else {
						down = true
					}
				}
				if !(up && down) {
					all = false
					break
				}
			}
			if all {
				captured++
			}
		}
		rows = append(rows, SamplingTimesRow{
			K:         k,
			Theory:    core.FlipCaptureProbability(nPairs, k),
			Empirical: float64(captured) / float64(trials),
		})
	}
	return rows, core.RequiredSamplingTimes(nPairs, 0.99)
}

// ErrorScalingRow is one point of the Sec. 5.2 worst-case-error check:
// mean tracking error versus sampling times k and node count n, next to
// the theoretical envelope 1/(2^((k-1)/2)·ρ·R) (up to a constant).
type ErrorScalingRow struct {
	K        int
	N        int
	MeanErr  float64
	Envelope float64
}

// ErrorScaling sweeps k and n and reports mean FTTT error with the
// theoretical scaling envelope of eq. 10.
func ErrorScaling(p Params, ks, ns []int) ([]ErrorScalingRow, error) {
	root := randx.New(p.Seed).Split("error-scaling")
	var rows []ErrorScalingRow
	for _, k := range ks {
		for _, n := range ns {
			var all []float64
			for trial := 0; trial < p.Trials; trial++ {
				pp := p
				pp.K = k
				s, err := newScenario(pp, n, false, root.SplitN("s", k*100000+n*100+trial))
				if err != nil {
					return nil, err
				}
				est, err := s.Run(FTTTBasic)
				if err != nil {
					return nil, err
				}
				all = append(all, s.errorsOf(est[FTTTBasic])...)
			}
			rho := float64(n) / p.Field.Area()
			env := 1 / (math.Pow(2, float64(k-1)/2) * rho * p.Range)
			rows = append(rows, ErrorScalingRow{
				K: k, N: n,
				MeanErr:  stats.Mean(all),
				Envelope: env,
			})
		}
	}
	return rows, nil
}

// MatchCostRow compares the matcher costs of Sec. 4.4(2): faces evaluated
// per localization by the exhaustive O(n⁴) scan versus the heuristic
// neighbor-link search, as the node count grows.
type MatchCostRow struct {
	N              int
	Faces          int
	Links          int
	ExhaustivePer  float64
	HeuristicPer   float64
	HeuristicError float64 // mean extra error vs exhaustive estimate (m)
}

// MatchCost measures both matchers on identical sampling vectors.
func MatchCost(p Params, ns []int, locs int) ([]MatchCostRow, error) {
	root := randx.New(p.Seed).Split("match-cost")
	var rows []MatchCostRow
	for _, n := range ns {
		dep := deploy.Random(p.Field, n, root.SplitN("deploy", n))
		c := p.Model.UncertaintyC(p.Epsilon)
		rc, err := field.NewRatioClassifier(dep.Positions(), c)
		if err != nil {
			return nil, err
		}
		div, err := field.Divide(p.Field, rc, p.CellSize)
		if err != nil {
			return nil, err
		}
		ex := &match.Batch{Div: div, Exhaustive: true}
		h := &match.Heuristic{Div: div}
		sampler := &sampling.Sampler{Model: p.Model, Nodes: dep.Positions(), Range: p.Range, Epsilon: p.Epsilon}

		rng := root.SplitN("trace", n)
		var exVisited, hVisited, errSum float64
		var prevEx, prevH *field.Face
		pos := geom.Pt(rng.Uniform(10, 90), rng.Uniform(10, 90))
		for i := 0; i < locs; i++ {
			// A slow random walk keeps consecutive localizations close,
			// the regime Algorithm 2's warm start exploits.
			pos = p.Field.Clamp(pos.Add(geom.Vec{
				X: rng.Normal(0, 2),
				Y: rng.Normal(0, 2),
			}))
			v := sampler.Sample(pos, p.K, rng.SplitN("loc", i)).Vector()
			re := ex.Match(v, prevEx)
			rh := h.Match(v, prevH)
			prevEx, prevH = re.Face, rh.Face
			exVisited += float64(re.Visited)
			hVisited += float64(rh.Visited)
			errSum += rh.Estimate.Dist(re.Estimate)
		}
		rows = append(rows, MatchCostRow{
			N:              n,
			Faces:          div.NumFaces(),
			Links:          div.NeighborLinkCount(),
			ExhaustivePer:  exVisited / float64(locs),
			HeuristicPer:   hVisited / float64(locs),
			HeuristicError: errSum / float64(locs),
		})
	}
	return rows, nil
}

// GridResolutionRow is the DESIGN.md §5 ablation: tracking error and
// preprocessing cost versus the approximate-division cell size.
type GridResolutionRow struct {
	CellSize float64
	Faces    int
	MeanErr  float64
}

// GridResolution sweeps the grid cell size with fixed n, k, ε.
func GridResolution(p Params, n int, cells []float64) ([]GridResolutionRow, error) {
	root := randx.New(p.Seed).Split("grid-resolution")
	var rows []GridResolutionRow
	for _, cell := range cells {
		pp := p
		pp.CellSize = cell
		var all []float64
		faces := 0
		for trial := 0; trial < p.Trials; trial++ {
			s, err := newScenario(pp, n, false, root.SplitN("s", int(cell*10)*1000+trial))
			if err != nil {
				return nil, err
			}
			est, err := s.Run(FTTTBasic)
			if err != nil {
				return nil, err
			}
			all = append(all, s.errorsOf(est[FTTTBasic])...)
			if faces == 0 {
				div, _, err := s.divisions(false)
				if err != nil {
					return nil, err
				}
				faces = div.NumFaces()
			}
		}
		rows = append(rows, GridResolutionRow{CellSize: cell, Faces: faces, MeanErr: stats.Mean(all)})
	}
	return rows, nil
}

// BoundaryAblationRow is the DESIGN.md §5 ablation comparing three
// boundary choices on identical samples: the paper's eq. 3 Apollonius
// boundaries, the flip-calibrated boundaries (rf.Model.CalibratedC), and
// certain bisectors (C = 1, forcing hard pair decisions) — the heart of
// the paper's claim that modelling uncertainty helps.
type BoundaryAblationRow struct {
	N              int
	MeanEq3        float64 // uncertain boundaries, eq. 3's C
	MeanCalibrated float64 // flip-calibrated C
	MeanCertain    float64 // certain bisectors (C = 1)
}

// BoundaryAblation runs FTTT with all three classifiers on identical
// samples.
func BoundaryAblation(p Params, ns []int) ([]BoundaryAblationRow, error) {
	root := randx.New(p.Seed).Split("boundary-ablation")
	var rows []BoundaryAblationRow
	for _, n := range ns {
		var eq3, calibrated, certain []float64
		for trial := 0; trial < p.Trials; trial++ {
			rng := root.SplitN("s", n*100+trial)
			s, err := newScenario(p, n, false, rng)
			if err != nil {
				return nil, err
			}
			// Eq. 3 division via the normal path.
			est, err := s.Run(FTTTBasic)
			if err != nil {
				return nil, err
			}
			eq3 = append(eq3, s.errorsOf(est[FTTTBasic])...)

			runWithC := func(c float64, vec func(g *sampling.Group) vector.Vector) ([]float64, error) {
				rc, err := field.NewRatioClassifier(s.nodes, c)
				if err != nil {
					return nil, err
				}
				div, err := field.Divide(p.Field, rc, p.CellSize)
				if err != nil {
					return nil, err
				}
				ex := &match.Batch{Div: div, Exhaustive: true}
				var prev *field.Face
				var errs []float64
				for i, g := range s.groups {
					r := ex.Match(vec(g), prev)
					prev = r.Face
					errs = append(errs, r.Estimate.Dist(s.trace[i]))
				}
				return errs, nil
			}
			cal, err := runWithC(p.Model.CalibratedC(p.Epsilon, p.K),
				func(g *sampling.Group) vector.Vector { return g.Vector() })
			if err != nil {
				return nil, err
			}
			calibrated = append(calibrated, cal...)
			cert, err := runWithC(1, certainVector)
			if err != nil {
				return nil, err
			}
			certain = append(certain, cert...)
		}
		rows = append(rows, BoundaryAblationRow{
			N:              n,
			MeanEq3:        stats.Mean(eq3),
			MeanCalibrated: stats.Mean(calibrated),
			MeanCertain:    stats.Mean(certain),
		})
	}
	return rows, nil
}

// EstimatorRow is the DESIGN.md §5 estimator ablation: the paper's
// argmax maximum-likelihood face against the similarity-weighted top-M
// estimator, on identical samples.
type EstimatorRow struct {
	M       int // 1 = paper's argmax
	MeanErr float64
	StdDev  float64
}

// EstimatorAblation sweeps the top-M width at fixed n.
func EstimatorAblation(p Params, n int, ms []int) ([]EstimatorRow, error) {
	root := randx.New(p.Seed).Split("estimator-ablation")
	var rows []EstimatorRow
	for _, m := range ms {
		var all []float64
		for trial := 0; trial < p.Trials; trial++ {
			s, err := newScenario(p, n, false, root.SplitN("s", n*100+trial))
			if err != nil {
				return nil, err
			}
			cfg := core.Config{
				Field:         p.Field,
				Nodes:         s.nodes,
				Model:         p.Model,
				Epsilon:       p.Epsilon,
				SamplingTimes: p.K,
				Range:         p.Range,
				CellSize:      p.CellSize,
			}
			tr, err := core.New(cfg)
			if err != nil {
				return nil, err
			}
			top := match.WeightedTopM{Div: tr.Division(), M: m}
			for i, g := range s.groups {
				all = append(all, top.Match(g.Vector(), nil).Estimate.Dist(s.trace[i]))
			}
		}
		rows = append(rows, EstimatorRow{M: m, MeanErr: stats.Mean(all), StdDev: stats.StdDev(all)})
	}
	return rows, nil
}

// FaceComplexityRow compares the exact arrangement face count of the
// Apollonius boundaries against the approximate grid division's count
// and the paper's O(n⁴) bound.
type FaceComplexityRow struct {
	N             int
	ExactFaces    int // plane arrangement, including the unbounded face
	GridFaces     int // approximate division within the field
	Intersections int
	N4            int // n⁴ reference
}

// FaceComplexity sweeps node counts. The exact count covers the whole
// plane while the grid count is clipped to the field and quantised to
// cells, so compare growth rates rather than values.
func FaceComplexity(p Params, ns []int) ([]FaceComplexityRow, error) {
	root := randx.New(p.Seed).Split("face-complexity")
	c := p.Model.UncertaintyC(p.Epsilon)
	var rows []FaceComplexityRow
	for _, n := range ns {
		dep := deploy.Random(p.Field, n, root.SplitN("deploy", n))
		st, err := arrangement.Analyze(dep.Positions(), c)
		if err != nil {
			return nil, err
		}
		rc, err := field.NewRatioClassifier(dep.Positions(), c)
		if err != nil {
			return nil, err
		}
		div, err := field.Divide(p.Field, rc, p.CellSize)
		if err != nil {
			return nil, err
		}
		rows = append(rows, FaceComplexityRow{
			N:             n,
			ExactFaces:    st.Faces,
			GridFaces:     div.NumFaces(),
			Intersections: st.Intersections,
			N4:            n * n * n * n,
		})
	}
	return rows, nil
}

// certainVector collapses a grouping sampling into the certain ternary
// vector a C=1 pipeline expects: flipped pairs are forced to a hard
// decision by majority vote, which is exactly the information loss the
// uncertain-area design avoids.
func certainVector(g *sampling.Group) vector.Vector {
	v := g.Vector()
	ext := g.ExtendedVector()
	for k := range v {
		if v[k].IsStar() || v[k] != vector.Flipped {
			continue
		}
		if ext[k] >= 0 {
			v[k] = vector.Nearer
		} else {
			v[k] = vector.Farther
		}
	}
	return v
}
