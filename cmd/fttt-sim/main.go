// Command fttt-sim runs one target-tracking simulation and reports the
// error statistics: deploy sensors, generate a random-waypoint trace,
// track it with the selected strategy, print per-run summaries.
//
// With -net the reports travel through the simulated WSN substrate
// (multihop forwarding, loss, energy, latency) instead of the ideal
// sampler; with -telemetry-addr the run exposes live Prometheus metrics,
// expvar and pprof while it executes.
//
// With -targets N (sampler mode) one MultiTracker serves N concurrent
// targets over a single shared division, sending each round's
// localizations as one LocalizeBatch.
//
// Usage:
//
//	fttt-sim -n 20 -k 5 -eps 1 -duration 60 -strategy fttt-ext -seed 7
//	fttt-sim -net -duration 600 -telemetry-addr :9090   # curl :9090/metrics
//	fttt-sim -targets 8 -duration 60                    # multi-target serving
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"fttt/internal/baseline"
	"fttt/internal/byz"
	"fttt/internal/core"
	"fttt/internal/deploy"
	"fttt/internal/faults"
	"fttt/internal/geom"
	"fttt/internal/mobility"
	"fttt/internal/obs"
	"fttt/internal/pipeline"
	"fttt/internal/randx"
	"fttt/internal/rf"
	"fttt/internal/sampling"
	"fttt/internal/stats"
	"fttt/internal/wsnnet"
)

// simConfig collects the per-run knobs (one trial = one simConfig run).
type simConfig struct {
	n                          int
	layout                     string
	k                          int
	eps, sigma, beta           float64
	rng, size, cell            float64
	duration, locPeriod        float64
	vmin, vmax, loss           float64
	strategy                   string
	seed                       uint64
	verbose, report            bool
	net                        bool
	commRange, hopLoss, hopDel float64
	targets                    int
	script                     *faults.Script
	starFrac, retryBackoff     float64
	defense                    bool
	obs                        *obs.Registry
	// rec, when non-nil, records structured traces of every round; main
	// writes the JSONL export to -trace at exit.
	rec *obs.Recorder
}

// simResult is what one trial contributes to the end-of-run summary.
type simResult struct {
	errs      []float64
	rounds    int
	heard     int
	delivered int
}

func main() {
	var (
		n         = flag.Int("n", 20, "number of sensor nodes")
		layout    = flag.String("deploy", "random", "deployment: random | grid | cross")
		k         = flag.Int("k", 5, "grouping sampling times")
		eps       = flag.Float64("eps", 1, "sensing resolution ε (dBm)")
		sigma     = flag.Float64("sigma", 6, "noise σ_X (dB)")
		beta      = flag.Float64("beta", 4, "path-loss exponent β")
		rng       = flag.Float64("range", 40, "sensing range R (m)")
		size      = flag.Float64("field", 100, "square field edge (m)")
		cell      = flag.Float64("cell", 1, "grid division cell size (m)")
		duration  = flag.Float64("duration", 60, "tracking duration (s)")
		locPeriod = flag.Float64("period", 0.5, "localization period (s)")
		vmin      = flag.Float64("vmin", 1, "minimum target speed (m/s)")
		vmax      = flag.Float64("vmax", 5, "maximum target speed (m/s)")
		loss      = flag.Float64("loss", 0, "report loss probability (sampler mode)")
		strategy  = flag.String("strategy", "fttt", "strategy: fttt | fttt-ext | pm | mle")
		seed      = flag.Uint64("seed", 1, "root random seed")
		trials    = flag.Int("trials", 1, "independent repetitions (fresh deployment + trace per trial)")
		verbose   = flag.Bool("v", false, "print per-point errors")
		netMode   = flag.Bool("net", false, "collect reports over the simulated WSN substrate (fttt strategies only)")
		commRange = flag.Float64("comm", 50, "mote radio range (m, -net mode)")
		hopLoss   = flag.Float64("hoploss", 0.05, "per-hop loss probability (-net mode)")
		hopDelay  = flag.Float64("hopdelay", 0.002, "per-hop delay (s, -net mode)")
		targets   = flag.Int("targets", 1, "number of concurrent targets (sampler mode, fttt strategies)")
		faultSpec = flag.String("faults", "", "fault scenario: a script file path (or @path), or inline directives like 'crash at=20 frac=0.3; burst loss=0.9' (fttt strategies)")
		starFrac  = flag.Float64("starfrac", 0, "star-fraction degradation threshold arming retry + extrapolation (0 = off)")
		backoff   = flag.Float64("retrybackoff", -1, "virtual-time backoff before a degraded round's re-collection (s); -1 = period/5")
		defense   = flag.Bool("defense", false, "arm the Byzantine-sensing defense: trust-weighted matching + quorum voting (fttt strategies)")
		telemetry = flag.String("telemetry-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address during the run")
		tracePath = flag.String("trace", "", "write a JSONL trace recording of the run to this path (convert with fttt-trace)")
	)
	flag.Parse()

	if *trials < 1 {
		*trials = 1
	}
	reg := obs.NewRegistry()
	if *telemetry != "" {
		srv, err := obs.Serve(*telemetry, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fttt-sim: telemetry:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry: http://%s/metrics (expvar at /debug/vars, pprof at /debug/pprof/)\n", srv.Addr())
	}

	var script *faults.Script
	if *faultSpec != "" {
		var err error
		script, err = faults.Load(*faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fttt-sim:", err)
			os.Exit(1)
		}
	}
	if *backoff < 0 {
		*backoff = *locPeriod / 5
	}

	cfg := simConfig{
		n: *n, layout: *layout, k: *k,
		eps: *eps, sigma: *sigma, beta: *beta,
		rng: *rng, size: *size, cell: *cell,
		duration: *duration, locPeriod: *locPeriod,
		vmin: *vmin, vmax: *vmax, loss: *loss,
		strategy: *strategy,
		verbose:  *verbose && *trials == 1,
		report:   *trials == 1,
		net:      *netMode, commRange: *commRange, hopLoss: *hopLoss, hopDel: *hopDelay,
		targets: *targets,
		script:  script, starFrac: *starFrac, retryBackoff: *backoff,
		defense: *defense,
		obs:     reg,
	}
	if *tracePath != "" {
		cfg.rec = obs.NewRecorder(0)
	}

	var all []float64
	var rounds, heard, delivered int
	for trial := 0; trial < *trials; trial++ {
		cfg.seed = *seed + uint64(trial)
		res, err := run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fttt-sim:", err)
			os.Exit(1)
		}
		all = append(all, res.errs...)
		rounds += res.rounds
		heard += res.heard
		delivered += res.delivered
	}
	if *trials > 1 {
		s := stats.Summarize(all)
		boot := randx.New(*seed).Split("bootstrap")
		lo, hi := stats.BootstrapCI(all, 0.95, 2000, boot.Intn)
		fmt.Printf("strategy=%s n=%d k=%d trials=%d localizations=%d\n",
			*strategy, *n, *k, *trials, s.N)
		fmt.Printf("error: mean=%.2fm (95%% CI %.2f–%.2f) stddev=%.2fm median=%.2fm p90=%.2fm max=%.2fm\n",
			s.Mean, lo, hi, s.StdDev, s.Median, s.P90, s.Max)
	}
	printSummary(reg, *netMode, rounds, heard, delivered, all)
	if cfg.rec != nil {
		f, err := os.Create(*tracePath)
		if err == nil {
			err = obs.WriteJSONL(f, cfg.rec.Records())
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "fttt-sim: trace:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace: %d records written to %s (%d dropped by the ring)\n",
			len(cfg.rec.Records()), *tracePath, cfg.rec.Dropped())
	}
}

// printSummary renders the end-of-run metrics table so every invocation
// is self-describing: how many rounds ran, how many reports were lost,
// how accurate the track was and how slow the tail localization was.
func printSummary(reg *obs.Registry, netMode bool, rounds, heard, delivered int, errs []float64) {
	lossPct := 0.0
	if heard > 0 {
		lossPct = 100 * (1 - float64(delivered)/float64(heard))
	}
	fmt.Println("== run summary ==")
	fmt.Printf("  %-22s %d\n", "rounds", rounds)
	fmt.Printf("  %-22s %d\n", "reports heard", heard)
	fmt.Printf("  %-22s %d (%.1f%% lost)\n", "reports delivered", delivered, lossPct)
	fmt.Printf("  %-22s %.2f m\n", "mean error", stats.Mean(errs))
	// Sampler mode times the whole estimate call; net mode attaches the
	// registry to the tracker, whose localize histogram covers the same.
	locHist := reg.Histogram("fttt_sim_localize_seconds", nil)
	if locHist.Count() == 0 {
		locHist = reg.Histogram("fttt_core_localize_seconds", nil)
	}
	fmt.Printf("  %-22s %.3f ms\n", "p95 localize (wall)", locHist.Quantile(0.95)*1e3)
	if deg := reg.Counter("fttt_core_degraded_total").Value(); deg > 0 {
		fmt.Printf("  %-22s %.0f (retried %.0f, extrapolated %.0f)\n", "degraded rounds", deg,
			reg.Counter("fttt_core_retries_total").Value(),
			reg.Counter("fttt_core_extrapolated_total").Value())
	}
	if netMode {
		netP95 := reg.Histogram("fttt_net_delivery_latency_seconds", nil).Quantile(0.95)
		fmt.Printf("  %-22s %.1f ms\n", "p95 delivery (virtual)", netP95*1e3)
		fmt.Printf("  %-22s %.2f mJ\n", "energy spent",
			reg.Counter("fttt_net_energy_joules_total").Value()*1e3)
	}
}

func run(c simConfig) (simResult, error) {
	field := geom.NewRect(geom.Pt(0, 0), geom.Pt(c.size, c.size))
	root := randx.New(c.seed)
	model := rf.Default()
	model.SigmaX = c.sigma
	model.Beta = c.beta
	if err := model.Validate(); err != nil {
		return simResult{}, err
	}

	var dep deploy.Deployment
	switch c.layout {
	case "random":
		dep = deploy.Random(field, c.n, root.Split("deploy"))
	case "grid":
		dep = deploy.Grid(field, c.n)
	case "cross":
		dep = deploy.Cross(field, c.n, c.size*0.3)
	default:
		return simResult{}, fmt.Errorf("unknown deployment %q", c.layout)
	}

	if c.defense && c.strategy != "fttt" && c.strategy != "fttt-ext" {
		return simResult{}, fmt.Errorf("-defense supports the fttt strategies, not %q", c.strategy)
	}

	if c.targets > 1 {
		if c.net {
			return simResult{}, fmt.Errorf("-targets > 1 requires sampler mode (drop -net)")
		}
		if c.strategy != "fttt" && c.strategy != "fttt-ext" {
			return simResult{}, fmt.Errorf("-targets supports the fttt strategies, not %q", c.strategy)
		}
		if c.script != nil {
			return simResult{}, fmt.Errorf("-faults is not supported with -targets > 1")
		}
		return runMulti(c, field, dep, model, root)
	}

	mob := mobility.RandomWaypoint(field, c.vmin, c.vmax, c.duration, root.Split("mobility"))
	if c.net {
		return runNet(c, field, dep, model, mob, root)
	}
	return runSampler(c, field, dep, model, mob, root)
}

// runMulti serves several concurrent targets from one MultiTracker over
// the shared division: each round sends every target's localization as
// one LocalizeBatch, target t drawing from the round stream's
// Split(target ID) substream.
func runMulti(c simConfig, field geom.Rect, dep deploy.Deployment, model rf.Model,
	root *randx.Stream) (simResult, error) {

	variant := core.Basic
	if c.strategy == "fttt-ext" {
		variant = core.Extended
	}
	mcfg := core.Config{
		Field: field, Nodes: dep.Positions(), Model: model,
		Epsilon: c.eps, SamplingTimes: c.k, Range: c.rng, CellSize: c.cell,
		ReportLoss: c.loss, Variant: variant, Obs: c.obs,
	}
	if c.defense {
		mcfg.Defense = &byz.Config{Enabled: true}
	}
	if c.rec != nil {
		// A bare nil-pointer assignment would produce a typed-nil Tracer
		// interface and defeat the tracker's nil fast path.
		mcfg.Tracer = c.rec
	}
	mt, err := core.NewMulti(mcfg)
	if err != nil {
		return simResult{}, err
	}

	// One independent random-waypoint trace per target.
	ids := make([]string, c.targets)
	mobs := make([]mobility.Model, c.targets)
	for t := 0; t < c.targets; t++ {
		ids[t] = fmt.Sprintf("target-%02d", t)
		mobs[t] = mobility.RandomWaypoint(field, c.vmin, c.vmax, c.duration, root.SplitN("mobility", t))
	}
	if c.report {
		div := mt.Division()
		fmt.Printf("division: %d faces, %d links; targets=%d\n",
			div.NumFaces(), div.NeighborLinkCount(), c.targets)
	}

	rounds := int(c.duration/c.locPeriod) + 1
	perTarget := make([][]float64, c.targets)
	res := simResult{}
	batch := make([]core.LocalizeRequest, c.targets)
	wallStart := time.Now()
	for i := 0; i < rounds; i++ {
		tm := float64(i) * c.locPeriod
		round := root.SplitN("round", i)
		for t := 0; t < c.targets; t++ {
			batch[t] = core.LocalizeRequest{ID: ids[t], Pos: mobs[t].At(tm), Rng: round.Split(ids[t])}
		}
		ests, err := mt.LocalizeBatch(batch, 1)
		if err != nil {
			return simResult{}, err
		}
		for t := 0; t < c.targets; t++ {
			e := ests[t].Pos.Dist(batch[t].Pos)
			perTarget[t] = append(perTarget[t], e)
			res.errs = append(res.errs, e)
			res.delivered += ests[t].Reported
			res.heard += inRange(dep.Positions(), batch[t].Pos, c.rng)
		}
		res.rounds += c.targets
	}
	wall := time.Since(wallStart)

	if c.report {
		for t := 0; t < c.targets; t++ {
			s := stats.Summarize(perTarget[t])
			fmt.Printf("%s: mean=%.2fm median=%.2fm p90=%.2fm max=%.2fm\n",
				ids[t], s.Mean, s.Median, s.P90, s.Max)
		}
		s := stats.Summarize(res.errs)
		fmt.Printf("strategy=%s targets=%d n=%d k=%d seed=%d localizations=%d\n",
			c.strategy, c.targets, c.n, c.k, c.seed, s.N)
		fmt.Printf("error: mean=%.2fm stddev=%.2fm rmse=%.2fm median=%.2fm p90=%.2fm max=%.2fm\n",
			s.Mean, s.StdDev, s.RMSE, s.Median, s.P90, s.Max)
		fmt.Printf("throughput: %d localizations in %v (%.0f/s)\n",
			s.N, wall.Round(time.Millisecond), float64(s.N)/wall.Seconds())
	}
	return res, nil
}

// runNet drives the fttt strategies through the full online pipeline:
// wsnnet substrate → tracker → updates, all sharing the run registry.
func runNet(c simConfig, field geom.Rect, dep deploy.Deployment, model rf.Model,
	mob mobility.Model, root *randx.Stream) (simResult, error) {

	variant := core.Basic
	switch c.strategy {
	case "fttt":
	case "fttt-ext":
		variant = core.Extended
	default:
		return simResult{}, fmt.Errorf("-net supports the fttt strategies, not %q", c.strategy)
	}
	netCfg := wsnnet.Config{
		Nodes:        dep.Positions(),
		BaseStation:  geom.Pt(field.Center().X, field.Min.Y-5),
		Model:        model,
		SensingRange: c.rng,
		CommRange:    c.commRange,
		HopLoss:      c.hopLoss,
		HopDelay:     c.hopDel,
		ReportBits:   256,
		Epsilon:      c.eps,
		Obs:          c.obs,
	}
	if c.rec != nil {
		netCfg.Tracer = c.rec
	}
	if c.script != nil {
		// The scheduler rides the network's virtual clock: every
		// collection round's BeginRound seeks it to engine.Now().
		sched := faults.New(*c.script, c.n, c.seed)
		sched.SetGeometry(dep.Positions(), model)
		netCfg.Faults = sched
	}
	net, err := wsnnet.New(netCfg)
	if err != nil {
		return simResult{}, err
	}
	tcfg := core.Config{
		Field: field, Nodes: dep.Positions(), Model: model,
		Epsilon: c.eps, SamplingTimes: c.k, Range: c.rng, CellSize: c.cell,
		Variant: variant, StarFractionLimit: c.starFrac, Obs: c.obs,
	}
	if c.defense {
		tcfg.Defense = &byz.Config{Enabled: true}
	}
	pcfg := pipeline.Config{
		Net: net, Tracker: nil, Period: c.locPeriod, K: c.k,
		RetryBackoff: c.retryBackoff, Obs: c.obs,
	}
	if c.rec != nil {
		tcfg.Tracer = c.rec
		pcfg.Tracer = c.rec
	}
	tr, err := core.New(tcfg)
	if err != nil {
		return simResult{}, err
	}
	pcfg.Tracker = tr
	svc, err := pipeline.New(pcfg)
	if err != nil {
		return simResult{}, err
	}
	if c.report {
		fmt.Printf("division: %d faces, %d links; network: %d motes, mean hops %.2f\n",
			tr.Division().NumFaces(), tr.Division().NeighborLinkCount(), c.n, net.MeanHopCount())
	}
	updates := svc.Run(mob, c.duration, root.Split("pipeline"))
	res := simResult{rounds: len(updates)}
	for _, u := range updates {
		res.errs = append(res.errs, u.Error)
		res.heard += u.Stats.Heard
		res.delivered += u.Stats.Delivered
		if c.verbose {
			fmt.Printf("t=%6.2f  true=%v  est=%v  err=%.2f  delivered=%d/%d\n",
				u.T, u.True, u.Final, u.Error, u.Stats.Delivered, u.Stats.Heard)
		}
	}
	if c.report {
		s := stats.Summarize(res.errs)
		fmt.Printf("strategy=%s(net) n=%d k=%d eps=%.1f seed=%d localizations=%d\n",
			c.strategy, c.n, c.k, c.eps, c.seed, s.N)
		fmt.Printf("error: mean=%.2fm stddev=%.2fm rmse=%.2fm median=%.2fm p90=%.2fm max=%.2fm\n",
			s.Mean, s.StdDev, s.RMSE, s.Median, s.P90, s.Max)
		printDefenseVerdict(tr)
	}
	return res, nil
}

// runSampler is the classic ideal-collection path: pre-draw all grouping
// samplings, then run the chosen strategy over them.
func runSampler(c simConfig, field geom.Rect, dep deploy.Deployment, model rf.Model,
	mob mobility.Model, root *randx.Stream) (simResult, error) {

	tps := mobility.Sample(mob, c.duration, 1/c.locPeriod)
	sampler := &sampling.Sampler{
		Model: model, Nodes: dep.Positions(),
		Range: c.rng, ReportLoss: c.loss, Epsilon: c.eps,
	}
	var sched *faults.Scheduler
	if c.script != nil {
		sched = faults.New(*c.script, c.n, c.seed)
		// Colluders need the deployment geometry to fabricate
		// decoy-consistent RSS (without it they degrade to a fixed lie).
		sched.SetGeometry(dep.Positions(), model)
		sampler.Faults = sched
	}
	// The standalone sampler records its fault injections directly (the
	// groups are drawn outside any tracker round).
	sampler.Trace = c.rec

	// Groups are drawn lazily inside the round loop so the fault clock
	// tracks each round's time; each draw uses an independent "loc"
	// substream, so the draws match the eager pre-draw exactly.
	groups := make([]*sampling.Group, len(tps))
	g := root.Split("groups")
	sample := func(i int) *sampling.Group {
		if sched != nil {
			sched.Seek(tps[i].T)
		}
		return sampler.Sample(tps[i].Pos, c.k, g.SplitN("loc", i))
	}

	var estimate func(i int) geom.Point
	var defTr *core.Tracker // set when the defense is armed, for the verdict line
	switch c.strategy {
	case "fttt", "fttt-ext":
		cfg := core.Config{
			Field: field, Nodes: dep.Positions(), Model: model,
			Epsilon: c.eps, SamplingTimes: c.k, Range: c.rng, CellSize: c.cell,
			StarFractionLimit: c.starFrac, Obs: c.obs,
		}
		if c.defense {
			cfg.Defense = &byz.Config{Enabled: true}
		}
		if c.rec != nil {
			cfg.Tracer = c.rec
		}
		if c.strategy == "fttt-ext" {
			cfg.Variant = core.Extended
		}
		tr, err := core.New(cfg)
		if err != nil {
			return simResult{}, err
		}
		if c.report {
			fmt.Printf("division: %d faces, %d links, C=%.4f\n",
				tr.Division().NumFaces(), tr.Division().NeighborLinkCount(), cfg.UncertaintyC())
		}
		if c.defense {
			defTr = tr
		}
		estimate = func(i int) geom.Point {
			var recollect func() *sampling.Group
			if c.starFrac > 0 {
				recollect = func() *sampling.Group {
					if sched != nil && c.retryBackoff > 0 {
						sched.Seek(tps[i].T + c.retryBackoff)
					}
					return sampler.Sample(tps[i].Pos, c.k, g.SplitN("loc", i).Split("retry"))
				}
			}
			return tr.LocalizeGroupRetry(groups[i], recollect).Pos
		}
	case "pm":
		pm, err := baseline.NewPM(field, dep.Positions(), c.cell,
			baseline.PMConfig{MaxVelocity: c.vmax, Period: c.locPeriod})
		if err != nil {
			return simResult{}, err
		}
		estimate = func(i int) geom.Point { return pm.LocalizeGroup(groups[i]) }
	case "mle":
		d, err := baseline.NewDirectMLE(field, dep.Positions(), c.cell)
		if err != nil {
			return simResult{}, err
		}
		estimate = func(i int) geom.Point { return d.LocalizeGroup(groups[i]) }
	default:
		return simResult{}, fmt.Errorf("unknown strategy %q", c.strategy)
	}

	res := simResult{rounds: len(tps)}
	res.errs = make([]float64, len(tps))
	lat := c.obs.Histogram("fttt_sim_localize_seconds", obs.ExpBuckets(1e-5, 2, 16))
	for i := range tps {
		groups[i] = sample(i)
		start := time.Now()
		est := estimate(i)
		lat.Observe(time.Since(start).Seconds())
		res.errs[i] = est.Dist(tps[i].Pos)
		res.heard += inRange(dep.Positions(), tps[i].Pos, c.rng)
		res.delivered += groups[i].NumReported()
		if c.verbose {
			fmt.Printf("t=%6.2f  true=%v  est=%v  err=%.2f\n", tps[i].T, tps[i].Pos, est, res.errs[i])
		}
	}

	if c.report {
		s := stats.Summarize(res.errs)
		fmt.Printf("strategy=%s n=%d k=%d eps=%.1f seed=%d localizations=%d\n",
			c.strategy, c.n, c.k, c.eps, c.seed, s.N)
		fmt.Printf("error: mean=%.2fm stddev=%.2fm rmse=%.2fm median=%.2fm p90=%.2fm max=%.2fm\n",
			s.Mean, s.StdDev, s.RMSE, s.Median, s.P90, s.Max)
		printDefenseVerdict(defTr)
	}
	return res, nil
}

// printDefenseVerdict reports which nodes the armed defense convicted by
// the end of the run, with their residual trust. nil tr (defense off, or
// a non-tracker strategy) prints nothing.
func printDefenseVerdict(tr *core.Tracker) {
	if tr == nil || tr.Defense() == nil {
		return
	}
	d := tr.Defense()
	sus := d.Suspects()
	if len(sus) == 0 {
		fmt.Println("defense: armed, no suspects")
		return
	}
	fmt.Printf("defense: %d suspect(s):", len(sus))
	for _, i := range sus {
		fmt.Printf(" node %d (trust %.2f)", i, d.NodeTrust(i))
	}
	fmt.Println()
}

// inRange counts nodes within sensing range of p (0 range = all).
func inRange(nodes []geom.Point, p geom.Point, r float64) int {
	if r <= 0 {
		return len(nodes)
	}
	c := 0
	for _, q := range nodes {
		if q.Dist(p) <= r {
			c++
		}
	}
	return c
}
