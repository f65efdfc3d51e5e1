// Package fttt is the public facade of the FTTT library: a
// fault-tolerant target-tracking strategy for wireless sensor networks
// based on unreliable (uncertain) pairwise sensing, reproducing Xie et
// al., "Rethinking of the Uncertainty: A Fault-Tolerant Target-Tracking
// Strategy Based on Unreliable Sensing in Wireless Sensor Networks"
// (KSII TIIS 2012; workshop version at IEEE IPDPS/HPDIC 2012).
//
// # Overview
//
// RSS comparisons between a sensor pair flip when the target is near the
// pair's uncertain area — the region bounded by two Apollonius circles
// where noise makes the pair's order unreliable. FTTT turns that flip
// into information: the monitor field is divided into faces, each with a
// ternary signature vector over all node pairs (+1 / 0 / −1 for "nearer
// the lower-ID node" / "uncertain" / "nearer the higher-ID node"); each
// localization performs a grouping sampling of k rapid RSS samples,
// derives the matching ternary sampling vector (0 when the observed
// order flipped), and locates the target in the face with the most
// similar signature. Missing reports degrade the vector gracefully
// (fault tolerance), and the Extended variant replaces ternary values
// with quantitative flip ratios for a smoother trajectory.
//
// # Quick start
//
//	dep := fttt.DeployGrid(fttt.NewRect(fttt.Pt(0, 0), fttt.Pt(100, 100)), 16)
//	cfg := fttt.DefaultConfig(dep)
//	tr, err := fttt.New(cfg)
//	if err != nil { ... }
//	est := tr.Localize(fttt.Pt(42, 58), fttt.NewStream(1))
//	fmt.Println(est.Pos)
//
// See examples/ for runnable scenarios, internal/experiments for the
// paper's evaluation harness, and DESIGN.md for the system inventory.
package fttt

import (
	"fmt"
	"io"

	"fttt/internal/byz"
	"fttt/internal/cluster"
	"fttt/internal/core"
	"fttt/internal/deploy"
	"fttt/internal/geom"
	"fttt/internal/mobility"
	"fttt/internal/obs"
	"fttt/internal/randx"
	"fttt/internal/rf"
	"fttt/internal/sampling"
	"fttt/internal/serve"
)

// Re-exported core types: the tracker and its configuration.
type (
	// Config parameterises a Tracker; see Table 1 of the paper for the
	// evaluation settings (DefaultConfig applies them).
	Config = core.Config
	// Tracker is a ready-to-run FTTT instance.
	Tracker = core.Tracker
	// Variant selects Basic (ternary) or Extended (quantitative)
	// sampling vectors.
	Variant = core.Variant
	// Estimate is the outcome of one localization.
	Estimate = core.Estimate
	// TrackedPoint pairs a true position with its estimate and error.
	TrackedPoint = core.TrackedPoint
	// DefenseConfig parameterises the Byzantine-sensing defense layer;
	// set Config.Defense (with Enabled true) to arm it (DESIGN.md §15).
	DefenseConfig = byz.Config
)

// Re-exported tracker variants.
const (
	Basic    = core.Basic
	Extended = core.Extended
)

// Re-exported geometry types.
type (
	// Point is a location in the monitor field (metres).
	Point = geom.Point
	// Rect is an axis-aligned rectangle, usually the monitor field.
	Rect = geom.Rect
)

// Re-exported signal model and RNG types.
type (
	// Model is the log-distance path-loss signal model of eq. 1.
	Model = rf.Model
	// Stream is a deterministic random stream; all APIs taking one are
	// reproducible given the same seed.
	Stream = randx.Stream
	// Deployment is an ordered sensor layout.
	Deployment = deploy.Deployment
	// Mobility yields the target position over time.
	Mobility = mobility.Model
)

// Multi-target and sampling types.
type (
	// MultiTracker tracks several distinguishable targets over one
	// shared field division. It is safe for concurrent use; distinct
	// targets localize in parallel.
	MultiTracker = core.MultiTracker
	// Sampler draws grouping samplings from the signal model — use it
	// when feeding LocalizeGroup with externally collected samples.
	Sampler = sampling.Sampler
	// Group is one grouping sampling (the k×n RSS matrix of Def. 3).
	Group = sampling.Group
)

// Telemetry types (DESIGN.md §"Telemetry"). Attach a Registry via
// Config.Obs and/or a Tracer via Config.Tracer to observe the tracker;
// nil (the default) disables all bookkeeping at near-zero cost.
type (
	// Registry is a named collection of counters, gauges and histograms;
	// its Snapshot().WriteTo renders the Prometheus text format.
	Registry = obs.Registry
	// Tracer receives span/event callbacks from instrumented components.
	Tracer = obs.Tracer
	// TelemetryServer exposes a Registry over HTTP (/metrics, expvar,
	// pprof).
	TelemetryServer = obs.Server
)

// Tracing types (DESIGN.md §12): the structured flight recorder behind
// Config.Tracer, the -trace flags of fttt-sim/fttt-track, and the
// serving layer's /debug/trace endpoint.
type (
	// TraceRecorder is the bounded lock-free ring of trace records; it
	// implements Tracer, so install it via Config.Tracer. A nil
	// *TraceRecorder is "tracing off" at pointer-check cost.
	TraceRecorder = obs.Recorder
	// TraceRecord is one completed span, event or link of a recording.
	TraceRecord = obs.Record
	// SpanRef identifies a span for parenting and linking.
	SpanRef = obs.SpanRef
)

// NewTraceRecorder builds a flight recorder keeping the last capacity
// records (<= 0 selects the default of obs.DefaultRecorderCap).
func NewTraceRecorder(capacity int) *TraceRecorder { return obs.NewRecorder(capacity) }

// NewMultiTracer fans tracer callbacks out to every non-nil tracer —
// use it to combine a TraceRecorder with a custom Tracer.
func NewMultiTracer(tracers ...Tracer) Tracer { return obs.NewMultiTracer(tracers...) }

// WriteTraceJSONL writes a recording one JSON record per line — the
// format fttt-trace and ReadTraceJSONL consume.
func WriteTraceJSONL(w io.Writer, recs []TraceRecord) error { return obs.WriteJSONL(w, recs) }

// ReadTraceJSONL loads a JSONL recording.
func ReadTraceJSONL(r io.Reader) ([]TraceRecord, error) { return obs.ReadJSONL(r) }

// WriteChromeTrace converts a recording to the Chrome trace-event JSON
// format, loadable in https://ui.perfetto.dev or chrome://tracing.
func WriteChromeTrace(w io.Writer, recs []TraceRecord) error { return obs.WriteChromeTrace(w, recs) }

// NewRegistry returns an empty telemetry registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// ServeTelemetry starts an HTTP server on addr exposing reg at /metrics
// plus expvar and pprof debug endpoints — what the CLI tools put behind
// their -telemetry-addr flag.
func ServeTelemetry(addr string, reg *Registry) (*TelemetryServer, error) {
	return obs.Serve(addr, reg)
}

// Serving layer (tracking-as-a-service; DESIGN.md §10): a long-running
// HTTP/JSON API over MultiTracker with micro-batched localization,
// bounded admission with load shedding, request deadlines, SSE estimate
// streams and graceful drain. The fttt-serve command is the daemon.
type (
	// Server is the tracking-as-a-service handler + session table; it
	// implements http.Handler.
	Server = serve.Server
	// ServeConfig parameterises a Server; its zero value is usable.
	ServeConfig = serve.Config
	// ServeSession is one live tracking session behind its admission
	// queue, whose callers run its micro-batches.
	ServeSession = serve.Session
	// SessionConfig is the wire-level session configuration (the JSON
	// body of POST /v1/sessions).
	SessionConfig = serve.SessionConfig
	// PointWire and RectWire are SessionConfig's field/node coordinates
	// on the wire.
	PointWire = serve.PointWire
	RectWire  = serve.RectWire
	// EstimateWire is one localization outcome on the wire.
	EstimateWire = serve.EstimateWire
)

// NewServer builds a tracking-as-a-service server.
func NewServer(cfg ServeConfig) *Server { return serve.New(cfg) }

// Cluster layer: shard the serving tier horizontally behind a
// consistent-hash session router (internal/cluster, DESIGN.md §16).
// The fttt-router command is the daemon form.
type (
	// Router is the consistent-hash session router: an http.Handler
	// proxying the /v1/sessions API across fttt-serve backends and
	// migrating sessions off draining members.
	Router = cluster.Router
	// RouterConfig parameterises a Router.
	RouterConfig = cluster.Config
	// ClusterBackend names one fttt-serve member of a Router's set.
	ClusterBackend = cluster.Backend
)

// NewRouter builds a session router over the configured backends.
func NewRouter(cfg RouterConfig) (*Router, error) { return cluster.New(cfg) }

// PlaceSession returns which backend owns sessionID under the router's
// pinned rendezvous placement — every replica agrees with no shared
// state.
func PlaceSession(sessionID string, backends []string) string {
	return cluster.Place(sessionID, backends)
}

// NewMulti preprocesses the shared division and returns a multi-target
// tracker; targets are created lazily per ID.
func NewMulti(cfg Config) (*MultiTracker, error) { return core.NewMulti(cfg) }

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// NewRect builds a rectangle from two opposite corners in any order.
func NewRect(a, b Point) Rect { return geom.NewRect(a, b) }

// NewStream returns a deterministic random stream rooted at seed.
func NewStream(seed uint64) *Stream { return randx.New(seed) }

// DefaultModel returns the paper's Table 1 signal model (β=4, σ_X=6).
func DefaultModel() Model { return rf.Default() }

// DeployGrid places n sensors on a regular grid in the field.
func DeployGrid(field Rect, n int) Deployment { return deploy.Grid(field, n) }

// DeployRandom places n sensors uniformly at random.
func DeployRandom(field Rect, n int, rng *Stream) Deployment {
	return deploy.Random(field, n, rng)
}

// DeployCross places n sensors in the "+" layout of the paper's outdoor
// system, with the given arm radius.
func DeployCross(field Rect, n int, arm float64) Deployment {
	return deploy.Cross(field, n, arm)
}

// RandomWaypoint returns the random waypoint mobility model used by the
// paper's simulations: uniform destinations, uniform speed in
// [vMin, vMax], precomputed for duration seconds.
func RandomWaypoint(field Rect, vMin, vMax, duration float64, rng *Stream) Mobility {
	return mobility.RandomWaypoint(field, vMin, vMax, duration, rng)
}

// Waypoints returns a constant-speed piecewise-linear mobility model.
func Waypoints(pts []Point, speed float64) Mobility {
	return mobility.Waypoints(pts, speed)
}

// SampleTrace evaluates a mobility model every 1/rate seconds over
// [0, duration] and returns the positions with their timestamps.
func SampleTrace(m Mobility, duration, rate float64) (pts []Point, times []float64) {
	tps := mobility.Sample(m, duration, rate)
	pts = make([]Point, len(tps))
	times = make([]float64, len(tps))
	for i, tp := range tps {
		pts[i] = tp.Pos
		times[i] = tp.T
	}
	return pts, times
}

// DefaultConfig returns a Config with the paper's Table 1 settings for
// the given deployment: β=4, σ_X=6, ε=1 dBm, k=5 sampling times, R=40 m
// sensing range, 1 m division cells.
func DefaultConfig(dep Deployment) Config {
	return Config{
		Field:         dep.Field,
		Nodes:         dep.Positions(),
		Model:         rf.Default(),
		Epsilon:       1,
		SamplingTimes: 5,
		Range:         40,
		CellSize:      1,
	}
}

// New preprocesses the field division and returns a Tracker.
func New(cfg Config) (*Tracker, error) { return core.New(cfg) }

// Track runs a whole trace through a fresh tracker and returns the
// per-point estimates and errors. It is the one-call entry point used by
// the quickstart example. times may be nil (the point index is used as
// the timestamp); a non-nil times must pair one timestamp with every
// trace point.
func Track(cfg Config, trace []Point, times []float64, seed uint64) ([]TrackedPoint, error) {
	if times != nil && len(times) != len(trace) {
		return nil, fmt.Errorf("fttt: trace has %d points but times has %d entries", len(trace), len(times))
	}
	tr, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return tr.Track(trace, times, randx.New(seed)), nil
}

// TrackParallel tracks several independent traces concurrently over one
// shared field division, fanning the traces across workers goroutines
// (≤ 0 selects the machine's CPU count; 1 is serial). The division is
// preprocessed once; each trace runs on its own cheap tracker clone with
// a per-trace random substream, so the result is identical for every
// worker count — and identical to calling Track on each trace with that
// substream. See DESIGN.md §8 for the concurrency model.
func TrackParallel(cfg Config, traces [][]Point, times [][]float64, seed uint64, workers int) ([][]TrackedPoint, error) {
	tr, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return tr.TrackParallel(traces, times, randx.New(seed), workers)
}

// MeanError returns the mean tracking error of a tracked trace. An
// empty trace yields the sentinel 0, not NaN; use MeanErrorOK to
// distinguish "no points" from a genuinely zero mean.
func MeanError(pts []TrackedPoint) float64 {
	m, _ := MeanErrorOK(pts)
	return m
}

// MeanErrorOK is MeanError with an explicit emptiness signal: ok is
// false (and the mean 0) when there are no points to average.
func MeanErrorOK(pts []TrackedPoint) (mean float64, ok bool) {
	if len(pts) == 0 {
		return 0, false
	}
	var sum float64
	for _, p := range pts {
		sum += p.Error
	}
	return sum / float64(len(pts)), true
}

// RequiredSamplingTimes returns the minimum k so the probability of
// capturing all flips among nPairs pairs exceeds lambda (Sec. 5.1).
func RequiredSamplingTimes(nPairs int, lambda float64) int {
	return core.RequiredSamplingTimes(nPairs, lambda)
}
