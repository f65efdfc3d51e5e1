// Command svcbench is the repository's tracking-service benchmark. It
// drives one of three workloads over loopback HTTP against in-process
// serve.Server and cluster.Router handlers (the handlers fttt-serve and
// fttt-router mount), checks every response byte-for-byte against the
// serial reference, and prints its metrics: the end-to-end metrics by
// default, or with --trace 1 the per-layer ledger of a separate traced
// replay. The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics. README.md explains why
// each workload exists and which end-to-end metric each layer moves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/debug"
)

// Seeds recorded for claims: defaultSeed is the one a change is tuned
// on, heldOutSeed the one it must also hold on.
const (
	defaultSeed = 1
	heldOutSeed = 9001
)

// opts are the command-line settings every workload receives.
type opts struct {
	seed    uint64
	seconds float64
	trace   bool
	workdir string
}

// workloads maps each --workload name to its runner.
var workloads = map[string]func(opts) (*report, error){
	"track-paper":   runTrackPaper,
	"ingest-shared": runIngestShared,
	"cluster-churn": runClusterChurn,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("svcbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: track-paper, ingest-shared or cluster-churn")
	seed := fs.Uint64("seed", defaultSeed, "workload seed; every input is generated from it")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer replay")
	workdir := fs.String("workdir", ".bench_build", "directory for spill files and scratch data")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "svcbench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "svcbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	// The benchmark holds only small inputs; a fixed GC target keeps the
	// heap metric independent of whatever GOGC the caller exported.
	debug.SetGCPercent(100)
	o := opts{seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: *workdir}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		return 1
	}
	rep, err := w(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svcbench: %s: %v\n", *workload, err)
		return 1
	}
	if err := rep.print(stdout, *workload, o); err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		return 1
	}
	return 0
}

// metric is one reported number.
type metric struct {
	name    string
	unit    string
	value   float64
	samples int // how many observations the value summarises; 0 = a single measurement
	// extra marks a metric printed for people but left out of the JSON
	// result: it can be 0, lacks the samples to gate on, or spreads more
	// from run to run than a regression bound could allow (README.md).
	extra bool
}

// report is one run's outcome.
type report struct {
	metrics   []metric
	attempted int
	failed    int
	// problems lists every correctness check that failed; the run is
	// correct only when it is empty and failed is 0.
	problems []string
	// notes are printed before the metrics.
	notes []string
}

func (r *report) add(name, unit string, value float64, samples int) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, samples: samples})
}

func (r *report) addExtra(name, unit string, value float64, samples int) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, samples: samples, extra: true})
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// print writes one human-readable line per metric and per problem, then
// the JSON result line.
func (r *report) print(w io.Writer, workload string, o opts) error {
	mode := "end-to-end"
	if o.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s seed %d seconds %g (%s)\n", workload, o.seed, o.seconds, mode)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	out := make(map[string]any, len(r.metrics))
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		n := ""
		if m.samples > 0 {
			n = fmt.Sprintf(" (n=%d)", m.samples)
		}
		fmt.Fprintf(w, "  %-30s %14.6g %-6s%s\n", m.name, m.value, m.unit, n)
		if !m.extra {
			out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	res := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]any `json:"metrics"`
	}{len(r.problems) == 0 && r.failed == 0, r.attempted, r.failed, out}
	if res.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
