// Command perfbench is the repository's end-to-end benchmark. It drives
// the pipeline's public entry points — the experiment engine, the
// content-addressed store and the sweep service — through three
// workloads, checks every output it produces, and prints one JSON
// result line. Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures one workload and prints the end-to-end metrics;
// --trace 1 prints the per-layer report, which covers every workload.
// See README.md for the metric definitions and the noise findings
// behind the workload sizes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run accumulates one invocation's metrics, notes and output checks.
type run struct {
	metrics   map[string]metric
	notes     []string
	failures  []string
	attempted int
	failed    int
}

func newRun() *run { return &run{metrics: map[string]metric{}} }

func (r *run) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check counts n attempted operations, of which bad failed their
// output check; the formatted message explains a failure.
func (r *run) check(n, bad int, format string, args ...any) {
	r.attempted += n
	if bad > 0 {
		r.failed += bad
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// config is what every workload receives.
type config struct {
	seed    uint64
	seconds float64
	// min shrinks every workload to its smallest size (the self-test).
	min bool
	// tmp is the scratch directory for store copies.
	tmp string
}

// e2eMetrics are the end-to-end metrics every --trace 0 run prints.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"latency_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"simops_per_s", "1/s"},
	{"peak_live_heap_mb", "MB"},
	{"ok_frac", "ratio"},
}

var workloads = map[string]func(config) (*run, error){
	"sweep-cold":  sweepCold,
	"replay-warm": replayWarm,
	"serve-mixed": serveMixed,
}

func main() {
	workload := flag.String("workload", "", "sweep-cold, replay-warm or serve-mixed")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "measuring time per workload")
	trace := flag.Int("trace", 0, "1 = print the per-layer report instead of the end-to-end metrics")
	flag.Parse()
	if err := mainErr(*workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed uint64, seconds float64, trace int) error {
	if _, ok := workloads[workload]; !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if _, err := os.Stat(filepath.Join("testdata", "docs-store")); err != nil {
		return fmt.Errorf("run from the repository root: %v", err)
	}
	out := os.Getenv("PERFBENCH_OUT")
	if out == "" {
		out = ".bench_build"
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(out, "perfbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	cfg := config{seed: seed, seconds: seconds, tmp: tmp}

	var r *run
	if trace == 1 {
		r, err = tracedReport(cfg, filepath.Join(out, "trace.json"))
	} else {
		r, err = workloads[workload](cfg)
		if err == nil {
			finishE2E(r)
		}
	}
	if err != nil {
		return err
	}
	return emit(os.Stdout, r)
}

// finishE2E adds the success ratio every end-to-end run reports.
func finishE2E(r *run) {
	ok := 1.0
	if r.attempted > 0 {
		ok = float64(r.attempted-r.failed) / float64(r.attempted)
	}
	r.set("ok_frac", "ratio", ok)
}

// emit prints the human-readable lines, then the JSON result as the
// last line.
func emit(w io.Writer, r *run) error {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-44s %14.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "note:", n)
	}
	for _, f := range r.failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
	attempted := r.attempted
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
