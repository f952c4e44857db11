package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"timeprot/internal/experiment"
)

// The harness self-test: every workload at its minimum size must print
// exactly the metrics BENCHMARK.json declares, with their units, and
// pass its own output checks; and a deliberately wrong expectation must
// count as a failed operation, never be skipped.

func TestMain(m *testing.M) {
	// The benchmark runs from the repository root.
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

type declared struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func minConfig(t *testing.T) config {
	return config{seed: 7, seconds: 0.2, min: true, tmp: t.TempDir()}
}

// checkPrinted fails unless r carries exactly the declared metrics.
func checkPrinted(t *testing.T, r *run, want []struct{ Name, Unit string }) {
	t.Helper()
	for _, m := range want {
		got, ok := r.metrics[m.Name]
		if !ok {
			t.Errorf("metric %s not printed", m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("metric %s: unit %q, declared %q", m.Name, got.Unit, m.Unit)
		}
	}
	if len(r.metrics) != len(want) {
		t.Errorf("printed %d metrics, declared %d", len(r.metrics), len(want))
	}
	if r.failed != 0 || r.attempted == 0 {
		t.Errorf("output checks: %d of %d failed: %v", r.failed, r.attempted, r.failures)
	}
}

func TestWorkloadsPrintDeclaredMetrics(t *testing.T) {
	d := loadDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(d.Workloads), len(workloads))
	}
	for _, w := range d.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			fn, ok := workloads[w.Name]
			if !ok {
				t.Fatalf("no workload %s", w.Name)
			}
			r, err := fn(minConfig(t))
			if err != nil {
				t.Fatal(err)
			}
			finishE2E(r)
			checkPrinted(t, r, d.EndToEnd)
		})
	}
}

func TestTracedReportPrintsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the micro-benchmarks")
	}
	d := loadDeclared(t)
	c := minConfig(t)
	r, err := tracedReport(c, filepath.Join(c.tmp, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	checkPrinted(t, r, d.PerLayer)
	var spans []span
	data, err := os.ReadFile(filepath.Join(c.tmp, "trace.json"))
	if err == nil {
		err = json.Unmarshal(data, &spans)
	}
	if err != nil || len(spans) == 0 {
		t.Fatalf("trace file: %d spans, %v", len(spans), err)
	}
}

func TestEmitLastLineIsResult(t *testing.T) {
	r := newRun()
	r.set("x", "ms", 1.5)
	r.check(3, 1, "one bad")
	f, err := os.Create(filepath.Join(t.TempDir(), "out"))
	if err != nil {
		t.Fatal(err)
	}
	if err := emit(f, r); err != nil {
		t.Fatal(err)
	}
	f.Close()
	data, _ := os.ReadFile(f.Name())
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 3 || res.Failed != 1 || res.Metrics["x"].Value != 1.5 {
		t.Errorf("result line %s", lines[len(lines)-1])
	}
}

// The wrong-expectation tests: each workload's check is handed output
// that differs from its reference and must count failures.

func TestSweepCheckCountsDrift(t *testing.T) {
	c := minConfig(t)
	spec := sweepSpec(c)
	a, err := runSweepPass(spec, 1, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSweepPass(spec, 1, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	b.rep.Cells[0].CapacityBits += 1
	r := newRun()
	if err := checkSweep(r, c, spec, []sweepPass{a, b}); err != nil {
		t.Fatal(err)
	}
	if r.failed != 1 {
		t.Errorf("a drifted cell counted %d failures; want 1", r.failed)
	}
}

func TestSweepCheckUsesDocsStoreAtDocsSeed(t *testing.T) {
	c := minConfig(t)
	c.seed = docsSeed
	spec := experiment.Spec{Scenarios: []string{"T2"}, Rounds: 60, Seeds: []uint64{docsSeed}}
	good, err := runSweepPass(spec, 1, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := newRun()
	if err := checkSweep(r, c, spec, []sweepPass{good}); err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("cold rows at the docs seed differ from the docs store: %v", r.failures)
	}
	other := spec
	other.Seeds = []uint64{docsSeed + 1}
	bad, err := runSweepPass(other, 1, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	r = newRun()
	if err := checkSweep(r, c, spec, []sweepPass{bad}); err != nil {
		t.Fatal(err)
	}
	if r.failed == 0 {
		t.Error("rows of another seed passed the warm == cold check")
	}
}

func TestReplayCheckCountsDrift(t *testing.T) {
	c := minConfig(t)
	stores, _, err := replaySetup(c)
	if err != nil {
		t.Fatal(err)
	}
	defer stores.close()
	ref, err := loadReplayRef(stores.conform)
	if err != nil {
		t.Fatal(err)
	}
	o, err := replayPass(c, stores.stores[1], nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := newRun()
	checkReplay(r, ref, o, 1)
	if r.failed != 0 {
		t.Fatalf("clean pass failed: %v", r.failures)
	}
	ref.proofs = append([]byte(nil), ref.proofs...)
	ref.proofs[len(ref.proofs)-2] ^= 1
	checkReplay(r, ref, o, 2)
	if r.failed != o.cells {
		t.Errorf("a drifted PROOFS.md counted %d failures; want %d", r.failed, o.cells)
	}
}

func TestServeCheckCountsDrift(t *testing.T) {
	c := minConfig(t)
	s, _, err := serveSetup(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := s.runRounds(c, 0, 1, nil, 0)
	if serr := s.stop(); err == nil {
		err = serr
	}
	if err != nil {
		t.Fatal(err)
	}
	r := newRun()
	if _, err := checkServe(r, c, rounds); err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("clean round failed: %v", r.failures)
	}
	body := rounds[0].jobs[0].body
	rounds[0].jobs[0].body = bytes.Replace(body, []byte(`"Leaks": true`), []byte(`"Leaks": false`), 1)
	if bytes.Equal(body, rounds[0].jobs[0].body) {
		t.Fatal("tampering left the served report unchanged")
	}
	rounds[0].jobs[1].status.Joined++
	r = newRun()
	if _, err := checkServe(r, c, rounds); err != nil {
		t.Fatal(err)
	}
	if r.failed != 2 {
		t.Errorf("a drifted report and a broken ledger counted %d failures; want 2: %v", r.failed, r.failures)
	}
}

func TestTailOfAndWindowTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := tailOf(xs); got.Pct != 90 || got.Value != 90 || got.Samples != 100 {
		t.Errorf("tailOf(1..100) = %+v; want p90 = 90", got)
	}
	if got := tailOf(xs[:15]); got.Pct != 100 || got.Value != 15 {
		t.Errorf("tailOf(1..15) = %+v; want the maximum as p100", got)
	}
	// Three windows of 1..100; a burst fills the top of the last one.
	var run []float64
	for w := 0; w < 3; w++ {
		run = append(run, xs...)
	}
	for i := 250; i < 300; i++ {
		run[i] = 1000
	}
	if whole := tailOf(run); whole.Value != 1000 {
		t.Fatalf("whole-run tail %v; the burst should own it", whole.Value)
	}
	if got, n := windowTail(run, 100); n != 3 || got.Value != 90 {
		t.Errorf("windowTail = %v over %d windows; want 90 over 3", got.Value, n)
	}
}
