package experiment

import (
	"bytes"
	"testing"

	"timeprot/internal/experiment/store"
)

// adaptiveSpec is the adaptive-sampling regression sweep: a mix of
// instantly-converging cells (T4, T15: clean channels) and the
// fixed-rounds baseline they are compared against.
func adaptiveSpec() Spec {
	return Spec{
		Scenarios:   []string{"T4", "T5", "T15"},
		Rounds:      60,
		CIHalfWidth: DefaultCIHalfWidth,
		Seeds:       []uint64{42},
	}
}

// TestAdaptiveLadder pins the ladder construction: half the requested
// rounds, doubling, cap as the final rung.
func TestAdaptiveLadder(t *testing.T) {
	cases := []struct {
		req, max int
		want     []int
	}{
		{60, 240, []int{30, 60, 120, 240}},
		{60, 150, []int{30, 60, 120, 150}},
		{60, 20, []int{20}},
		{1, 4, []int{1, 2, 4}},
	}
	for _, c := range cases {
		got := adaptiveLadder(Cell{ReqRounds: c.req, CIHalfWidth: 0.05, MaxRounds: c.max})
		if len(got) != len(c.want) {
			t.Errorf("ladder(%d,%d) = %v, want %v", c.req, c.max, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("ladder(%d,%d) = %v, want %v", c.req, c.max, got, c.want)
				break
			}
		}
	}
}

// TestAdaptiveFewerRoundsSameVerdicts is the acceptance property: at
// the default tolerance the adaptive sweep simulates fewer total rounds
// than the fixed-rounds sweep of the same matrix, and every leak
// verdict matches.
func TestAdaptiveFewerRoundsSameVerdicts(t *testing.T) {
	spec := adaptiveSpec()
	fixedSpec := spec
	fixedSpec.CIHalfWidth = 0
	adaptive, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := Run(fixedSpec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	run, fixedTotal := adaptive.TotalRounds()
	if run >= fixedTotal {
		t.Errorf("adaptive simulated %d rounds, fixed policy %d — no savings", run, fixedTotal)
	}
	if len(adaptive.Cells) != len(fixed.Cells) {
		t.Fatalf("matrix sizes differ: %d vs %d", len(adaptive.Cells), len(fixed.Cells))
	}
	for i := range adaptive.Cells {
		a, f := adaptive.Cells[i], fixed.Cells[i]
		if a.ScenarioID != f.ScenarioID || a.Variant != f.Variant {
			t.Fatalf("cell %d coordinates diverge: %s/%s vs %s/%s", i, a.ScenarioID, a.Variant, f.ScenarioID, f.Variant)
		}
		if a.Leaks != f.Leaks {
			t.Errorf("cell %s/%s: adaptive verdict %v, fixed %v", a.ScenarioID, a.Variant, a.Leaks, f.Leaks)
		}
		if a.EffRounds <= 0 || a.RoundsRun < a.EffRounds {
			t.Errorf("cell %s/%s: bad rounds metadata eff=%d run=%d", a.ScenarioID, a.Variant, a.EffRounds, a.RoundsRun)
		}
	}
}

// TestAdaptiveWarmStoreByteIdentical: an adaptive sweep is cacheable
// like any other — the warm rerun executes nothing and reproduces the
// cold reports byte for byte, because the adaptive policy is part of
// every cell's key and the stored row carries the ladder's outcome.
func TestAdaptiveWarmStoreByteIdentical(t *testing.T) {
	st := openStore(t)
	var cold CacheStats
	crep, err := Run(adaptiveSpec(), Options{Store: st, Stats: &cold})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Hits != 0 || cold.Executed != cold.Total {
		t.Fatalf("cold adaptive run stats: %+v", cold)
	}
	var warm CacheStats
	wrep, err := Run(adaptiveSpec(), Options{Store: st, Stats: &warm})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Executed != 0 || warm.Hits != warm.Total {
		t.Fatalf("warm adaptive run not fully cached: %+v", warm)
	}
	if !bytes.Equal(renderJSON(t, crep), renderJSON(t, wrep)) {
		t.Fatal("warm adaptive JSON differs from cold")
	}
	if !bytes.Equal(renderMarkdown(t, crep), renderMarkdown(t, wrep)) {
		t.Fatal("warm adaptive Markdown differs from cold")
	}
	crun, _ := crep.TotalRounds()
	wrun, _ := wrep.TotalRounds()
	if crun != wrun {
		t.Errorf("warm run lost the rounds accounting: %d vs %d", wrun, crun)
	}
}

// TestAdaptivePolicyKeysDistinct: fixed and adaptive runs of the same
// cell must never serve each other's store entries, and different
// tolerances must not alias.
func TestAdaptivePolicyKeysDistinct(t *testing.T) {
	fixedCells, err := Spec{Scenarios: []string{"T4"}, Rounds: 60}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	a1, err := Spec{Scenarios: []string{"T4"}, Rounds: 60, CIHalfWidth: 0.05}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Spec{Scenarios: []string{"T4"}, Rounds: 60, CIHalfWidth: 0.1}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[store.Key]string)
	for _, set := range []struct {
		name  string
		cells []Cell
	}{{"fixed", fixedCells}, {"ci=0.05", a1}, {"ci=0.1", a2}} {
		k, ok := CellKey(set.cells[0])
		if !ok {
			t.Fatalf("%s: no key", set.name)
		}
		if prev, dup := keys[k]; dup {
			t.Errorf("%s aliases %s in the store", set.name, prev)
		}
		keys[k] = set.name
	}
}

// TestNewScenariosDeterministic is the expansion pack's engine-level
// equivalence test: T15-T17 rows are bit-identical across worker counts
// and across cold/warm store runs.
func TestNewScenariosDeterministic(t *testing.T) {
	spec := Spec{Scenarios: []string{"T15", "T16", "T17"}, Rounds: 8, Seeds: []uint64{42}}
	st := openStore(t)
	var cold CacheStats
	serial, err := Run(spec, Options{Parallelism: 1, Store: st, Stats: &cold})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(spec, Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(renderJSON(t, serial), renderJSON(t, parallel)) {
		t.Fatal("T15-T17 rows differ across worker counts")
	}
	var warm CacheStats
	cached, err := Run(spec, Options{Parallelism: 8, Store: st, Stats: &warm})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Executed != 0 || warm.Hits != warm.Total {
		t.Fatalf("warm run not fully cached: %+v", warm)
	}
	if !bytes.Equal(renderJSON(t, serial), renderJSON(t, cached)) {
		t.Fatal("T15-T17 rows differ between cold and warm store runs")
	}
	for _, c := range serial.Cells {
		if c.Err != "" {
			t.Errorf("cell %s/%s failed: %s", c.ScenarioID, c.Variant, c.Err)
		}
	}
}
