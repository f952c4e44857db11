package conform

import (
	"reflect"
	"testing"

	"timeprot/internal/attacks"
	"timeprot/internal/core"
	"timeprot/internal/hw/cover"
	"timeprot/internal/prove/absmodel"
)

// validActions indexes the legal action space of a config.
func validActions(cfg absmodel.Config) map[absmodel.Action]bool {
	ok := map[absmodel.Action]bool{}
	for _, a := range actions(cfg) {
		ok[a] = true
	}
	return ok
}

func TestMutateDeterministicAndWellFormed(t *testing.T) {
	cfg := absmodel.DefaultConfig()
	ok := validActions(cfg)
	maxLen := 2 * cfg.StepsPerSlice * ((cfg.Slices + 1) / 2)
	p := Generate(cfg, 11)
	for seed := uint64(0); seed < 200; seed++ {
		m1 := Mutate(cfg, p, seed)
		m2 := Mutate(cfg, p, seed)
		if !reflect.DeepEqual(m1, m2) {
			t.Fatalf("seed %d: Mutate is not deterministic", seed)
		}
		for _, prog := range [][]absmodel.Action{m1.HiA, m1.HiB, m1.Noise} {
			for _, a := range prog {
				if !ok[a] {
					t.Fatalf("seed %d: illegal action %d", seed, a)
				}
			}
		}
		if len(m1.HiA) < 1 || len(m1.HiA) > maxLen || len(m1.HiB) < 1 || len(m1.HiB) > maxLen {
			t.Fatalf("seed %d: program lengths out of bounds: %d/%d", seed, len(m1.HiA), len(m1.HiB))
		}
		// Chain a second mutation to make sure mutants stay mutable.
		Mutate(cfg, m1, seed^0xFF)
	}
}

func TestMutateNeverAliasesParent(t *testing.T) {
	cfg := absmodel.DefaultConfig()
	p := Generate(cfg, 23)
	orig := p.Clone()
	for seed := uint64(0); seed < 100; seed++ {
		Mutate(cfg, p, seed)
		if !reflect.DeepEqual(p, orig) {
			t.Fatalf("seed %d: Mutate modified its input pair", seed)
		}
	}
}

func TestMutateReachesEveryOperatorOutcome(t *testing.T) {
	cfg := absmodel.DefaultConfig()
	p := Generate(cfg, 5)
	var sawNoise, sawShorter, sawLonger, sawPoint bool
	for seed := uint64(0); seed < 300; seed++ {
		m := Mutate(cfg, p, seed)
		switch {
		case len(m.Noise) > 0:
			sawNoise = true
		case len(m.HiA)+len(m.HiB) < len(p.HiA)+len(p.HiB):
			sawShorter = true
		case len(m.HiA)+len(m.HiB) > len(p.HiA)+len(p.HiB):
			sawLonger = true
		case !reflect.DeepEqual(m.HiA, p.HiA) || !reflect.DeepEqual(m.HiB, p.HiB):
			sawPoint = true
		}
	}
	if !sawNoise || !sawShorter || !sawLonger || !sawPoint {
		t.Fatalf("operator coverage: noise=%v shorter=%v longer=%v point=%v",
			sawNoise, sawShorter, sawLonger, sawPoint)
	}
}

func TestMeasureConcreteInMatchesFresh(t *testing.T) {
	cfg := absmodel.DefaultConfig()
	pair := Generate(cfg, PairSeed(7, 3))
	p := DefaultParams(10)
	prot := core.FullProtection()

	fresh := MeasureConcreteIn(attacks.NewCellContext(), prot, pair, p, 99, nil)

	cc := attacks.NewCellContext()
	cov := &cover.Map{}
	pooled := MeasureConcreteIn(cc, prot, pair, p, 99, cov)
	if !reflect.DeepEqual(fresh, pooled) {
		t.Fatalf("pooled+coverage result differs from fresh:\n%+v\nvs\n%+v", fresh, pooled)
	}
	if cov.Count() == 0 {
		t.Fatal("coverage map stayed empty across a concrete run")
	}

	// Re-running on the same warm context must also be bit-identical.
	again := MeasureConcreteIn(cc, prot, pair, p, 99, &cover.Map{})
	if !reflect.DeepEqual(fresh, again) {
		t.Fatal("warm context re-run drifted")
	}
}

func TestNoisePairRunsAndStaysSymbolIndependent(t *testing.T) {
	cfg := absmodel.DefaultConfig()
	pair := Generate(cfg, PairSeed(7, 4))
	pair.Noise = []absmodel.Action{0, 1, absmodel.ActSyscall, 1, absmodel.ActStartIO}
	p := DefaultParams(10)

	// The noise domain must not break the run or the labelling under
	// either extreme of the protection surface.
	full := MeasureConcreteIn(attacks.NewCellContext(), core.FullProtection(), pair, p, 123, nil)
	if len(full.Channels) != 4 {
		t.Fatalf("got %d streams, want 4", len(full.Channels))
	}
	open := core.FullProtection()
	open.FlushOnSwitch = false
	res := MeasureConcreteIn(attacks.NewCellContext(), open, pair, p, 123, nil)
	if len(res.Channels) != 4 {
		t.Fatalf("got %d streams, want 4", len(res.Channels))
	}

	// An IDENTICAL pair with noise carries no symbol: no stream may
	// report a CI-certain leak, noise or not.
	ident := Pair{HiA: pair.HiA, HiB: append([]absmodel.Action(nil), pair.HiA...), Noise: pair.Noise}
	for _, prot := range []core.Config{core.FullProtection(), open} {
		r := MeasureConcreteIn(attacks.NewCellContext(), prot, ident, p, 77, nil)
		if r.Leak {
			t.Fatalf("identical-program pair with noise measured a certain leak under %+v", prot)
		}
	}

	// Determinism with a third domain in the schedule.
	r1 := MeasureConcreteIn(attacks.NewCellContext(), open, pair, p, 123, nil)
	if !reflect.DeepEqual(res, r1) {
		t.Fatal("noise-pair measurement is not deterministic")
	}
}
