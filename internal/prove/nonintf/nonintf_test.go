package nonintf

import (
	"strings"
	"testing"

	"timeprot/internal/prove/absmodel"
)

const (
	testFamilies = 4
	testRandom   = 80
	testSeed     = 20_26
)

// findCase extracts a named lemma report.
func findCase(t *testing.T, rep ProofReport, name string) CaseReport {
	t.Helper()
	for _, c := range rep.Cases {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("no case %q in %v", name, rep.Cases)
	return CaseReport{}
}

// TestFullProtectionProves is the paper's thesis, machine-checked: with
// every mechanism armed, all unwinding lemmas hold and the exhaustive
// bounded noninterference check passes for every sampled time-function
// family.
func TestFullProtectionProves(t *testing.T) {
	rep := Prove(absmodel.DefaultConfig(), testFamilies, testRandom, testSeed)
	if !rep.Proved() {
		t.Fatalf("full protection must prove:\n%s", rep)
	}
	if rep.Bounded.PadOverruns != 0 {
		t.Fatalf("padding assumption violated: %+v", rep.Bounded)
	}
	if rep.Bounded.Runs < 100 {
		t.Fatalf("bounded check ran too few programs: %d", rep.Bounded.Runs)
	}
}

// TestAblationMatrix is experiment T1's core: removing any single
// mechanism must break exactly the corresponding proof case AND yield a
// concrete bounded counterexample.
func TestAblationMatrix(t *testing.T) {
	cases := []struct {
		name       string
		mutate     func(*absmodel.Config)
		breaksCase string
	}{
		{"no-flush", func(c *absmodel.Config) { c.Flush = false }, "Case2b-switch"},
		{"no-pad", func(c *absmodel.Config) { c.Pad = false }, "Case2b-switch"},
		{"no-color", func(c *absmodel.Config) { c.Color = false }, "Case1-user"},
		{"no-clone", func(c *absmodel.Config) { c.Clone = false }, "Case2a-kernel"},
		{"no-irq-partition", func(c *absmodel.Config) { c.PartitionIRQ = false }, "irq-partition"},
		{"smt", func(c *absmodel.Config) { c.SMT = true }, "smt-live-sharing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := absmodel.DefaultConfig()
			tc.mutate(&cfg)
			rep := Prove(cfg, testFamilies, testRandom, testSeed)
			if rep.Proved() {
				t.Fatalf("ablation %s must not prove:\n%s", tc.name, rep)
			}
			c := findCase(t, rep, tc.breaksCase)
			if c.Holds {
				t.Errorf("expected %s to fail:\n%s", tc.breaksCase, rep)
			}
			if c.Witness == "" {
				t.Errorf("failed case must carry a witness")
			}
			if rep.Bounded.Proved {
				t.Errorf("bounded check must find a counterexample:\n%s", rep)
			}
			if rep.Bounded.Counterexample == nil {
				t.Errorf("missing counterexample")
			}
		})
	}
}

// TestOnlyTheNamedCaseBreaks pins the precision of the case analysis:
// each single ablation leaves the OTHER cases intact.
func TestOnlyTheNamedCaseBreaks(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*absmodel.Config)
		broken map[string]bool
	}{
		{"no-color", func(c *absmodel.Config) { c.Color = false }, map[string]bool{"Case1-user": true}},
		{"no-clone", func(c *absmodel.Config) { c.Clone = false }, map[string]bool{"Case2a-kernel": true}},
		{"no-flush", func(c *absmodel.Config) { c.Flush = false }, map[string]bool{"Case2b-switch": true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := absmodel.DefaultConfig()
			tc.mutate(&cfg)
			rep := Prove(cfg, 2, 20, testSeed)
			for _, c := range rep.Cases {
				if want := tc.broken[c.Name]; want == c.Holds {
					t.Errorf("case %s: holds=%v, want broken=%v", c.Name, c.Holds, want)
				}
			}
		})
	}
}

// TestProofIndependentOfFunctionFamily verifies the §5.1 claim that the
// proof needs no knowledge of the concrete time function: the verdict is
// the same across many independently sampled families.
func TestProofIndependentOfFunctionFamily(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		cfg := absmodel.DefaultConfig()
		m := absmodel.NewMachine(cfg, absmodel.SampleFuncs(seed*77+1, cfg.DigestMod))
		for _, c := range CheckHiStepLemma(m) {
			if !c.Holds {
				t.Fatalf("seed %d: %s failed under full protection: %s", seed, c.Name, c.Witness)
			}
		}
		if c := CheckSwitchLemma(m); !c.Holds {
			t.Fatalf("seed %d: switch lemma failed: %s", seed, c.Witness)
		}
	}
}

// TestInsufficientPadBudgetDetected: the padding value is an assumption,
// not a theorem (§5.2); the checker must flag a budget below the
// worst-case switch work rather than prove over it.
func TestInsufficientPadBudgetDetected(t *testing.T) {
	cfg := absmodel.DefaultConfig()
	cfg.PadBudget = 4 // far below worst-case entry+flush+exit
	rep := Prove(cfg, 2, 20, testSeed)
	if rep.Proved() {
		t.Fatalf("insufficient pad budget must not prove:\n%s", rep)
	}
	sw := findCase(t, rep, "Case2b-switch")
	if sw.Holds && rep.Bounded.PadOverruns == 0 {
		t.Fatalf("overrun not detected anywhere:\n%s", rep)
	}
}

func TestRunTraceDeterminism(t *testing.T) {
	cfg := absmodel.DefaultConfig()
	m := absmodel.NewMachine(cfg, absmodel.SampleFuncs(5, cfg.DigestMod))
	hi := []absmodel.Action{1, absmodel.ActSyscall, 0}
	a, _ := RunTraceInto(m, new(absmodel.State), hi, nil)
	b, _ := RunTraceInto(m, new(absmodel.State), hi, nil)
	if len(a) == 0 {
		t.Fatal("no observations")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic trace at %d", i)
		}
	}
}

func TestSliceProgramEnumerationComplete(t *testing.T) {
	cfg := absmodel.DefaultConfig()
	progs := slicePrograms(cfg)
	// (alphabet + syscall + startIO)^stepsPerSlice
	want := 1
	for i := 0; i < cfg.StepsPerSlice; i++ {
		want *= cfg.Alphabet + 2
	}
	if len(progs) != want {
		t.Fatalf("enumerated %d programs, want %d", len(progs), want)
	}
	seen := make(map[string]bool)
	for _, p := range progs {
		key := ""
		for _, a := range p {
			key += string(rune(int(a) + 10))
		}
		if seen[key] {
			t.Fatal("duplicate program enumerated")
		}
		seen[key] = true
	}
}

func TestVerdictAndCounterexampleStrings(t *testing.T) {
	v := Verdict{Proved: true, Runs: 10, Families: 2}
	if !strings.Contains(v.String(), "PROVED") {
		t.Errorf("verdict string: %s", v)
	}
	v = Verdict{Counterexample: &Counterexample{HiA: []absmodel.Action{1}, HiB: []absmodel.Action{2}}}
	if !strings.Contains(v.String(), "REFUTED") {
		t.Errorf("verdict string: %s", v)
	}
	rep := Prove(absmodel.DefaultConfig(), 1, 5, testSeed)
	if !strings.Contains(rep.String(), "Case2b-switch") {
		t.Errorf("report string missing cases:\n%s", rep)
	}
}

func TestFirstDivergence(t *testing.T) {
	a := []Observation{{Clock: 1}, {Clock: 2}}
	b := []Observation{{Clock: 1}, {Clock: 3}}
	idx, oa, ob, diff := FirstDivergence(a, b)
	if !diff || idx != 1 || oa.Clock != 2 || ob.Clock != 3 {
		t.Fatalf("divergence = %d %v %v %v", idx, oa, ob, diff)
	}
	if _, _, _, diff := FirstDivergence(a, a); diff {
		t.Fatal("identical traces must not diverge")
	}
	if idx, _, _, diff := FirstDivergence(a, a[:1]); !diff || idx != 1 {
		t.Fatal("length mismatch must diverge at the shorter length")
	}
}

// TestThreeDomainNI: noninterference also holds (and ablations also
// fail) with a third, bystander domain in the rotation — the paper's
// policies are not hierarchical, and protection is pairwise.
func TestThreeDomainNI(t *testing.T) {
	cfg := absmodel.DefaultConfig()
	cfg.Domains = 3
	cfg.Slices = 9 // three full rotations
	v := CheckBounded(cfg, 2, 40, testSeed)
	if !v.Proved {
		t.Fatalf("3-domain full protection must prove: %s", v)
	}
	broken := cfg
	broken.Color = false
	v = CheckBounded(broken, 2, 40, testSeed)
	if v.Proved {
		t.Fatal("3-domain no-colour must refute")
	}
	brokenF := cfg
	brokenF.Flush = false
	v = CheckBounded(brokenF, 2, 40, testSeed)
	if v.Proved {
		t.Fatal("3-domain no-flush must refute")
	}
}
