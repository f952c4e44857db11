package conform

import (
	"reflect"
	"testing"

	"timeprot/internal/attacks"
	"timeprot/internal/core"
	"timeprot/internal/prove/absmodel"
)

// repeated builds a constant program.
func repeated(a absmodel.Action, n int) []absmodel.Action {
	out := make([]absmodel.Action, n)
	for i := range out {
		out[i] = a
	}
	return out
}

func progLen(cfg absmodel.Config) int {
	return cfg.StepsPerSlice * ((cfg.Slices + 1) / 2)
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := absmodel.DefaultConfig()
	for seed := uint64(0); seed < 32; seed++ {
		p1 := Generate(cfg, seed)
		p2 := Generate(cfg, seed)
		if !reflect.DeepEqual(p1, p2) {
			t.Fatalf("seed %d: generation is not deterministic", seed)
		}
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := absmodel.DefaultConfig()
	want := progLen(cfg)
	acts := map[absmodel.Action]bool{absmodel.ActSyscall: true, absmodel.ActStartIO: true}
	for a := 0; a < cfg.Alphabet; a++ {
		acts[absmodel.Action(a)] = true
	}
	identical, distinct := 0, 0
	for seed := uint64(0); seed < 64; seed++ {
		p := Generate(cfg, seed)
		if len(p.HiA) != want || len(p.HiB) != want {
			t.Fatalf("seed %d: lengths %d/%d, want %d", seed, len(p.HiA), len(p.HiB), want)
		}
		for _, prog := range [][]absmodel.Action{p.HiA, p.HiB} {
			for _, a := range prog {
				if !acts[a] {
					t.Fatalf("seed %d: action %d outside the Hi action space", seed, a)
				}
			}
		}
		if reflect.DeepEqual(p.HiA, p.HiB) {
			identical++
		} else {
			distinct++
		}
	}
	if identical == 0 || distinct == 0 {
		t.Fatalf("generator surface is degenerate: %d identical, %d distinct pairs", identical, distinct)
	}
}

func TestGenerateIgnoresMechanismBits(t *testing.T) {
	base := absmodel.DefaultConfig()
	ablated := base
	ablated.Flush, ablated.Pad, ablated.Color = false, false, false
	for seed := uint64(0); seed < 16; seed++ {
		if !reflect.DeepEqual(Generate(base, seed), Generate(ablated, seed)) {
			t.Fatalf("seed %d: pair depends on mechanism bits; ablation rows would check different pairs", seed)
		}
	}
}

func TestCheckAbstractIdenticalAccepts(t *testing.T) {
	cfg := absmodel.DefaultConfig()
	cfg.Flush = false // even a broken config cannot distinguish a program from itself
	prog := repeated(0, progLen(cfg))
	v := CheckAbstract(cfg, Pair{HiA: prog, HiB: prog}, 3, 42)
	if !v.Accepts {
		t.Fatalf("identical pair refuted: %+v", v)
	}
	if v.Runs != 6 || v.Families != 3 {
		t.Fatalf("bookkeeping: %+v", v)
	}
}

func TestCheckAbstractRefutesUnflushed(t *testing.T) {
	cfg := absmodel.DefaultConfig()
	cfg.Flush = false
	p := Pair{
		HiA: repeated(0, progLen(cfg)),
		HiB: repeated(1%absmodel.Action(cfg.Alphabet), progLen(cfg)),
	}
	v := CheckAbstract(cfg, p, 3, 42)
	if v.Accepts {
		t.Fatalf("distinct pair accepted without flushing: %+v", v)
	}
}

func TestCheckAbstractFullProtectionAccepts(t *testing.T) {
	cfg := absmodel.DefaultConfig()
	for seed := uint64(0); seed < 8; seed++ {
		p := Generate(cfg, seed)
		v := CheckAbstract(cfg, p, 3, 42)
		if !v.Accepts {
			t.Fatalf("seed %d: full protection refuted %v vs %v: %+v", seed, p.HiA, p.HiB, v)
		}
	}
}

// TestConcreteDetectsUnprotectedLeak pins the harness's detection power:
// with no protection, two programs sweeping different L1 set groups must
// produce a CI-certain leak — otherwise violations could never be
// observed and every conformance verdict would be vacuous.
func TestConcreteDetectsUnprotectedLeak(t *testing.T) {
	cfg := absmodel.DefaultConfig()
	p := Pair{HiA: repeated(0, progLen(cfg)), HiB: repeated(1, progLen(cfg))}
	res := MeasureConcreteIn(attacks.NewCellContext(), core.NoProtection(), p, DefaultParams(24), 42, nil)
	if !res.Leak {
		t.Fatalf("no leak measured on an unprotected distinct pair: %+v", res)
	}
}

// TestConcreteFullProtectionQuiet pins the other direction: under full
// protection the same distinct pair must measure no CI-certain leak on
// any stream.
func TestConcreteFullProtectionQuiet(t *testing.T) {
	cfg := absmodel.DefaultConfig()
	p := Pair{HiA: repeated(0, progLen(cfg)), HiB: repeated(1, progLen(cfg))}
	res := MeasureConcreteIn(attacks.NewCellContext(), core.FullProtection(), p, DefaultParams(24), 42, nil)
	if res.Leak {
		t.Fatalf("full protection leaked: %+v", res)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		accepts, leak bool
		want          Verdict
	}{
		{true, false, VerdictSound},
		{false, true, VerdictSound},
		{false, false, VerdictConservative},
		{true, true, VerdictViolation},
	}
	for _, c := range cases {
		if got := Classify(c.accepts, c.leak); got != c.want {
			t.Errorf("Classify(%v, %v) = %s, want %s", c.accepts, c.leak, got, c.want)
		}
	}
}

// TestCheckFullProtection cross-checks generated pairs end to end under
// full protection: the prover must accept and the simulator must stay
// quiet — the soundness direction the harness exists to guard.
func TestCheckFullProtection(t *testing.T) {
	cfg := absmodel.DefaultConfig()
	for seed := uint64(1); seed <= 3; seed++ {
		p := Generate(cfg, seed)
		out := Check(attacks.NewCellContext(), cfg, core.FullProtection(), p, Opts{
			Families: 2, FamilySeed: 42, MeasureSeed: seed, Params: DefaultParams(16),
		})
		if out.Verdict == VerdictViolation {
			t.Fatalf("seed %d: soundness violation: %+v", seed, out)
		}
		if !out.Abstract.Accepts {
			t.Fatalf("seed %d: full protection refuted: %+v", seed, out.Abstract)
		}
	}
}

// TestCheckUnflushed cross-checks an ablated row: the prover refutes
// distinct pairs without flushing, so whatever the simulator measures
// the verdict is sound or conservative, never a violation.
func TestCheckUnflushed(t *testing.T) {
	cfg := absmodel.DefaultConfig()
	cfg.Flush = false
	prot := core.FullProtection()
	prot.FlushOnSwitch = false
	p := Pair{HiA: repeated(0, progLen(cfg)), HiB: repeated(1, progLen(cfg))}
	out := Check(attacks.NewCellContext(), cfg, prot, p, Opts{
		Families: 2, FamilySeed: 42, MeasureSeed: 9, Params: DefaultParams(16),
	})
	if out.Abstract.Accepts {
		t.Fatalf("unflushed distinct pair accepted: %+v", out.Abstract)
	}
	if out.Verdict == VerdictViolation {
		t.Fatalf("verdict inconsistent with refutation: %+v", out)
	}
}
