package nonintf

import (
	"strings"
	"testing"

	"timeprot/internal/prove/absmodel"
)

// refutedConfigs returns ablated configurations whose bounded check is
// expected to find a counterexample.
func refutedConfigs() map[string]absmodel.Config {
	out := make(map[string]absmodel.Config)
	for name, mut := range map[string]func(*absmodel.Config){
		"no-flush": func(c *absmodel.Config) { c.Flush = false },
		"no-color": func(c *absmodel.Config) { c.Color = false },
		"no-irq":   func(c *absmodel.Config) { c.PartitionIRQ = false },
		"smt":      func(c *absmodel.Config) { c.SMT = true },
	} {
		cfg := absmodel.DefaultConfig()
		mut(&cfg)
		out[name] = cfg
	}
	return out
}

// TestWitnessMinimality is the shrink contract: the minimised pair still
// diverges, and applying ANY single further shrink step yields agreeing
// Lo traces — every action kept in the witness is load-bearing.
func TestWitnessMinimality(t *testing.T) {
	for name, cfg := range refutedConfigs() {
		t.Run(name, func(t *testing.T) {
			v := CheckBounded(cfg, 2, 40, testSeed)
			if v.Proved || v.Counterexample == nil {
				t.Fatalf("expected a counterexample: %s", v)
			}
			w := Minimize(cfg, v.Counterexample)
			m := absmodel.NewMachine(cfg, absmodel.SampleFuncs(w.FamilySeed, cfg.DigestMod))
			diverges := func(a, b []absmodel.Action) (int, bool) {
				oa, _ := RunTraceInto(m, new(absmodel.State), a, nil)
				ob, _ := RunTraceInto(m, new(absmodel.State), b, nil)
				idx, _, _, d := FirstDivergence(oa, ob)
				return idx, d
			}
			idx, d := diverges(w.HiA, w.HiB)
			if !d {
				t.Fatalf("minimised pair does not diverge: %s", w)
			}
			if idx != w.Index {
				t.Fatalf("witness index %d, recomputed %d", w.Index, idx)
			}
			i := 0
			for ca, cb := range shrinkCandidates(w.HiA, w.HiB) {
				if _, d := diverges(ca, cb); d {
					t.Errorf("shrink candidate %d (%s vs %s) still diverges — witness not minimal",
						i, FormatActions(ca), FormatActions(cb))
				}
				i++
			}
		})
	}
}

// TestWitnessEvidenceTraces: the serialised Lo traces agree before the
// divergence index and differ exactly at it.
func TestWitnessEvidenceTraces(t *testing.T) {
	cfg := absmodel.DefaultConfig()
	cfg.Flush = false
	v := CheckBounded(cfg, 2, 40, testSeed)
	if v.Counterexample == nil {
		t.Fatal("expected a counterexample")
	}
	w := Minimize(cfg, v.Counterexample)
	if len(w.ObsA) != w.Index+1 || len(w.ObsB) != w.Index+1 {
		t.Fatalf("traces not truncated past the divergence: lenA=%d lenB=%d index=%d",
			len(w.ObsA), len(w.ObsB), w.Index)
	}
	for i := 0; i < w.Index; i++ {
		if w.ObsA[i] != w.ObsB[i] {
			t.Fatalf("traces diverge at %d before the witness index %d", i, w.Index)
		}
	}
	if w.ObsA[w.Index] == w.ObsB[w.Index] {
		t.Fatal("traces agree at the witness index")
	}
}

// TestProveAttachesMinimalWitness: a refuted Prove carries a witness
// whose pair also replaces the verdict's counterexample, so every
// rendering shows the minimal evidence.
func TestProveAttachesMinimalWitness(t *testing.T) {
	cfg := absmodel.DefaultConfig()
	cfg.Clone = false
	rep := Prove(cfg, 2, 40, testSeed)
	if rep.Proved() {
		t.Fatal("shared kernel must refute")
	}
	if rep.Witness == nil {
		t.Fatal("refuted report carries no witness")
	}
	ce := rep.Bounded.Counterexample
	if ce == nil || ce.Index != rep.Witness.Index ||
		len(ce.HiA) != len(rep.Witness.HiA) || len(ce.HiB) != len(rep.Witness.HiB) {
		t.Fatalf("verdict counterexample not the minimal pair: %+v vs %+v", ce, rep.Witness)
	}

	full := Prove(absmodel.DefaultConfig(), 1, 10, testSeed)
	if !full.Proved() || full.Witness != nil {
		t.Fatalf("proved report must carry no witness: %+v", full.Witness)
	}
}

func TestFormatActions(t *testing.T) {
	got := FormatActions([]absmodel.Action{1, absmodel.ActSyscall, 0, absmodel.ActStartIO})
	if got != "[1 sys 0 io]" {
		t.Fatalf("FormatActions = %q", got)
	}
	w := &Witness{
		HiA:  []absmodel.Action{1},
		HiB:  []absmodel.Action{0},
		ObsA: []Observation{{Clock: 3}},
		ObsB: []Observation{{Clock: 5}},
	}
	if !strings.Contains(w.String(), "minimal") {
		t.Fatalf("witness string: %s", w)
	}
}
