package nonintf

import (
	"fmt"

	"timeprot/internal/prove/absmodel"
)

// This file checks the unwinding lemmas behind the paper's §5.2 case
// analysis by exhaustive enumeration over the abstract model's digest
// domain. The induction they support is:
//
//   - While Hi executes, none of its actions may change state that Lo
//     can later observe THROUGH ITS OWN TIMING without an intervening
//     reset: the persistent Lo-visible state (Lo's LLC partition or the
//     shared LLC, Lo's kernel image or the shared image, kernel global
//     data, and any interrupts that can fire during Lo). Violations are
//     attributed to the paper's cases: a polluted user-visible cache is
//     Case 1, polluted kernel text is Case 2a, a Hi-programmed interrupt
//     visible to Lo is the §4.2 interrupt channel, and live-shared SMT
//     state is the §4.1 hyperthreading verdict.
//   - The domain switch must erase every transient divergence Hi is
//     permitted to cause: flushables reset to the defined state and the
//     dispatch clock padded to a constant (Case 2b).
//
// Together with determinism of the machine, these step-local lemmas give
// bounded noninterference; CheckBounded validates that end-to-end.

// CaseReport is one lemma's verdict.
type CaseReport struct {
	// Name identifies the lemma ("Case1-user", "Case2a-kernel",
	// "Case2b-switch", "irq-partition", "smt").
	Name string
	// Holds is the verdict.
	Holds bool
	// Checked counts the assignments examined.
	Checked int
	// Witness describes the first violating assignment.
	Witness string
}

// enumDomain is the digest range exhaustively enumerated in lemma checks;
// it is deliberately smaller than the model's full domain to keep the
// product space tractable while remaining exhaustive over its own range.
const enumDomain = 3

// nextAssignment advances v in place to the next vector of
// [0,enumDomain)^len(v) in odometer order (v[0] fastest), reporting false
// once it wraps back to all zeros. Starting from zeros, the loop
// `for ok := true; ok; ok = nextAssignment(v)` visits the whole product
// space through one vector.
func nextAssignment(v []uint64) bool {
	for i := range v {
		v[i]++
		if v[i] < enumDomain {
			return true
		}
		v[i] = 0
	}
	return false
}

// stateDims is the length of a digest assignment vector:
// [flushables(3), llcHi, llcLo, llcShared, ktHi, ktLo, ktShared, kglobal].
const stateDims = 10

// fillState resets s in place and loads a digest assignment vector.
func fillState(m *absmodel.Machine, s *absmodel.State, v *[stateDims]uint64) {
	m.ResetInto(s)
	s.Flushables[absmodel.ResL1] = v[0]
	s.Flushables[absmodel.ResTLB] = v[1]
	s.Flushables[absmodel.ResBP] = v[2]
	s.LLCBanks[0], s.LLCBanks[1] = v[3], v[4]
	s.LLCShared = v[5]
	s.KTextBanks[0], s.KTextBanks[1] = v[6], v[7]
	s.KTextShared = v[8]
	s.KGlobal = v[9]
}

// Lo's persistent views, the state that survives a domain switch: the
// cache and the kernel text Lo's own steps time against. Kernel global
// data is in neither: its access pattern is fixed, so every kernel
// entry — including the switch's own — deterministically resets its
// cache state (§5.2 Case 2a), which excludes it like the flushables.
// Under SMT nothing is ever flushed between Lo's steps, so there the
// Hi-step lemma compares the flushables too.

// cacheDigest is the user-reachable cache state Lo's Case-1 steps time
// against: Lo's LLC partition, or the shared LLC.
func cacheDigest(m *absmodel.Machine, s *absmodel.State) uint64 {
	if m.Cfg.Color {
		return s.LLCBanks[1]
	}
	return s.LLCShared
}

// kernelDigest is the kernel state Lo's Case-2a syscalls time against:
// the kernel text Lo traps into.
func kernelDigest(m *absmodel.Machine, s *absmodel.State) uint64 {
	if m.Cfg.Clone {
		return s.KTextBanks[1]
	}
	return s.KTextShared
}

// CheckHiStepLemma verifies that no pair of Hi actions, from any state,
// diverges the persistent Lo-visible state or Lo's interrupt view. The
// returned reports split the verdict by the §5.2 case the violated
// component belongs to.
//
// Step is deterministic, so each assignment steps every Hi action once
// into its own reused state and the pairs compare those post-states, in
// the order (i, j), i < j, that fixes which witness is found first.
func CheckHiStepLemma(m *absmodel.Machine) []CaseReport {
	acts := hiActions(m.Cfg)
	user := CaseReport{Name: "Case1-user", Holds: true}
	kern := CaseReport{Name: "Case2a-kernel", Holds: true}
	irqs := CaseReport{Name: "irq-partition", Holds: true}
	smt := CaseReport{Name: "smt-live-sharing", Holds: true}

	post := make([]absmodel.State, len(acts))
	var v [stateDims]uint64
	fail := func(r *CaseReport, i, j int) {
		r.Holds = false
		r.Witness = fmt.Sprintf("state %v, Hi actions %v vs %v", v[:], acts[i], acts[j])
	}
	for ok := true; ok; ok = nextAssignment(v[:]) {
		for k, act := range acts {
			fillState(m, &post[k], &v)
			m.Step(&post[k], act)
		}
		for i := 0; i < len(acts); i++ {
			for j := i + 1; j < len(acts); j++ {
				s1, s2 := &post[i], &post[j]
				user.Checked++
				kern.Checked++
				irqs.Checked++
				smt.Checked++
				// Attribute divergences per component.
				if user.Holds && cacheDigest(m, s1) != cacheDigest(m, s2) {
					fail(&user, i, j)
				}
				if kern.Holds && kernelDigest(m, s1) != kernelDigest(m, s2) {
					fail(&kern, i, j)
				}
				if irqs.Holds && !m.SameLoIRQs(s1, s2, 1) {
					fail(&irqs, i, j)
				}
				if m.Cfg.SMT && smt.Holds && s1.Flushables != s2.Flushables {
					fail(&smt, i, j)
				}
			}
		}
	}
	return []CaseReport{user, kern, irqs, smt}
}

// switchTransients is the number of transient vectors the switch lemma
// quantifies over: the flushable triple and the kernel-global-data
// state, each in [0,enumDomain).
const switchTransients = enumDomain * enumDomain * enumDomain * enumDomain

// switchJitters is the accumulated clock jitter the switch must pad away.
var switchJitters = [...]uint64{0, 3, 9, 17}

// switchPost is what the switch lemma compares of one EndSlice: its
// inputs (for witnesses) and the Lo-facing outcome.
type switchPost struct {
	trans      [4]uint64
	jitter     uint64
	overran    bool
	dispatch   uint64
	flushables [3]uint64
	kglobal    uint64
}

// CheckSwitchLemma verifies Case 2b: from any two states that agree on
// the persistent Lo-visible parts but differ arbitrarily in transients
// (flushable digests and accumulated clock), the switch into Lo erases
// the difference — flushables reset and dispatch time constant.
//
// EndSlice is deterministic, so each (base, transient, jitter) input is
// switched once and the pairs compare the cached outcomes, in the order
// (ti ≤ tj, then jitter w1, w2) that fixes which witness is found first.
func CheckSwitchLemma(m *absmodel.Machine) CaseReport {
	rep := CaseReport{Name: "Case2b-switch", Holds: true}
	if m.Cfg.SMT {
		// No switches exist between SMT siblings; the lemma is
		// vacuous and protection must fail in the Hi-step lemma.
		rep.Witness = "vacuous: no domain switch separates SMT siblings"
		return rep
	}
	// A few persistent bases suffice: the lemma's quantification is
	// over transients; persistent parts ride along unchanged.
	bases := [...][stateDims]uint64{
		{},
		{1, 2, 0, 1, 2, 1, 0, 2, 1, 2},
		{2, 2, 2, 2, 2, 2, 2, 2, 2, 2},
	}
	const nj = len(switchJitters)
	post := make([]switchPost, switchTransients*nj)
	var s absmodel.State
	for b := range bases {
		// Transients the switch must erase: the flushable triple, the
		// kernel-global-data state (reset by the switch's own
		// deterministic kernel entry), and accumulated clock jitter.
		var trans [4]uint64
		for t, ok := 0, true; ok; t, ok = t+1, nextAssignment(trans[:]) {
			for w, jit := range switchJitters {
				fillState(m, &s, &bases[b])
				copy(s.Flushables[:], trans[:3])
				s.KGlobal = trans[3]
				// SliceStart stays 0: clocks model accumulated slice
				// time plus jitter.
				s.Clock = jit
				r := m.EndSlice(&s)
				post[t*nj+w] = switchPost{
					trans: trans, jitter: jit, overran: r.Overran,
					dispatch: r.Dispatch, flushables: s.Flushables, kglobal: s.KGlobal,
				}
			}
		}
		for ti := 0; ti < switchTransients; ti++ {
			for tj := ti; tj < switchTransients; tj++ {
				for w1 := 0; w1 < nj; w1++ {
					for w2 := 0; w2 < nj; w2++ {
						p1, p2 := &post[ti*nj+w1], &post[tj*nj+w2]
						rep.Checked++
						if p1.overran || p2.overran {
							rep.Holds = false
							rep.Witness = fmt.Sprintf("pad overrun: transients %v/%v jitter %d/%d", p1.trans[:], p2.trans[:], p1.jitter, p2.jitter)
							return rep
						}
						if p1.dispatch != p2.dispatch || p1.flushables != p2.flushables || p1.kglobal != p2.kglobal {
							rep.Holds = false
							rep.Witness = fmt.Sprintf("dispatch %d vs %d, flushables %v vs %v, kglobal %d vs %d (transients %v/%v, jitter %d/%d)",
								p1.dispatch, p2.dispatch, p1.flushables, p2.flushables, p1.kglobal, p2.kglobal, p1.trans[:], p2.trans[:], p1.jitter, p2.jitter)
							return rep
						}
					}
				}
			}
		}
	}
	return rep
}

// ProofReport aggregates the lemma verdicts and the bounded check for
// one configuration — one row of the paper's would-be proof obligations.
type ProofReport struct {
	// Cfg is the checked configuration.
	Cfg absmodel.Config
	// Cases are the unwinding-lemma verdicts.
	Cases []CaseReport
	// Bounded is the end-to-end enumeration verdict. When it refutes,
	// its Counterexample is the MINIMAL pair (see Witness).
	Bounded Verdict
	// Witness is the minimal counterexample with its Lo observation
	// traces; nil when the bounded check proved.
	Witness *Witness
}

// Proved reports whether every lemma holds and the bounded check passed
// without padding overruns.
func (r ProofReport) Proved() bool {
	for _, c := range r.Cases {
		if !c.Holds {
			return false
		}
	}
	return r.Bounded.Proved && r.Bounded.PadOverruns == 0
}

// String renders the report.
func (r ProofReport) String() string {
	out := ""
	for _, c := range r.Cases {
		mark := "HOLDS"
		if !c.Holds {
			mark = "FAILS"
		}
		out += fmt.Sprintf("  %-18s %-6s (%d checked) %s\n", c.Name, mark, c.Checked, c.Witness)
	}
	out += fmt.Sprintf("  %-18s %s\n", "bounded-NI", r.Bounded)
	return out
}

// Prove runs the full §5.2 proof obligations for a configuration over
// `families` sampled function families (the lemmas use the first family;
// their verdicts are structural and family-independent, which the tests
// verify separately). When the bounded check refutes, the raw
// counterexample is shrunk to a minimal Witness, which also replaces
// Bounded.Counterexample — every refutation carries minimal evidence.
func Prove(cfg absmodel.Config, families, extraRandom int, seed uint64) ProofReport {
	m := absmodel.NewMachine(cfg, absmodel.SampleFuncs(seed, cfg.DigestMod))
	rep := ProofReport{Cfg: cfg}
	rep.Cases = CheckHiStepLemma(m)
	rep.Cases = append(rep.Cases, CheckSwitchLemma(m))
	rep.Bounded = CheckBounded(cfg, families, extraRandom, seed)
	if rep.Bounded.Counterexample != nil {
		rep.Witness = Minimize(cfg, rep.Bounded.Counterexample)
		rep.Bounded.Counterexample = rep.Witness.Counterexample()
	}
	return rep
}
