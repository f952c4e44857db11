package nonintf

import (
	"fmt"
	"iter"
	"strings"

	"timeprot/internal/prove/absmodel"
)

// Witness is a MINIMAL counterexample to bounded noninterference: a
// locally minimal pair of Hi programs whose Lo observation traces
// diverge, together with the traces themselves — the evidence a refuted
// proof row carries. Minimality is the shrink fixpoint of Minimize: the
// pair still diverges, and applying any single further shrink step
// (dropping a trailing action, or making one more position agree) yields
// identical Lo traces. Every action kept is therefore load-bearing.
type Witness struct {
	// FamilySeed identifies the sampled time-function family the
	// divergence occurs under.
	FamilySeed uint64
	// HiA and HiB are the minimal divergent Hi program pair.
	HiA, HiB []absmodel.Action
	// Index is the first diverging position of the Lo traces.
	Index int
	// ObsA and ObsB are Lo's observation traces under HiA and HiB,
	// truncated just past the divergence (Index+1 entries): the
	// serialised evidence of interference.
	ObsA, ObsB []Observation
	// ShrinkRuns counts the machine executions the minimisation spent;
	// it is diagnostic only and never part of a verdict.
	ShrinkRuns int
}

// String renders the witness on one line.
func (w *Witness) String() string {
	return fmt.Sprintf("family %d: minimal Hi %v vs %v -> Lo obs[%d] %+v vs %+v",
		w.FamilySeed, w.HiA, w.HiB, w.Index, w.ObsA[w.Index], w.ObsB[w.Index])
}

// Counterexample converts the witness back into the Counterexample
// shape, so one evidence value serves both reporting paths.
func (w *Witness) Counterexample() *Counterexample {
	return &Counterexample{
		FamilySeed: w.FamilySeed,
		HiA:        w.HiA,
		HiB:        w.HiB,
		Index:      w.Index,
		A:          w.ObsA[w.Index],
		B:          w.ObsB[w.Index],
	}
}

// FormatActions renders an action list compactly: user inputs as their
// alphabet value, syscalls as "sys", device programming as "io".
func FormatActions(prog []absmodel.Action) string {
	parts := make([]string, len(prog))
	for i, a := range prog {
		switch a {
		case absmodel.ActSyscall:
			parts[i] = "sys"
		case absmodel.ActStartIO:
			parts[i] = "io"
		default:
			parts[i] = fmt.Sprint(int(a))
		}
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// shrinkCandidates enumerates every single shrink step of the pair, in
// fixed order: drop the trailing action of both programs, of one
// program, then unify each differing position (either direction). Each
// candidate is strictly smaller under the lexicographic measure
// (total length, differing positions), so greedy shrinking terminates.
// Every candidate is yielded as a fresh copy of both programs, built
// only when the consumer asks for it: a shrink round stops at the first
// candidate that still diverges, and the predicate may keep or modify
// what it is given.
func shrinkCandidates(a, b []absmodel.Action) iter.Seq2[[]absmodel.Action, []absmodel.Action] {
	clone := func(p []absmodel.Action) []absmodel.Action {
		return append([]absmodel.Action(nil), p...)
	}
	return func(yield func(ca, cb []absmodel.Action) bool) {
		if len(a) > 1 && len(b) > 1 && !yield(clone(a[:len(a)-1]), clone(b[:len(b)-1])) {
			return
		}
		if len(a) > 1 && !yield(clone(a[:len(a)-1]), clone(b)) {
			return
		}
		if len(b) > 1 && !yield(clone(a), clone(b[:len(b)-1])) {
			return
		}
		for i := range min(len(a), len(b)) {
			if a[i] == b[i] {
				continue
			}
			ca := clone(a)
			ca[i] = b[i]
			if !yield(ca, clone(b)) {
				return
			}
			cb := clone(b)
			cb[i] = a[i]
			if !yield(clone(a), cb) {
				return
			}
		}
	}
}

// MinimizeWith greedily shrinks a program pair to a local minimum of an
// arbitrary divergence predicate: apply the first shrink step that
// preserves the predicate until none does. The result pair still
// satisfies the predicate (assuming the input did), and no single
// further shrink step does — every remaining action is load-bearing.
// The fixed candidate order makes minimisation deterministic whenever
// the predicate is. It returns the minimal pair and the number of
// predicate evaluations spent. The conformance harness minimises
// against a concrete-simulator leak predicate through this entry point;
// Minimize is the abstract-trace instantiation.
func MinimizeWith(hiA, hiB []absmodel.Action, diverges func(a, b []absmodel.Action) bool) ([]absmodel.Action, []absmodel.Action, int) {
	a := append([]absmodel.Action(nil), hiA...)
	b := append([]absmodel.Action(nil), hiB...)
	evals := 0
	for changed := true; changed; {
		changed = false
		for ca, cb := range shrinkCandidates(a, b) {
			evals++
			if diverges(ca, cb) {
				a, b = ca, cb
				changed = true
				break
			}
		}
	}
	return a, b, evals
}

// Minimize shrinks a bounded-NI counterexample to a locally minimal
// witness: greedily apply the first shrink step that preserves
// divergence until none does, then record the divergent Lo traces. The
// result is deterministic — candidate order is fixed and the machine is
// deterministic — so minimisation is safe inside store-cached proof
// cells. Minimisation re-executes the machine, over one reused state
// and two reused trace buffers, but never touches the originating
// Verdict's counts.
func Minimize(cfg absmodel.Config, c *Counterexample) *Witness {
	m := absmodel.NewMachine(cfg, absmodel.SampleFuncs(c.FamilySeed, cfg.DigestMod))
	runs := 0
	var s absmodel.State
	var bufA, bufB []Observation
	diverges := func(a, b []absmodel.Action) bool {
		runs += 2
		bufA, _ = RunTraceInto(m, &s, a, bufA)
		bufB, _ = RunTraceInto(m, &s, b, bufB)
		_, _, _, d := FirstDivergence(bufA, bufB)
		return d
	}
	a, b, _ := MinimizeWith(c.HiA, c.HiB, diverges)
	oa, _ := RunTraceInto(m, &s, a, bufA)
	ob, _ := RunTraceInto(m, &s, b, bufB)
	idx, _, _, _ := FirstDivergence(oa, ob)
	cut := func(obs []Observation) []Observation {
		if idx+1 < len(obs) {
			return obs[:idx+1]
		}
		return obs
	}
	return &Witness{
		FamilySeed: c.FamilySeed,
		HiA:        a,
		HiB:        b,
		Index:      idx,
		ObsA:       cut(oa),
		ObsB:       cut(ob),
		ShrinkRuns: runs,
	}
}
