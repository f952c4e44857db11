package conform

import (
	"timeprot/internal/attacks"
	"timeprot/internal/core"
	"timeprot/internal/prove/absmodel"
	"timeprot/internal/prove/nonintf"
)

// Verdict classifies one conformance cell.
type Verdict string

const (
	// VerdictSound: the two sides agree — the prover accepts and the
	// simulator measures no leak, or the prover refutes and the
	// simulator demonstrates one.
	VerdictSound Verdict = "sound"
	// VerdictConservative: the prover refutes but the simulator sees no
	// leak. Allowed — the abstract model may over-approximate; a
	// refutation is a refusal to certify, not a claim of exploitability.
	VerdictConservative Verdict = "conservative"
	// VerdictViolation: the prover accepts the pair while the simulator
	// measures capacity above the CI-backed noise floor. Fatal — the
	// abstract model fails to over-approximate a concrete channel.
	VerdictViolation Verdict = "violation"
)

// Classify derives the cell verdict from the two sides' outcomes.
func Classify(absAccepts, concreteLeak bool) Verdict {
	switch {
	case absAccepts && concreteLeak:
		return VerdictViolation
	case !absAccepts && !concreteLeak:
		return VerdictConservative
	default:
		return VerdictSound
	}
}

// ViolationWitness is a minimized soundness violation: the smallest
// program pair (under the prover's shrink steps) that the abstract
// model still accepts while the simulator still measures a leak, with
// the re-measured evidence.
type ViolationWitness struct {
	// HiA and HiB are the minimal violating pair.
	HiA, HiB []absmodel.Action
	// ShrinkEvals counts the dual-driver evaluations minimisation spent.
	ShrinkEvals int
	// Channel names the leaking observation stream of the minimal pair.
	Channel string
	// CapacityBits, FloorBits, CILow and CIHigh are the minimal pair's
	// re-measured leaking estimate.
	CapacityBits, FloorBits, CILow, CIHigh float64
}

// Opts parameterises one conformance cell check.
type Opts struct {
	// Families is the number of sampled time-function families on the
	// abstract side.
	Families int
	// FamilySeed is the abstract side's base family seed.
	FamilySeed uint64
	// MeasureSeed seeds the concrete run (symbol sequence, probe
	// order, estimator bootstrap).
	MeasureSeed uint64
	// Params sizes the concrete run.
	Params Params
}

// Outcome is one fully cross-checked conformance cell.
type Outcome struct {
	// Pair is the program pair checked.
	Pair Pair
	// Abstract and Concrete are the two sides' results.
	Abstract AbstractVerdict
	// Concrete is the simulator measurement.
	Concrete ConcreteResult
	// Verdict is the cross-check classification.
	Verdict Verdict
	// Witness is the minimized evidence when Verdict is violation.
	Witness *ViolationWitness
}

// confirmSeeds derive the independent replication seeds a screening
// leak must survive before it can contradict an accepting prover.
var confirmSeeds = [...]uint64{0xC0417172, 0x1D05E5E1}

// confirmLeak guards the violation verdict against estimator false
// positives. A capacity estimate on a few dozen rounds can clear the
// CI-backed floor by chance (a temporal drift in the observations
// aligning with the fixed symbol sequence), and a soundness violation
// is a fatal claim — so a leak only counts against an accepting prover
// if it replicates under every independent measurement seed. A real
// channel is systematic and survives reseeding; noise does not.
func confirmLeak(cc *attacks.CellContext, prot core.Config, pair Pair, o Opts) bool {
	for _, d := range confirmSeeds {
		if !MeasureConcreteIn(cc, prot, pair, o.Params, o.MeasureSeed^d, nil).Leak {
			return false
		}
	}
	return true
}

// Check runs one pair through both sides and classifies the cell,
// minimising any soundness violation into a witness. Outcome.Concrete
// always carries the screening measurement verbatim; a screening leak
// that fails replication classifies as sound (Concrete.Leak may then
// read true on a sound cell — the measurement is reported, not
// falsified). Every concrete run — screening, replication and each
// shrink evaluation — draws its machine from cc, the caller's per-worker
// context; the context never changes a measurement.
func Check(cc *attacks.CellContext, cfg absmodel.Config, prot core.Config, pair Pair, o Opts) Outcome {
	out := Outcome{Pair: pair}
	out.Abstract = CheckAbstract(cfg, pair, o.Families, o.FamilySeed)
	out.Concrete = MeasureConcreteIn(cc, prot, pair, o.Params, o.MeasureSeed, nil)
	leak := out.Concrete.Leak
	if out.Abstract.Accepts && leak {
		leak = confirmLeak(cc, prot, pair, o)
	}
	out.Verdict = Classify(out.Abstract.Accepts, leak)
	if out.Verdict == VerdictViolation {
		out.Witness = minimizeViolation(cc, cfg, prot, pair, o)
	}
	return out
}

// minimizeViolation shrinks a violating pair through the prover's
// shrink machinery against the conjunction of both sides: the minimal
// pair is still abstractly accepted AND still concretely leaking, so
// every remaining action is load-bearing for the soundness gap.
func minimizeViolation(cc *attacks.CellContext, cfg absmodel.Config, prot core.Config, pair Pair, o Opts) *ViolationWitness {
	still := func(a, b []absmodel.Action) bool {
		p := Pair{HiA: a, HiB: b}
		if !CheckAbstract(cfg, p, o.Families, o.FamilySeed).Accepts {
			return false
		}
		return MeasureConcreteIn(cc, prot, p, o.Params, o.MeasureSeed, nil).Leak &&
			confirmLeak(cc, prot, p, o)
	}
	hiA, hiB, evals := nonintf.MinimizeWith(pair.HiA, pair.HiB, still)
	res := MeasureConcreteIn(cc, prot, Pair{HiA: hiA, HiB: hiB}, o.Params, o.MeasureSeed, nil)
	w := &ViolationWitness{HiA: hiA, HiB: hiB, ShrinkEvals: evals}
	for _, ch := range res.Channels {
		if leakCertain(ch.Est) {
			w.Channel = ch.Name
			w.CapacityBits = ch.Est.CapacityBits
			w.FloorBits = ch.Est.FloorBits
			w.CILow = ch.Est.CILow
			w.CIHigh = ch.Est.CIHigh
			break
		}
	}
	return w
}
