// Package conform is the model-conformance harness: property-based
// cross-checking of the abstract prover model (internal/prove) against
// the concrete simulator (internal/hw + internal/kernel), the
// discipline Buckley et al. 2023 showed the paper's agenda depends on.
// The abstract model is only a sound stand-in for the machine if it
// over-approximates every channel the concrete machine can express —
// whenever the prover finds two Hi programs indistinguishable, the
// simulator must measure no capacity between them.
//
// The harness generates deterministic random Hi program pairs over the
// abstract action alphabet, runs each pair through BOTH sides on the
// same protection configuration:
//
//   - abstract: nonintf.RunTraceInto over sampled time-function families —
//     does Lo's observation trace distinguish the two programs?
//   - concrete: a two-domain transmission run on the kernel simulator,
//     where a Hi Trojan executes the symbol's program each round and a
//     Lo spy measures its own timing four ways (cache-probe decode,
//     probe latency, slice-start arrival, interrupt gaps); the channel
//     estimator turns the labelled observations into a capacity with a
//     bootstrap confidence interval.
//
// Each cell is then classified: sound (the verdicts agree), conservative
// (the prover refutes but the simulator sees no leak — allowed, the
// abstract model may over-approximate), or a soundness VIOLATION (the
// prover accepts the pair while the simulator measures capacity above
// the CI-backed noise floor). Violations are fatal and are minimised
// into a witness via nonintf.MinimizeWith against the concrete leak
// predicate, so every remaining action of the witness pair is
// load-bearing.
package conform

import (
	"timeprot/internal/prove/absmodel"
	"timeprot/internal/rng"
)

// HarnessVersion is the conformance harness's registered model-version
// string, part of the conformance fingerprint under which the
// experiment engine keys conformance cells. Bump it whenever a verdict
// could change for the same inputs — the pair generator, the concrete
// driver's transmission protocol or observation streams, the leak
// predicate, or the classification. Pure refactors do not bump it.
const HarnessVersion = "conform/1"

// Pair is one generated Hi program pair: the two secret-dependent
// behaviours whose distinguishability both sides judge.
type Pair struct {
	// HiA and HiB are the two Hi programs over the abstract action
	// alphabet (user inputs, syscalls, device-interrupt programming).
	HiA, HiB []absmodel.Action
	// Noise, when non-empty, is a symbol-INDEPENDENT background program
	// run by a third domain scheduled between Hi and Lo — the
	// multi-domain generator surface the discovery fuzzer searches.
	// Because the noise program is the same whichever Hi program the
	// round selects, it can never carry the symbol itself; it exists to
	// perturb shared microarchitectural state (LLC occupancy, bus
	// queueing, flush work) so marginal channels surface or drown.
	// Conformance cells never set it, and it is omitted from their
	// serialised form, so conform/1 cells and goldens are untouched.
	Noise []absmodel.Action `json:",omitempty"`
}

// PairSeed derives the deterministic generation seed of pair `index`
// under a base seed, decorrelating consecutive indices.
func PairSeed(base uint64, index int) uint64 {
	return rng.HashCombine(base, 0x9E3779B9+uint64(index))
}

// actions returns the Hi action space of a model configuration: every
// user input, a syscall, and a device-interrupt programming action —
// the same space the prover's bounded check enumerates.
func actions(cfg absmodel.Config) []absmodel.Action {
	acts := make([]absmodel.Action, 0, cfg.Alphabet+2)
	for a := 0; a < cfg.Alphabet; a++ {
		acts = append(acts, absmodel.Action(a))
	}
	return append(acts, absmodel.ActSyscall, absmodel.ActStartIO)
}

// Generate produces the deterministic random program pair of a seed:
// HiA is uniform over the action space at the prover's random-program
// length (StepsPerSlice actions per Hi slice); HiB is, by turns, an
// identical copy (the pair every sound model must accept), a fully
// independent draw, or HiA with a random subset of positions mutated —
// so the generated surface mixes near-identical and distant pairs. The
// pair depends only on the configuration's sizing fields, not on which
// mechanisms are armed, so the same seed yields the same pair across
// every ablation row.
func Generate(cfg absmodel.Config, seed uint64) Pair {
	r := rng.New(seed)
	acts := actions(cfg)
	hiSlices := (cfg.Slices + 1) / 2
	length := cfg.StepsPerSlice * hiSlices
	a := make([]absmodel.Action, length)
	for i := range a {
		a[i] = acts[r.Intn(len(acts))]
	}
	b := append([]absmodel.Action(nil), a...)
	switch r.Intn(4) {
	case 0:
		// Identical pair: the prover must accept it under every
		// configuration, and the simulator must measure no capacity.
	case 1:
		// Independent pair.
		for i := range b {
			b[i] = acts[r.Intn(len(acts))]
		}
	default:
		// Mutation pair: k random positions redrawn.
		k := 1 + r.Intn(length)
		for _, i := range r.Perm(length)[:k] {
			b[i] = acts[r.Intn(len(acts))]
		}
	}
	return Pair{HiA: a, HiB: b}
}

// Clone returns a deep copy of the pair; mutations of the copy never
// alias the original's action slices.
func (p Pair) Clone() Pair {
	c := Pair{
		HiA: append([]absmodel.Action(nil), p.HiA...),
		HiB: append([]absmodel.Action(nil), p.HiB...),
	}
	if len(p.Noise) > 0 {
		c.Noise = append([]absmodel.Action(nil), p.Noise...)
	}
	return c
}

// Mutate returns the deterministic mutant of a pair under a seed: one
// randomly chosen operator applied to a deep copy, so the parent is
// never aliased. The operators cover the discovery fuzzer's search
// moves — point redraws, cross-program segment copies and swaps (which
// manufacture near-identical pairs, the ones a sound model must prove
// hardest), insertions and deletions (so pair length itself is
// searched), and toggling a symbol-independent Noise program. Program
// lengths stay within [1, 2×the generator's default length].
func Mutate(cfg absmodel.Config, p Pair, seed uint64) Pair {
	r := rng.New(seed)
	acts := actions(cfg)
	hiSlices := (cfg.Slices + 1) / 2
	maxLen := 2 * cfg.StepsPerSlice * hiSlices
	m := p.Clone()

	// prog picks the mutation target: HiA or HiB.
	prog := func() *[]absmodel.Action {
		if r.Bool() {
			return &m.HiA
		}
		return &m.HiB
	}

	switch r.Intn(7) {
	case 0, 1: // redraw k random positions of one program
		t := *prog()
		k := 1 + r.Intn(len(t))
		for _, i := range r.Perm(len(t))[:k] {
			t[i] = acts[r.Intn(len(acts))]
		}
	case 2: // swap an aligned segment between A and B
		n := min(len(m.HiA), len(m.HiB))
		lo := r.Intn(n)
		hi := lo + 1 + r.Intn(n-lo)
		for i := lo; i < hi; i++ {
			m.HiA[i], m.HiB[i] = m.HiB[i], m.HiA[i]
		}
	case 3: // copy an aligned segment one way (toward identical pairs)
		n := min(len(m.HiA), len(m.HiB))
		lo := r.Intn(n)
		hi := lo + 1 + r.Intn(n-lo)
		src, dst := m.HiA, m.HiB
		if r.Bool() {
			src, dst = dst, src
		}
		copy(dst[lo:hi], src[lo:hi])
	case 4: // insert a random action
		t := prog()
		if len(*t) < maxLen {
			i := r.Intn(len(*t) + 1)
			*t = append(*t, 0)
			copy((*t)[i+1:], (*t)[i:])
			(*t)[i] = acts[r.Intn(len(acts))]
		} else {
			(*t)[r.Intn(len(*t))] = acts[r.Intn(len(acts))]
		}
	case 5: // delete a random action
		t := prog()
		if len(*t) > 1 {
			i := r.Intn(len(*t))
			*t = append((*t)[:i], (*t)[i+1:]...)
		} else {
			(*t)[0] = acts[r.Intn(len(acts))]
		}
	default: // toggle or redraw the Noise program
		if len(m.Noise) > 0 && r.Bool() {
			m.Noise = nil
		} else {
			n := 1 + r.Intn(cfg.StepsPerSlice*hiSlices)
			m.Noise = make([]absmodel.Action, n)
			for i := range m.Noise {
				m.Noise[i] = acts[r.Intn(len(acts))]
			}
		}
	}
	return m
}
