// Package experiment is the parallel experiment-sweep engine: it
// expands a declarative sweep specification into the attack × mitigation
// × seed matrix of the paper's evaluation, executes the cells on a
// deterministic worker pool, and renders the results as JSON, Markdown
// (the tables of EXPERIMENTS.md), or aligned text.
//
// Determinism is the engine's contract: every cell constructs its own
// simulated kernel.System and depends only on its (rounds, seed)
// arguments, results are stored by cell index rather than completion
// order, and cross-row post-processing runs in canonical variant order —
// so a sweep's output is bit-identical whether it runs on one worker or
// sixteen.
//
// That contract is also what makes sweeps incremental: cells are pure
// functions of their inputs, so Options.Store can memoise them in a
// content-addressed store (internal/experiment/store) keyed under the
// engine fingerprint (Fingerprint), Options.Shard can split the matrix
// across independent processes, and a warm run reproduces a cold run's
// reports byte for byte without executing anything.
package experiment

import (
	"fmt"
	"math"
	"strings"

	"timeprot/internal/attacks"
)

// Spec declares a sweep: which scenarios and mitigation variants to
// run, at what statistical weight, and over which seeds.
type Spec struct {
	// Scenarios selects attack scenarios by experiment ID ("T2") or
	// short name ("l1pp"). Empty, or the single entry "all", selects
	// every registered scenario.
	Scenarios []string
	// Variants filters mitigation variants by exact label; empty runs
	// every canonical variant of each selected scenario.
	Variants []string
	// Rounds is the requested transmission rounds per cell; each
	// scenario's own policy raises or rescales it (0 = default 60).
	Rounds int
	// Seeds are the base seeds of the sweep (empty = {42}).
	Seeds []uint64
	// Trials repeats each base seed with derived seeds (<=1 = one
	// trial). Trial 0 uses the base seed itself, so a single-trial
	// sweep reproduces the canonical tables.
	Trials int
	// CIHalfWidth, when positive, arms adaptive sampling: each cell
	// climbs a deterministic rounds ladder (half the requested rounds,
	// then doubling) and stops as soon as the 95% bootstrap confidence
	// interval on its capacity has half-width at or below this target
	// (in bits), or the ladder reaches MaxRounds. Zero runs the classic
	// fixed-rounds sweep. DefaultCIHalfWidth is the recommended target.
	CIHalfWidth float64
	// MaxRounds caps the adaptive ladder, in requested-rounds space
	// (each rung still passes through the scenario's rounds policy).
	// 0 = DefaultMaxRoundsFactor x Rounds. Ignored for fixed sweeps.
	MaxRounds int
	// Proofs includes the T1 proof-ablation matrix in the run.
	Proofs bool
	// ProofFamilies and ProofRandom size the prover's sampling (0 =
	// defaults 5 and 200).
	ProofFamilies, ProofRandom int
}

// DefaultRounds is the rounds used when Spec.Rounds is unset.
const DefaultRounds = 60

// DefaultCIHalfWidth is the recommended adaptive tolerance: the same
// 0.05 bits as the leak-verdict margin (attacks.LeakMargin), so a cell
// stops sampling once its capacity is pinned down to the resolution the
// verdict actually uses.
const DefaultCIHalfWidth = 0.05

// DefaultMaxRoundsFactor scales Spec.Rounds into the default adaptive
// rounds cap.
const DefaultMaxRoundsFactor = 4

// normalized returns the spec with defaults applied.
func (s Spec) normalized() Spec {
	if s.Rounds <= 0 {
		s.Rounds = DefaultRounds
	}
	if len(s.Seeds) == 0 {
		s.Seeds = []uint64{42}
	}
	if s.Trials <= 1 {
		s.Trials = 1
	}
	if s.CIHalfWidth > 0 {
		if s.MaxRounds <= 0 {
			s.MaxRounds = DefaultMaxRoundsFactor * s.Rounds
		}
	} else {
		// Canonical zeros: a fixed sweep's cells (and store keys) are
		// independent of any adaptive knob left set by the caller.
		s.CIHalfWidth = 0
		s.MaxRounds = 0
	}
	if s.ProofFamilies <= 0 {
		s.ProofFamilies = 5
	}
	if s.ProofRandom <= 0 {
		s.ProofRandom = 200
	}
	return s
}

// Cell is one point of the sweep matrix: a (scenario, variant, seed)
// triple with its effective rounds.
type Cell struct {
	// Index is the cell's position in the expanded matrix.
	Index int
	// ScenarioID and ScenarioName identify the attack scenario.
	ScenarioID, ScenarioName string
	// Title is the scenario's description.
	Title string
	// Variant is the mitigation variant's label.
	Variant string
	// Config renders the variant's protection configuration.
	Config string
	// BaseSeed and Trial identify the seed point; Seed is the derived
	// seed actually passed to the runner.
	BaseSeed uint64
	Trial    int
	Seed     uint64
	// Rounds is the effective rounds after the scenario's policy — the
	// fixed-sweep rounds, and the adaptive ladder's reference point.
	Rounds int
	// ReqRounds, CIHalfWidth, and MaxRounds carry the sweep's adaptive
	// policy into the cell (and its store key): the requested rounds
	// the ladder derives from, the CI half-width target, and the ladder
	// cap. All three are zero in a fixed sweep.
	ReqRounds   int     `json:",omitempty"`
	CIHalfWidth float64 `json:",omitempty"`
	MaxRounds   int     `json:",omitempty"`
}

// Adaptive reports whether the cell runs under the adaptive policy.
func (c Cell) Adaptive() bool { return c.CIHalfWidth > 0 }

// trialSeed derives the seed for one trial of a base seed. Trial 0 is
// the base seed itself; later trials decorrelate through a splitmix64
// step so arithmetically related bases stay independent.
func trialSeed(base uint64, trial int) uint64 {
	if trial == 0 {
		return base
	}
	z := base + uint64(trial)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// selectScenarios resolves the spec's scenario keys against the
// registry, preserving registry order and rejecting unknown keys.
func selectScenarios(keys []string) ([]attacks.Scenario, error) {
	all := attacks.Scenarios()
	if len(keys) == 0 || (len(keys) == 1 && strings.EqualFold(strings.TrimSpace(keys[0]), "all")) {
		// "all" means the static table only: dynamically registered
		// discovery scenarios (F1, F2, …) must be selected explicitly,
		// so EXPERIMENTS.md and the committed docs store remain a pure
		// function of the static registry regardless of which
		// discoveries a build has loaded.
		static := make([]attacks.Scenario, 0, len(all))
		for _, s := range all {
			if !s.Dynamic {
				static = append(static, s)
			}
		}
		return static, nil
	}
	wanted := make(map[string]bool)
	for _, k := range keys {
		k = strings.TrimSpace(k)
		if k == "" {
			continue
		}
		s, ok := attacks.ScenarioByID(k)
		if !ok {
			return nil, fmt.Errorf("experiment: unknown scenario %q (have %s)",
				k, strings.Join(attacks.ScenarioIDs(), ", "))
		}
		wanted[s.ID] = true
	}
	out := make([]attacks.Scenario, 0, len(wanted))
	for _, s := range all {
		if wanted[s.ID] {
			out = append(out, s)
		}
	}
	return out, nil
}

// Cells expands the spec into its ordered cell matrix: scenario-major,
// then base seed, then trial, then variant — so every (scenario, seed)
// group of variant rows is contiguous for cross-row post-processing.
func (s Spec) Cells() ([]Cell, error) { return s.cells(math.MaxInt) }

// cells is Cells, refusing more than maxCells cells before allocating.
func (s Spec) cells(maxCells int) ([]Cell, error) {
	spec := s.normalized()
	scens, err := selectScenarios(spec.Scenarios)
	if err != nil {
		return nil, err
	}
	var varFilter, matched map[string]bool
	if len(spec.Variants) > 0 {
		varFilter, matched = make(map[string]bool), make(map[string]bool)
		for _, v := range spec.Variants {
			varFilter[v] = true
		}
	}
	n := 0
	for _, sc := range scens {
		for _, v := range sc.Variants {
			if varFilter != nil {
				if !varFilter[v.Label] {
					continue
				}
				matched[v.Label] = true
			}
			n++
		}
	}
	for _, v := range spec.Variants {
		if !matched[v] {
			return nil, fmt.Errorf("experiment: variant filter %q matches no variant of the selected scenarios", v)
		}
	}
	n, err = boundCells("sweep", maxCells, n, len(spec.Seeds), spec.Trials)
	if err != nil {
		return nil, err
	}
	cells := make([]Cell, 0, n)
	for _, sc := range scens {
		rounds := sc.Rounds(spec.Rounds)
		for _, base := range spec.Seeds {
			for trial := 0; trial < spec.Trials; trial++ {
				for _, v := range sc.Variants {
					if varFilter != nil && !varFilter[v.Label] {
						continue
					}
					c := Cell{
						Index:        len(cells),
						ScenarioID:   sc.ID,
						ScenarioName: sc.Name,
						Title:        sc.Title,
						Variant:      v.Label,
						Config:       v.Config(),
						BaseSeed:     base,
						Trial:        trial,
						Seed:         trialSeed(base, trial),
						Rounds:       rounds,
					}
					if spec.CIHalfWidth > 0 {
						c.ReqRounds = spec.Rounds
						c.CIHalfWidth = spec.CIHalfWidth
						c.MaxRounds = spec.MaxRounds
					}
					cells = append(cells, c)
				}
			}
		}
	}
	return cells, nil
}

// MaxPlanCells bounds the (unsharded) matrix of every plan, counted
// before the spec is expanded, so a small spec cannot make a planner
// allocate without limit. The in-process runners are not bounded.
const MaxPlanCells = 20000

// boundCells counts a matrix of the named kind from its dimensions before
// it is expanded, refusing an empty one (a zero factor must not leave the
// other loops to spin) and one over maxCells. The product is checked
// against maxCells factor by factor, so it never overflows.
func boundCells(kind string, maxCells int, dims ...int) (int, error) {
	n := 1
	for _, d := range dims {
		if d != 0 && n > maxCells/d {
			return 0, fmt.Errorf("experiment: matrix exceeds %d cells", maxCells)
		}
		n *= d
	}
	if n == 0 {
		return 0, fmt.Errorf("experiment: empty %s matrix", kind)
	}
	return n, nil
}
