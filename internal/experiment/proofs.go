package experiment

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"timeprot/internal/attacks"
	"timeprot/internal/experiment/store"
	"timeprot/internal/prove/absmodel"
	"timeprot/internal/prove/nonintf"
)

// This file is the proof-matrix engine: the prover-side analogue of the
// attack sweep in runner.go. A declarative ProofSpec expands into an
// ablation × model-variant × family-count × seed grid of proof cells,
// each cell invokes nonintf.Prove, cells execute on the same
// matrix engine as attack cells (engine.go), and results are cached in the content-addressed store under the prover fingerprint —
// so the T1 matrix becomes incremental, sharded, and warm-reproducible
// exactly like the measurement matrix.

// ProofAblation is one configuration row of the proof matrix: the
// full-protection proof or one named single-mechanism ablation, each
// expected to fail in exactly its case.
type ProofAblation struct {
	// Name labels the row (e.g. "full protection", "no flush").
	Name string
	// Apply mutates a model configuration into the ablated one; the
	// full-protection row applies the identity.
	Apply func(*absmodel.Config)
}

// proofAblations is the canonical T1 ablation table, built once.
var proofAblations = []ProofAblation{
	{"full protection", func(*absmodel.Config) {}},
	{"no flush", func(c *absmodel.Config) { c.Flush = false }},
	{"no pad", func(c *absmodel.Config) { c.Pad = false }},
	{"no colour", func(c *absmodel.Config) { c.Color = false }},
	{"shared kernel", func(c *absmodel.Config) { c.Clone = false }},
	{"no IRQ partition", func(c *absmodel.Config) { c.PartitionIRQ = false }},
	{"SMT co-residency", func(c *absmodel.Config) { c.SMT = true }},
}

// ProofAblations returns the canonical T1 ablation rows in presentation
// order, as a fresh copy.
func ProofAblations() []ProofAblation { return slices.Clone(proofAblations) }

// ProofModel is one abstract-model platform variant the matrix proves
// over: the §5.1 model at a different instantiation point, so each
// verdict is checked beyond the single default geometry.
type ProofModel struct {
	// Name labels the variant (e.g. "base").
	Name string
	// Title is a one-line description for the reports.
	Title string
	// Cfg is the fully protected configuration of the variant;
	// ablations mutate copies of it.
	Cfg absmodel.Config
}

// proofModels is the registered model-variant table, built once.
var proofModels = buildProofModels()

// ProofModels returns the registered model variants in presentation
// order, as a fresh copy. Every variant must prove under full
// protection and refute under every ablation; the proof-matrix tests
// pin this.
func ProofModels() []ProofModel { return slices.Clone(proofModels) }

func buildProofModels() []ProofModel {
	base := absmodel.DefaultConfig()

	wide := absmodel.DefaultConfig()
	wide.Alphabet = 3 // richer Hi action space: 125 exhaustive slice programs

	deep := absmodel.DefaultConfig()
	deep.StepsPerSlice = 4 // longer slices and schedule: 256 slice programs,
	deep.Slices = 8        // eight switches per run

	return []ProofModel{
		{Name: "base", Title: "the default §5.1 instantiation", Cfg: base},
		{Name: "wide-alphabet", Title: "a wider Hi input alphabet (3 symbols)", Cfg: wide},
		{Name: "deep-schedule", Title: "longer slices and more switches (4×8)", Cfg: deep},
	}
}

// proofModelByName resolves a model variant name.
func proofModelByName(name string) (ProofModel, bool) {
	for _, m := range proofModels {
		if m.Name == name {
			return m, true
		}
	}
	return ProofModel{}, false
}

// proofAblationByName resolves an ablation name.
func proofAblationByName(name string) (ProofAblation, bool) {
	for _, a := range proofAblations {
		if a.Name == name {
			return a, true
		}
	}
	return ProofAblation{}, false
}

// Proof-matrix defaults: the canonical PROOFS.md matrix runs every
// ablation over every model variant at these sampling parameters.
const (
	// DefaultProofFamilies is the sampled time-function families per
	// proof cell when unset.
	DefaultProofFamilies = 5
	// DefaultProofRandom is the extra random Hi programs per proof cell
	// when the spec leaves Random negative (0 is meaningful: exhaustive
	// slice programs only).
	DefaultProofRandom = 200
	// DefaultProofSeed seeds family sampling when no seed is given,
	// matching the sweep engine's default base seed.
	DefaultProofSeed = 42
)

// ProofSpec declares a proof matrix: which ablation rows and model
// variants to prove, at which family counts, over which seeds.
type ProofSpec struct {
	// Ablations selects ablation rows by exact name; empty, or the
	// single entry "all", selects every canonical row.
	Ablations []string
	// Models selects model variants by exact name; empty, or the
	// single entry "all", selects every registered variant.
	Models []string
	// Families are the family-count grid points (<=0 entries are
	// dropped); empty = {DefaultProofFamilies}.
	Families []int
	// Random is the extra random Hi programs per cell: 0 runs the
	// exhaustive slice set only, negative selects DefaultProofRandom.
	Random int
	// Seeds are the base seeds of the family sampling (empty =
	// {DefaultProofSeed}).
	Seeds []uint64
}

// normalized returns the spec with defaults applied.
func (s ProofSpec) normalized() ProofSpec {
	if isAll(s.Ablations) {
		s.Ablations = nil
		for _, a := range proofAblations {
			s.Ablations = append(s.Ablations, a.Name)
		}
	}
	if isAll(s.Models) {
		s.Models = nil
		for _, m := range proofModels {
			s.Models = append(s.Models, m.Name)
		}
	}
	var fams []int
	for _, f := range s.Families {
		if f > 0 {
			fams = append(fams, f)
		}
	}
	if len(fams) == 0 {
		fams = []int{DefaultProofFamilies}
	}
	s.Families = fams
	if s.Random < 0 {
		s.Random = DefaultProofRandom
	}
	if len(s.Seeds) == 0 {
		s.Seeds = []uint64{DefaultProofSeed}
	}
	return s
}

// isAll reports whether a selector list means "everything".
func isAll(keys []string) bool {
	return len(keys) == 0 || (len(keys) == 1 && strings.EqualFold(strings.TrimSpace(keys[0]), "all"))
}

// ProofCell is one point of the proof matrix: an (ablation, model,
// families, seed) tuple with its resolved configuration.
type ProofCell struct {
	// Index is the cell's position in the expanded matrix.
	Index int
	// Ablation and Model name the grid point.
	Ablation, Model string
	// Cfg is the resolved abstract-model configuration (the model
	// variant with the ablation applied).
	Cfg absmodel.Config
	// Families is the number of sampled time-function families.
	Families int
	// Random is the number of extra random Hi programs.
	Random int
	// Seed is the base seed of the family sampling.
	Seed uint64
}

// Cells expands the spec into its ordered cell matrix: model-major,
// then family count, then seed, then ablation — so every (model,
// families, seed) group of ablation rows is contiguous for the
// reporters' per-table grouping.
func (s ProofSpec) Cells() ([]ProofCell, error) { return s.cells(math.MaxInt) }

// cells is Cells, refusing more than maxCells cells before allocating.
func (s ProofSpec) cells(maxCells int) ([]ProofCell, error) {
	spec := s.normalized()
	n, err := boundCells("proof", maxCells, len(spec.Models), len(spec.Families), len(spec.Seeds), len(spec.Ablations))
	if err != nil {
		return nil, err
	}
	cells := make([]ProofCell, 0, n)
	for _, mname := range spec.Models {
		model, ok := proofModelByName(strings.TrimSpace(mname))
		if !ok {
			return nil, fmt.Errorf("experiment: unknown proof model %q (have %s)",
				mname, strings.Join(proofModelNames(), ", "))
		}
		for _, fam := range spec.Families {
			for _, seed := range spec.Seeds {
				for _, aname := range spec.Ablations {
					abl, ok := proofAblationByName(strings.TrimSpace(aname))
					if !ok {
						return nil, fmt.Errorf("experiment: unknown proof ablation %q (have %s)",
							aname, strings.Join(proofAblationNames(), ", "))
					}
					cfg := model.Cfg
					abl.Apply(&cfg)
					cells = append(cells, ProofCell{
						Index:    len(cells),
						Ablation: abl.Name,
						Model:    model.Name,
						Cfg:      cfg,
						Families: fam,
						Random:   spec.Random,
						Seed:     seed,
					})
				}
			}
		}
	}
	return cells, nil
}

func proofModelNames() []string {
	var out []string
	for _, m := range proofModels {
		out = append(out, m.Name)
	}
	return out
}

func proofAblationNames() []string {
	var out []string
	for _, a := range proofAblations {
		out = append(out, a.Name)
	}
	return out
}

// ProofCase is one unwinding-lemma verdict, flattened for reporting.
type ProofCase struct {
	// Name identifies the lemma.
	Name string
	// Holds is the verdict.
	Holds bool
	// Checked counts the assignments examined.
	Checked int
	// Witness describes the first violating assignment when the lemma
	// fails.
	Witness string `json:",omitempty"`
}

// ProofCellResult is one completed proof cell: its coordinates plus the
// flattened verdict and, when refuted, the minimal counterexample
// witness.
type ProofCellResult struct {
	ProofCell
	// Proved is the overall verdict: all lemmas hold and the bounded
	// check passed without padding overruns.
	Proved bool
	// Cases are the unwinding-lemma verdicts.
	Cases []ProofCase
	// BoundedProved is the end-to-end enumeration verdict.
	BoundedProved bool
	// BoundedRuns counts the complete machine executions compared.
	BoundedRuns int
	// PadOverruns counts runs whose switch work exceeded the pad.
	PadOverruns int
	// Witness is the minimal counterexample with its Lo observation
	// traces; nil when the bounded check proved.
	Witness *nonintf.Witness `json:",omitempty"`
	// Err records a prover failure (the cell's row is then zero).
	Err string `json:",omitempty"`
}

// Report reconstructs the full prover report from the flattened cell —
// identical whether the cell executed or was served from the store.
func (c ProofCellResult) Report() nonintf.ProofReport {
	rep := nonintf.ProofReport{
		Cfg: c.Cfg, Witness: c.Witness,
		Cases: slices.Grow([]nonintf.CaseReport(nil), len(c.Cases)),
	}
	for _, cs := range c.Cases {
		rep.Cases = append(rep.Cases, nonintf.CaseReport{
			Name: cs.Name, Holds: cs.Holds, Checked: cs.Checked, Witness: cs.Witness,
		})
	}
	rep.Bounded = nonintf.Verdict{
		Proved:      c.BoundedProved,
		Runs:        c.BoundedRuns,
		Families:    c.Families,
		PadOverruns: c.PadOverruns,
	}
	if c.Witness != nil {
		rep.Bounded.Counterexample = c.Witness.Counterexample()
	}
	return rep
}

// fillFromReport flattens a prover report into the result.
func (c *ProofCellResult) fillFromReport(rep nonintf.ProofReport) {
	c.Proved = rep.Proved()
	c.Cases = nil
	for _, cs := range rep.Cases {
		c.Cases = append(c.Cases, ProofCase{
			Name: cs.Name, Holds: cs.Holds, Checked: cs.Checked, Witness: cs.Witness,
		})
	}
	c.BoundedProved = rep.Bounded.Proved
	c.BoundedRuns = rep.Bounded.Runs
	c.PadOverruns = rep.Bounded.PadOverruns
	c.Witness = rep.Witness
}

// ProofMatrix is a completed proof matrix: the spec and every cell in
// matrix order. Like the sweep Report, it is a pure function of its
// spec — worker count and cache state cannot change a bit of it.
type ProofMatrix struct {
	// Spec is the normalised specification that produced the matrix.
	Spec ProofSpec
	// Cells are the results in matrix order. In a sharded run this is
	// the shard's subset, with full-matrix indices.
	Cells []ProofCellResult
}

// RunProofMatrix executes a proof matrix. The result depends only on
// the spec (and, for sharded runs, the shard selection); the store only
// decides which cells re-execute.
func RunProofMatrix(spec ProofSpec, opt ProofOptions) (*ProofMatrix, error) {
	spec = spec.normalized()
	cells, err := spec.Cells()
	if err != nil {
		return nil, err
	}
	results, err := runMatrix(&proofKind, cells, opt)
	if err != nil {
		return nil, err
	}
	return &ProofMatrix{Spec: spec, Cells: results}, nil
}

// proofKind is the proof-cell row of the engine's kind table: proof
// cells have no cross-row post-processing, so each is its own group.
var proofKind = matrixKind[ProofCell, ProofCellResult]{
	key: func(c ProofCell) (store.Key, bool) { return ProofKey(c), true },
	get: func(st store.MatrixStore, k store.Key, c ProofCell) (ProofCellResult, bool) {
		p, ok := st.GetProof(k)
		if !ok {
			return ProofCellResult{}, false
		}
		return decodeProofCell(c, p), true
	},
	exec: runProofCell,
	put: func(st store.MatrixStore, k store.Key, r ProofCellResult) error {
		return st.PutProof(k, encodeProofCell(r))
	},
	errOf: func(r ProofCellResult) string { return r.Err },
	label: func(c ProofCell) string {
		return fmt.Sprintf("proof %s/%s fam=%d seed=%d", c.Model, c.Ablation, c.Families, c.Seed)
	},
	adopt: func(r ProofCellResult, c ProofCell) ProofCellResult {
		r.ProofCell = c
		return r
	},
}

// runProofCell executes one proof cell, converting prover panics (e.g.
// an invalid resolved configuration) into per-cell errors. The prover
// allocates its own state, so the worker's cell context goes unused.
func runProofCell(_ *attacks.CellContext, c ProofCell) (res ProofCellResult) {
	res.ProofCell = c
	defer func() {
		if p := recover(); p != nil {
			res = ProofCellResult{ProofCell: c, Err: fmt.Sprint(p)}
		}
	}()
	rep := nonintf.Prove(c.Cfg, c.Families, c.Random, c.Seed)
	res.fillFromReport(rep)
	return res
}

// encodeProofCell converts a completed cell to its stored form.
func encodeProofCell(r ProofCellResult) store.ProofV1 {
	p := store.ProofV1{
		BoundedProved:   r.BoundedProved,
		BoundedRuns:     r.BoundedRuns,
		BoundedFamilies: r.Families,
		PadOverruns:     r.PadOverruns,
	}
	for _, c := range r.Cases {
		p.Cases = append(p.Cases, store.ProofCaseV1{
			Name: c.Name, Holds: c.Holds, Checked: c.Checked, Witness: c.Witness,
		})
	}
	if w := r.Witness; w != nil {
		sw := &store.ProofWitnessV1{
			FamilySeed: w.FamilySeed,
			Index:      w.Index,
			ShrinkRuns: w.ShrinkRuns,
		}
		for _, a := range w.HiA {
			sw.HiA = append(sw.HiA, int(a))
		}
		for _, a := range w.HiB {
			sw.HiB = append(sw.HiB, int(a))
		}
		for _, o := range w.ObsA {
			sw.ObsA = append(sw.ObsA, store.ProofObsV1{Clock: o.Clock, IRQ: o.IRQ})
		}
		for _, o := range w.ObsB {
			sw.ObsB = append(sw.ObsB, store.ProofObsV1{Clock: o.Clock, IRQ: o.IRQ})
		}
		p.Witness = sw
	}
	return p
}

// decodeProofCell reconstructs a cell result from its stored form.
func decodeProofCell(c ProofCell, p store.ProofV1) ProofCellResult {
	res := ProofCellResult{ProofCell: c, Cases: slices.Grow([]ProofCase(nil), len(p.Cases))}
	for _, cs := range p.Cases {
		res.Cases = append(res.Cases, ProofCase{
			Name: cs.Name, Holds: cs.Holds, Checked: cs.Checked, Witness: cs.Witness,
		})
	}
	res.BoundedProved = p.BoundedProved
	res.BoundedRuns = p.BoundedRuns
	res.PadOverruns = p.PadOverruns
	if sw := p.Witness; sw != nil {
		w := &nonintf.Witness{
			FamilySeed: sw.FamilySeed,
			HiA:        slices.Grow([]absmodel.Action(nil), len(sw.HiA)),
			HiB:        slices.Grow([]absmodel.Action(nil), len(sw.HiB)),
			Index:      sw.Index,
			ObsA:       slices.Grow([]nonintf.Observation(nil), len(sw.ObsA)),
			ObsB:       slices.Grow([]nonintf.Observation(nil), len(sw.ObsB)),
			ShrinkRuns: sw.ShrinkRuns,
		}
		for _, a := range sw.HiA {
			w.HiA = append(w.HiA, absmodel.Action(a))
		}
		for _, a := range sw.HiB {
			w.HiB = append(w.HiB, absmodel.Action(a))
		}
		for _, o := range sw.ObsA {
			w.ObsA = append(w.ObsA, nonintf.Observation{Clock: o.Clock, IRQ: o.IRQ})
		}
		for _, o := range sw.ObsB {
			w.ObsB = append(w.ObsB, nonintf.Observation{Clock: o.Clock, IRQ: o.IRQ})
		}
		res.Witness = w
	}
	res.Proved = res.Report().Proved()
	return res
}

// ProofResult is one row of the sweep's T1 matrix — the legacy flat
// shape the sweep Report embeds and EXPERIMENTS.md renders.
type ProofResult struct {
	// Name labels the configuration (the ablation name).
	Name string
	// Proved is the overall verdict: all lemmas hold and the bounded
	// check passed without padding overruns.
	Proved bool
	// Cases are the unwinding-lemma verdicts.
	Cases []ProofCase
	// BoundedProved is the end-to-end enumeration verdict.
	BoundedProved bool
	// BoundedRuns counts the complete machine executions compared.
	BoundedRuns int
	// PadOverruns counts runs whose switch work exceeded the pad.
	PadOverruns int
	// Witness is the minimal counterexample witness when refuted.
	Witness *nonintf.Witness `json:",omitempty"`
	// Report is the full prover output (not serialised to JSON).
	Report nonintf.ProofReport `json:"-"`
}

// sweepProofSpec is the proof matrix a sweep runs for its T1 section:
// every ablation over the base model at the sweep's sampling point.
func sweepProofSpec(families, extraRandom int, seed uint64) ProofSpec {
	return ProofSpec{
		Models:   []string{proofModels[0].Name},
		Families: []int{families},
		Random:   extraRandom,
		Seeds:    []uint64{seed},
	}
}

// SweepProofSpec returns the proof matrix a sweep with Spec.Proofs runs
// for its T1 section.
func SweepProofSpec(s Spec) ProofSpec {
	s = s.normalized()
	return sweepProofSpec(s.ProofFamilies, s.ProofRandom, firstSeed(s))
}

// legacyProofResults flattens proof cells into the sweep Report's T1
// rows.
func legacyProofResults(cells []ProofCellResult) []ProofResult {
	out := make([]ProofResult, 0, len(cells))
	for _, c := range cells {
		out = append(out, ProofResult{
			Name:          c.Ablation,
			Proved:        c.Proved,
			Cases:         c.Cases,
			BoundedProved: c.BoundedProved,
			BoundedRuns:   c.BoundedRuns,
			PadOverruns:   c.PadOverruns,
			Witness:       c.Witness,
			Report:        c.Report(),
		})
	}
	return out
}

// RunProofs runs the T1 proof-ablation matrix over the base model, at
// most parallelism configurations concurrently (<=0 runs sequentially).
// Results are in canonical order regardless of scheduling. It is the
// uncached entry point behind timeprot.ProofMatrix; store-backed runs
// go through RunProofMatrix.
func RunProofs(families, extraRandom int, seed uint64, parallelism int) []ProofResult {
	if parallelism <= 0 {
		parallelism = 1
	}
	m, err := RunProofMatrix(sweepProofSpec(families, extraRandom, seed),
		ProofOptions{Parallelism: parallelism})
	if err != nil {
		panic(err) // unreachable: the canonical spec always expands
	}
	return legacyProofResults(m.Cells)
}
