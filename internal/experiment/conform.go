package experiment

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"timeprot/internal/attacks"
	"timeprot/internal/channel"
	"timeprot/internal/conform"
	"timeprot/internal/core"
	"timeprot/internal/experiment/store"
	"timeprot/internal/prove/absmodel"
)

// This file is the conformance-matrix engine: the cross-checking
// analogue of the proof matrix in proofs.go. A declarative
// ConformanceSpec expands into a model-variant × seed × pair × ablation
// grid; each cell generates a deterministic program pair, drives it
// through BOTH the abstract prover model and the concrete simulator via
// internal/conform, and classifies the outcome. Cells cache in the
// content-addressed store under the conformance fingerprint, so CI
// re-certifies abstraction soundness warm on every model-version bump.

// ConformAblation is one configuration row of the conformance matrix: a
// mechanism ablated on BOTH sides — the abstract model bit and the
// matching concrete protection bit — so the two drivers always judge
// the same machine.
type ConformAblation struct {
	// Name labels the row, matching the proof matrix's ablation names.
	Name string
	// Abs mutates the abstract model configuration; Prot the concrete
	// protection configuration.
	Abs  func(*absmodel.Config)
	Prot func(*core.Config)
}

// ConformAblations returns the canonical conformance ablation rows, as
// a fresh copy: the proof matrix's single-mechanism rows that the
// time-multiplexed concrete driver can express. The SMT row is
// excluded — the concrete conformance run time-shares one core, so SMT
// co-residency has no concrete counterpart to cross-check against.
func ConformAblations() []ConformAblation { return slices.Clone(conformAblations) }

// conformAblations is the conformance ablation table, built once.
var conformAblations = []ConformAblation{
	{"full protection", func(*absmodel.Config) {}, func(*core.Config) {}},
	{"no flush",
		func(c *absmodel.Config) { c.Flush = false },
		func(c *core.Config) { c.FlushOnSwitch = false }},
	{"no pad",
		func(c *absmodel.Config) { c.Pad = false },
		func(c *core.Config) { c.PadSwitch = false }},
	{"no colour",
		func(c *absmodel.Config) { c.Color = false },
		func(c *core.Config) { c.ColorUserMemory = false }},
	{"shared kernel",
		func(c *absmodel.Config) { c.Clone = false },
		func(c *core.Config) { c.CloneKernel = false }},
	{"no IRQ partition",
		func(c *absmodel.Config) { c.PartitionIRQ = false },
		func(c *core.Config) { c.PartitionIRQs = false }},
}

// conformAblationByName resolves a conformance ablation name.
func conformAblationByName(name string) (ConformAblation, bool) {
	for _, a := range conformAblations {
		if a.Name == name {
			return a, true
		}
	}
	return ConformAblation{}, false
}

func conformAblationNames() []string {
	var out []string
	for _, a := range conformAblations {
		out = append(out, a.Name)
	}
	return out
}

// Conformance-matrix defaults.
const (
	// DefaultConformPairs is the generated program pairs per (model,
	// seed, ablation) point when unset.
	DefaultConformPairs = 8
	// DefaultConformRounds is the concrete transmission rounds per cell
	// when unset.
	DefaultConformRounds = 40
	// DefaultConformFamilies is the sampled time-function families on
	// the abstract side when unset.
	DefaultConformFamilies = 3
)

// ConformanceSpec declares a conformance matrix: which model variants
// and ablation rows to cross-check, over how many generated pairs, at
// which concrete rounds and abstract family counts, under which seeds.
type ConformanceSpec struct {
	// Models selects prover model variants by exact name (the PR 5
	// registry); empty, or the single entry "all", selects every
	// registered variant.
	Models []string
	// Ablations selects conformance ablation rows by exact name;
	// empty, or the single entry "all", selects every canonical row.
	Ablations []string
	// Pairs is the generated program pairs per (model, seed) block
	// (<=0 = DefaultConformPairs).
	Pairs int
	// Rounds is the concrete run's transmission rounds per cell
	// (<=0 = DefaultConformRounds).
	Rounds int
	// Families is the abstract side's sampled function families
	// (<=0 = DefaultConformFamilies).
	Families int
	// Seeds are the base seeds (empty = {DefaultProofSeed}); each seed
	// derives its own independent pair block.
	Seeds []uint64
}

// normalized returns the spec with defaults applied.
func (s ConformanceSpec) normalized() ConformanceSpec {
	if isAll(s.Models) {
		s.Models = nil
		for _, m := range proofModels {
			s.Models = append(s.Models, m.Name)
		}
	}
	if isAll(s.Ablations) {
		s.Ablations = conformAblationNames()
	}
	if s.Pairs <= 0 {
		s.Pairs = DefaultConformPairs
	}
	if s.Rounds <= 0 {
		s.Rounds = DefaultConformRounds
	}
	if s.Families <= 0 {
		s.Families = DefaultConformFamilies
	}
	if len(s.Seeds) == 0 {
		s.Seeds = []uint64{DefaultProofSeed}
	}
	return s
}

// ConformanceCell is one point of the conformance matrix: a generated
// pair cross-checked under one (model, ablation, seed) configuration.
type ConformanceCell struct {
	// Index is the cell's position in the expanded matrix.
	Index int
	// Model and Ablation name the grid point.
	Model, Ablation string
	// Cfg is the resolved (ablated) abstract-model configuration; Prot
	// the matching concrete protection configuration.
	Cfg  absmodel.Config
	Prot core.Config
	// Pair is the pair index within the seed block; PairSeed its
	// derived generation seed. The same (seed, pair) yields the same
	// program pair in every ablation row, so rows are comparable.
	Pair     int
	PairSeed uint64
	// Rounds, Families, and Seed are the cell's sampling point.
	Rounds   int
	Families int
	Seed     uint64
}

// Cells expands the spec into its ordered cell matrix: model-major,
// then seed, then pair, then ablation — every pair's ablation rows are
// contiguous, so reports group naturally.
func (s ConformanceSpec) Cells() ([]ConformanceCell, error) { return s.cells(math.MaxInt) }

// cells is Cells, refusing more than maxCells cells before allocating.
func (s ConformanceSpec) cells(maxCells int) ([]ConformanceCell, error) {
	spec := s.normalized()
	n, err := boundCells("conformance", maxCells, len(spec.Models), len(spec.Seeds), spec.Pairs, len(spec.Ablations))
	if err != nil {
		return nil, err
	}
	cells := make([]ConformanceCell, 0, n)
	for _, mname := range spec.Models {
		model, ok := proofModelByName(strings.TrimSpace(mname))
		if !ok {
			return nil, fmt.Errorf("experiment: unknown conformance model %q (have %s)",
				mname, strings.Join(proofModelNames(), ", "))
		}
		for _, seed := range spec.Seeds {
			for pair := 0; pair < spec.Pairs; pair++ {
				for _, aname := range spec.Ablations {
					abl, ok := conformAblationByName(strings.TrimSpace(aname))
					if !ok {
						return nil, fmt.Errorf("experiment: unknown conformance ablation %q (have %s)",
							aname, strings.Join(conformAblationNames(), ", "))
					}
					cfg := model.Cfg
					abl.Abs(&cfg)
					prot := core.FullProtection()
					abl.Prot(&prot)
					cells = append(cells, ConformanceCell{
						Index:    len(cells),
						Model:    model.Name,
						Ablation: abl.Name,
						Cfg:      cfg,
						Prot:     prot,
						Pair:     pair,
						PairSeed: conform.PairSeed(seed, pair),
						Rounds:   spec.Rounds,
						Families: spec.Families,
						Seed:     seed,
					})
				}
			}
		}
	}
	return cells, nil
}

// ConformanceCellResult is one completed conformance cell: its
// coordinates plus the generated pair, both sides' results, and the
// cross-check verdict.
type ConformanceCellResult struct {
	ConformanceCell
	// Pair is the generated program pair (shadows the embedded pair
	// index under a distinct JSON name).
	ProgramPair conform.Pair
	// Verdict is the cross-check classification.
	Verdict conform.Verdict
	// Abstract is the prover side's result.
	Abstract conform.AbstractVerdict
	// Channels, Best, Leak, and SimOps are the simulator side's result.
	Channels []conform.NamedEstimate
	Best     int
	Leak     bool
	SimOps   uint64
	// Witness is the minimized evidence when Verdict is violation.
	Witness *conform.ViolationWitness `json:",omitempty"`
	// Err records a harness failure (the cell's result is then zero).
	Err string `json:",omitempty"`
}

// ConformanceMatrix is a completed conformance matrix: the spec and
// every cell in matrix order. Like the proof matrix, it is a pure
// function of its spec — worker count and cache state cannot change a
// bit of it.
type ConformanceMatrix struct {
	// Spec is the normalised specification that produced the matrix.
	Spec ConformanceSpec
	// Cells are the results in matrix order. In a sharded run this is
	// the shard's subset, with full-matrix indices.
	Cells []ConformanceCellResult
}

// Violations returns the soundness violations of the matrix — the cells
// a sound abstract model must never produce.
func (m *ConformanceMatrix) Violations() []ConformanceCellResult {
	var out []ConformanceCellResult
	for _, c := range m.Cells {
		if c.Verdict == conform.VerdictViolation {
			out = append(out, c)
		}
	}
	return out
}

// Counts returns the verdict tally (sound, conservative, violation,
// failed).
func (m *ConformanceMatrix) Counts() (sound, conservative, violation, failed int) {
	for _, c := range m.Cells {
		switch {
		case c.Err != "":
			failed++
		case c.Verdict == conform.VerdictSound:
			sound++
		case c.Verdict == conform.VerdictConservative:
			conservative++
		case c.Verdict == conform.VerdictViolation:
			violation++
		}
	}
	return
}

// RunConformance executes a conformance matrix. The result depends only
// on the spec (and, for sharded runs, the shard selection); the store
// only decides which cells re-execute.
func RunConformance(spec ConformanceSpec, opt ConformanceOptions) (*ConformanceMatrix, error) {
	spec = spec.normalized()
	cells, err := spec.Cells()
	if err != nil {
		return nil, err
	}
	results, err := runMatrix(&conformKind, cells, opt)
	if err != nil {
		return nil, err
	}
	return &ConformanceMatrix{Spec: spec, Cells: results}, nil
}

// conformKind is the conformance-cell row of the engine's kind table:
// each cell is its own group.
var conformKind = matrixKind[ConformanceCell, ConformanceCellResult]{
	key: func(c ConformanceCell) (store.Key, bool) { return ConformKey(c), true },
	get: func(st store.MatrixStore, k store.Key, c ConformanceCell) (ConformanceCellResult, bool) {
		cv, ok := st.GetConform(k)
		if !ok {
			return ConformanceCellResult{}, false
		}
		return decodeConformCell(c, cv), true
	},
	exec: runConformCell,
	put: func(st store.MatrixStore, k store.Key, r ConformanceCellResult) error {
		return st.PutConform(k, encodeConformCell(r))
	},
	errOf: func(r ConformanceCellResult) string { return r.Err },
	label: func(c ConformanceCell) string {
		return fmt.Sprintf("conform %s/%s pair=%d seed=%d", c.Model, c.Ablation, c.Pair, c.Seed)
	},
	adopt: func(r ConformanceCellResult, c ConformanceCell) ConformanceCellResult {
		r.ConformanceCell = c
		return r
	},
}

// runConformCell executes one conformance cell on the worker's cell
// context, converting harness panics into per-cell errors.
func runConformCell(cc *attacks.CellContext, c ConformanceCell) (res ConformanceCellResult) {
	res.ConformanceCell = c
	defer func() {
		if p := recover(); p != nil {
			res = ConformanceCellResult{ConformanceCell: c, Err: fmt.Sprint(p)}
		}
	}()
	pair := conform.Generate(c.Cfg, c.PairSeed)
	out := conform.Check(cc, c.Cfg, c.Prot, pair, conform.Opts{
		Families:    c.Families,
		FamilySeed:  c.Seed,
		MeasureSeed: c.PairSeed,
		Params:      conform.DefaultParams(c.Rounds),
	})
	res.ProgramPair = out.Pair
	res.Verdict = out.Verdict
	res.Abstract = out.Abstract
	res.Channels = out.Concrete.Channels
	res.Best = out.Concrete.Best
	res.Leak = out.Concrete.Leak
	res.SimOps = out.Concrete.SimOps
	res.Witness = out.Witness
	return res
}

// floatBits and bitsFloat are the store's exact float round-trip.
func floatBits(f float64) uint64 { return math.Float64bits(f) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }

// channelEstimate reconstructs a stored stream estimate.
func channelEstimate(ch store.ConformChannelV1) channel.Estimate {
	return channel.Estimate{
		CapacityBits: bitsFloat(ch.CapacityBits),
		MIUniform:    bitsFloat(ch.MIUniform),
		FloorBits:    bitsFloat(ch.FloorBits),
		CILow:        bitsFloat(ch.CILow),
		CIHigh:       bitsFloat(ch.CIHigh),
		N:            ch.N,
		Bins:         ch.Bins,
	}
}

// actionInts converts actions to their stored integer encoding.
func actionInts(prog []absmodel.Action) []int {
	var out []int
	for _, a := range prog {
		out = append(out, int(a))
	}
	return out
}

func intActions(xs []int) []absmodel.Action {
	var out []absmodel.Action
	for _, x := range xs {
		out = append(out, absmodel.Action(x))
	}
	return out
}

// encodeConformCell converts a completed cell to its stored form.
func encodeConformCell(r ConformanceCellResult) store.ConformV1 {
	c := store.ConformV1{
		Verdict:         string(r.Verdict),
		HiA:             actionInts(r.ProgramPair.HiA),
		HiB:             actionInts(r.ProgramPair.HiB),
		AbsAccepts:      r.Abstract.Accepts,
		AbsRuns:         r.Abstract.Runs,
		AbsOverruns:     r.Abstract.Overruns,
		AbsDivergeFam:   r.Abstract.DivergeFamily,
		AbsDivergeIndex: r.Abstract.DivergeIndex,
		Best:            r.Best,
		Leak:            r.Leak,
		SimOps:          r.SimOps,
	}
	for _, ch := range r.Channels {
		c.Channels = append(c.Channels, store.ConformChannelV1{
			Name:         ch.Name,
			CapacityBits: floatBits(ch.Est.CapacityBits),
			MIUniform:    floatBits(ch.Est.MIUniform),
			FloorBits:    floatBits(ch.Est.FloorBits),
			CILow:        floatBits(ch.Est.CILow),
			CIHigh:       floatBits(ch.Est.CIHigh),
			N:            ch.Est.N,
			Bins:         ch.Est.Bins,
		})
	}
	if w := r.Witness; w != nil {
		c.Witness = &store.ConformWitnessV1{
			HiA:          actionInts(w.HiA),
			HiB:          actionInts(w.HiB),
			ShrinkEvals:  w.ShrinkEvals,
			Channel:      w.Channel,
			CapacityBits: floatBits(w.CapacityBits),
			FloorBits:    floatBits(w.FloorBits),
			CILow:        floatBits(w.CILow),
			CIHigh:       floatBits(w.CIHigh),
		}
	}
	return c
}

// decodeConformCell reconstructs a cell result from its stored form.
func decodeConformCell(cell ConformanceCell, c store.ConformV1) ConformanceCellResult {
	res := ConformanceCellResult{
		ConformanceCell: cell,
		ProgramPair:     conform.Pair{HiA: intActions(c.HiA), HiB: intActions(c.HiB)},
		Verdict:         conform.Verdict(c.Verdict),
		Abstract: conform.AbstractVerdict{
			Accepts:       c.AbsAccepts,
			Families:      cell.Families,
			Runs:          c.AbsRuns,
			Overruns:      c.AbsOverruns,
			DivergeFamily: c.AbsDivergeFam,
			DivergeIndex:  c.AbsDivergeIndex,
		},
		Best:   c.Best,
		Leak:   c.Leak,
		SimOps: c.SimOps,
	}
	for _, ch := range c.Channels {
		res.Channels = append(res.Channels, conform.NamedEstimate{
			Name: ch.Name,
			Est:  channelEstimate(ch),
		})
	}
	if sw := c.Witness; sw != nil {
		res.Witness = &conform.ViolationWitness{
			HiA:          intActions(sw.HiA),
			HiB:          intActions(sw.HiB),
			ShrinkEvals:  sw.ShrinkEvals,
			Channel:      sw.Channel,
			CapacityBits: bitsFloat(sw.CapacityBits),
			FloorBits:    bitsFloat(sw.FloorBits),
			CILow:        bitsFloat(sw.CILow),
			CIHigh:       bitsFloat(sw.CIHigh),
		}
	}
	return res
}

// WriteConformanceJSON serialises the conformance matrix as indented
// JSON.
func WriteConformanceJSON(w io.Writer, m *ConformanceMatrix) error { return writeIndentedJSON(w, m) }

// WriteConformanceText renders the matrix as an aligned text report for
// the tpconform CLI.
func WriteConformanceText(w io.Writer, m *ConformanceMatrix) error {
	sound, conservative, violation, failed := m.Counts()
	if _, err := fmt.Fprintf(w, "conformance matrix: %d cells — %d sound, %d conservative, %d VIOLATIONS, %d failed\nfingerprint: %s\n\n",
		len(m.Cells), sound, conservative, violation, failed, ConformFingerprint()); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-5s %-14s %-18s %-5s %-8s %-6s %-12s %s\n",
		"idx", "model", "ablation", "pair", "accepts", "leak", "verdict", "best channel"); err != nil {
		return err
	}
	for _, c := range m.Cells {
		if c.Err != "" {
			if _, err := fmt.Fprintf(w, "%-5d %-14s %-18s %-5d FAILED: %s\n",
				c.Index, c.Model, c.Ablation, c.Pair, c.Err); err != nil {
				return err
			}
			continue
		}
		best := ""
		if c.Best >= 0 && c.Best < len(c.Channels) {
			ch := c.Channels[c.Best]
			best = fmt.Sprintf("%s %.4f b/u (floor %.4f)", ch.Name, ch.Est.CapacityBits, ch.Est.FloorBits)
		}
		verdict := string(c.Verdict)
		if c.Verdict == conform.VerdictViolation {
			verdict = "VIOLATION"
		}
		if _, err := fmt.Fprintf(w, "%-5d %-14s %-18s %-5d %-8v %-6v %-12s %s\n",
			c.Index, c.Model, c.Ablation, c.Pair, c.Abstract.Accepts, c.Leak, verdict, best); err != nil {
			return err
		}
	}
	for _, v := range m.Violations() {
		if _, err := fmt.Fprintf(w, "\nVIOLATION cell %d (%s, %s, pair %d): minimal pair %v vs %v leaks via %s (%.4f b/u over floor %.4f)\n",
			v.Index, v.Model, v.Ablation, v.Pair,
			v.Witness.HiA, v.Witness.HiB, v.Witness.Channel, v.Witness.CapacityBits, v.Witness.FloorBits); err != nil {
			return err
		}
	}
	return nil
}
