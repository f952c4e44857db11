package experiment

import (
	"fmt"
	"math"
	"slices"

	"timeprot/internal/attacks"
	"timeprot/internal/core"
	"timeprot/internal/experiment/store"
	"timeprot/internal/hw/platform"
)

// CellResult is one completed cell: its coordinates plus the flattened
// measurement. Float fields that can be NaN (a scenario without a
// decoder has no error rate) are pointers so the struct serialises to
// valid JSON.
type CellResult struct {
	Cell
	// CapacityBits, FloorBits, and MIUniform summarise the channel
	// estimate; Leaks is the capacity-above-floor verdict.
	CapacityBits float64
	FloorBits    float64
	MIUniform    float64
	// CILow and CIHigh bound the 95% bootstrap confidence interval on
	// CapacityBits — the adaptive sampler's convergence measure.
	CILow, CIHigh float64
	// EffRounds is the effective rounds behind the estimate (the
	// converged adaptive rung, or the fixed rounds). RoundsRun is the
	// total rounds simulated to get there, summed over adaptive rungs.
	EffRounds, RoundsRun int
	// N and Bins describe the estimate's sample set.
	N, Bins int
	// SimOps is the number of simulated thread operations the cell
	// executed — with wall-clock time (which the report deliberately
	// omits, to stay a pure function of the spec) it gives the sweep's
	// throughput. tpbench prints the aggregate ops/sec.
	SimOps uint64
	// ErrRate is the spy's decode error rate; nil when the scenario
	// has no decoder.
	ErrRate *float64 `json:",omitempty"`
	// Leaks reports whether the cell demonstrates a channel.
	Leaks bool
	// Extra carries scenario-specific metrics in insertion order.
	Extra []attacks.KV `json:",omitempty"`
	// Err records a runner failure (the cell's row is then zero).
	Err string `json:",omitempty"`

	// row is the raw measurement, kept for text rendering and
	// cross-row post-processing.
	row attacks.Row
}

// Row returns the raw measured row.
func (c CellResult) Row() attacks.Row { return c.row }

// fillFromRow flattens a measured row into the result's JSON fields.
func (c *CellResult) fillFromRow(row attacks.Row) {
	c.row = row
	c.CapacityBits = row.Est.CapacityBits
	c.FloorBits = row.Est.FloorBits
	c.MIUniform = row.Est.MIUniform
	c.CILow = row.Est.CILow
	c.CIHigh = row.Est.CIHigh
	c.EffRounds = row.Rounds
	c.RoundsRun = row.RoundsRun
	c.N = row.Est.N
	c.Bins = row.Est.Bins
	c.SimOps = row.SimOps
	c.Leaks = row.Leaks()
	c.ErrRate = nil
	if !math.IsNaN(row.ErrRate) {
		v := row.ErrRate
		c.ErrRate = &v
	}
	c.Extra = nil
	for _, kv := range row.Extra {
		if math.IsNaN(kv.V) || math.IsInf(kv.V, 0) {
			continue // keep the JSON encodable
		}
		c.Extra = append(c.Extra, kv)
	}
}

// Report is a completed sweep: the spec, every cell in matrix order,
// and optionally the proof matrix and the aISA contract.
type Report struct {
	// Spec is the normalised specification that produced the report.
	Spec Spec
	// Cells are the results in matrix order (independent of worker
	// scheduling). In a sharded run this is the shard's subset, with
	// full-matrix indices.
	Cells []CellResult
	// Proofs is the T1 proof-ablation matrix when Spec.Proofs is set.
	Proofs []ProofResult `json:",omitempty"`
	// Contract is the aISA contract check for full protection on the
	// default platform.
	Contract core.ContractReport
}

// TotalSimOps sums the simulated thread operations over every cell —
// the numerator of the sweep's throughput. Cache-served cells report
// the ops of the run that originally produced them.
func (r *Report) TotalSimOps() uint64 {
	var total uint64
	for _, c := range r.Cells {
		total += c.SimOps
	}
	return total
}

// TotalRounds sums the rounds the sweep actually simulated (RoundsRun,
// including discarded adaptive rungs) and the rounds the same matrix
// would simulate under the fixed policy — the adaptive sampler's
// savings. Failed cells count as their fixed rounds on both sides.
func (r *Report) TotalRounds() (run, fixed int) {
	for _, c := range r.Cells {
		fixed += c.Cell.Rounds
		if c.Err != "" || c.RoundsRun == 0 {
			run += c.Cell.Rounds
			continue
		}
		run += c.RoundsRun
	}
	return run, fixed
}

// Run executes the sweep. The report depends only on the spec (and, for
// sharded runs, the shard selection): worker count, cache state, and
// scheduling cannot change a single bit of it.
func Run(spec Spec, opt Options) (*Report, error) {
	spec = spec.normalized()
	cells, err := spec.Cells()
	if err != nil {
		return nil, err
	}
	results, err := runMatrix(&sweepKind, cells, opt)
	if err != nil {
		return nil, err
	}
	// Proof cells ARE content-keyed, so the run's store serves and
	// receives them like attack cells — a warm sweep executes zero
	// proofs too. The proof matrix keeps the full parallelism even when
	// the cell pool had little or nothing to execute (a warm run).
	var proofs []ProofCellResult
	if spec.Proofs && opt.Shard.carriesProofs() {
		var pstats CacheStats
		pm, err := RunProofMatrix(SweepProofSpec(spec),
			ProofOptions{Parallelism: opt.Parallelism, Store: opt.Store, Stats: &pstats})
		if err != nil {
			return nil, err
		}
		proofs = pm.Cells
		if st := opt.Stats; st != nil {
			st.ProofTotal = pstats.Total
			st.ProofHits = pstats.Hits
			st.ProofExecuted = pstats.Executed
			st.ProofStored = pstats.Stored
			st.FailedPuts += pstats.FailedPuts
			if st.FailedPut == "" {
				st.FailedPut = pstats.FailedPut
			}
		}
	}
	return sweepReport(spec, results, proofs), nil
}

// sweepReport assembles a sweep report from its cells' results in
// matrix order and, when the run carries them, its T1 proof cells'. It
// is the one assembly behind Run and a served sweep's Plan.
func sweepReport(spec Spec, cells []CellResult, proofs []ProofCellResult) *Report {
	finalizeGroups(cells)
	rep := &Report{Spec: spec, Cells: cells, Contract: defaultContract()}
	if proofs != nil {
		rep.Proofs = legacyProofResults(proofs)
	}
	return rep
}

// sweepKind is the attack-cell row of the engine's kind table. The
// store holds the pure per-cell measurement; cross-row metrics are
// recomputed (deterministically) by finalizeGroups at report time.
var sweepKind = matrixKind[Cell, CellResult]{
	key: CellKey,
	get: func(st store.MatrixStore, k store.Key, c Cell) (CellResult, bool) {
		row, ok := st.Get(k)
		res := CellResult{Cell: c}
		if ok {
			res.fillFromRow(row)
		}
		return res, ok
	},
	exec:      runCell,
	put:       func(st store.MatrixStore, k store.Key, r CellResult) error { return st.Put(k, r.row) },
	errOf:     func(r CellResult) string { return r.Err },
	sameGroup: sameGroup,
	label: func(c Cell) string {
		return fmt.Sprintf("%s/%s seed=%d", c.ScenarioID, c.Variant, c.Seed)
	},
	adopt: func(r CellResult, c Cell) CellResult {
		// finalizeGroups appends to a row's Extra (T12's slowdown): clip
		// it so that append copies instead of writing the owner's array.
		r.Cell, r.row.Extra = c, slices.Clip(r.row.Extra)
		return r
	},
}

// runCell executes one cell on the worker's reusable context,
// converting runner panics into per-cell errors so a bad scenario
// cannot take down the sweep. A panicked cell leaves cc safe to reuse:
// RunIn releases its machines on the way out, and the next run rewinds
// every scratch buffer before touching it.
func runCell(cc *attacks.CellContext, c Cell) (res CellResult) {
	res.Cell = c
	defer func() {
		if p := recover(); p != nil {
			res = CellResult{Cell: c, Err: fmt.Sprint(p)}
		}
	}()
	s, ok := attacks.ScenarioByID(c.ScenarioID)
	if !ok {
		res.Err = fmt.Sprintf("scenario %q not registered", c.ScenarioID)
		return res
	}
	v, ok := s.VariantByLabel(c.Variant)
	if !ok {
		res.Err = fmt.Sprintf("variant %q not in scenario %s", c.Variant, s.ID)
		return res
	}
	res.fillFromRow(runVariant(s, v, c, cc))
	return res
}

// finalizeGroups applies each scenario's cross-row post-processing
// (e.g. T12's slowdown-vs-baseline column) to every contiguous
// (scenario, seed) group of rows, in canonical variant order. Groups
// containing a failed cell are left untouched.
func finalizeGroups(results []CellResult) {
	for _, g := range cellGroups(results) {
		group := results[g.start:g.end]
		s, ok := attacks.ScenarioByID(group[0].ScenarioID)
		if ok {
			failed := false
			rows := make([]attacks.Row, len(group))
			for i, r := range group {
				if r.Err != "" {
					failed = true
					break
				}
				rows[i] = r.row
			}
			if !failed {
				rows = s.Finalize(rows)
				for i := range group {
					group[i].fillFromRow(rows[i])
				}
			}
		}
	}
}

// defaultContract checks the aISA for full protection on the default
// platform, mirroring the top-level CheckContract helper.
func defaultContract() core.ContractReport {
	p := platform.DefaultConfig()
	colors := p.LLCSets * 64 / 4096 // sets * line / page
	if colors < 1 {
		colors = 1
	}
	return core.CheckContract(core.FullProtection(), colors, p.SMTWays)
}

// firstSeed returns the sweep's first base seed, which also seeds the
// prover so one -seed flag controls the whole run.
func firstSeed(spec Spec) uint64 {
	if len(spec.Seeds) > 0 {
		return spec.Seeds[0]
	}
	return 42
}
