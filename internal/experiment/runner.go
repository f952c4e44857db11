package experiment

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"timeprot/internal/attacks"
	"timeprot/internal/core"
	"timeprot/internal/experiment/store"
	"timeprot/internal/hw/platform"
)

// Options tunes a sweep run. Parallelism, Store, Progress, and Stats
// never affect the report's bytes — a warm, fully cached run emits
// output identical to a cold run. Shard restricts the run to a subset
// of the matrix and therefore produces a partial report.
type Options struct {
	// Parallelism is the worker count (<=0 = GOMAXPROCS). Results are
	// identical for any value; only wall-clock time changes.
	Parallelism int
	// Progress, when non-nil, is called after each completed cell with
	// the done count, the matrix size, and the finished cell. Calls
	// are serialised but arrive in completion order (cache hits
	// complete first, in matrix order).
	Progress func(done, total int, c Cell)
	// Store, when non-nil, is the content-addressed result store the
	// run consults before executing anything: cells whose key is
	// present are served from it, only the missing cells execute, and
	// fresh non-failed results are written back. Failed cells (Err set)
	// are never cached.
	Store store.CellStore
	// Shard restricts the run to one shard of the matrix's
	// deterministic partition; the zero value runs the whole matrix.
	// See ShardSel.
	Shard ShardSel
	// Stats, when non-nil, receives the run's cache statistics. The
	// stats are an out-of-band channel precisely so that they never
	// appear in the report (whose bytes must not depend on cache
	// state).
	Stats *CacheStats
	// Context, when non-nil, scopes the run to a job: once it is
	// cancelled no further cells are dispatched, in-flight cells finish
	// (and their results are written back, so no completed work is
	// lost), and Run returns the context's error instead of a report.
	Context context.Context
}

// cancelled reports whether an optional job context has been cancelled.
func cancelled(ctx context.Context) bool {
	return ctx != nil && ctx.Err() != nil
}

// ctxDone returns the context's done channel, or nil (blocks forever in
// a select) when no context was given.
func ctxDone(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// CacheStats summarises how a run interacted with its store.
type CacheStats struct {
	// Total is the number of cells in this run's (possibly sharded)
	// matrix.
	Total int
	// Hits is how many cells were served from the store.
	Hits int
	// Executed is how many cells actually ran.
	Executed int
	// Stored is how many fresh results were written back to the store.
	Stored int
	// ProofTotal, ProofHits, ProofExecuted, and ProofStored are the
	// same counters for the run's proof cells (a sweep with
	// Spec.Proofs, or a RunProofMatrix call). Proof cells are counted
	// separately so -warm-only can assert both matrices independently.
	ProofTotal    int
	ProofHits     int
	ProofExecuted int
	ProofStored   int
	// FailedPuts counts write-backs that failed (e.g. a full disk).
	// A store write failure never fails the run — the report does not
	// need the store — but the affected cells will re-execute next
	// time; FailedPut holds the first error for diagnostics.
	FailedPuts int
	FailedPut  string
}

// ShardSel selects one shard of the deterministic partition of a sweep
// matrix, for spreading a large matrix across independent processes or
// machines whose stores are then merged. The zero value disables
// sharding. The partition unit is the finalisation group — a contiguous
// (scenario, base seed, trial) run of variant cells — never a bare
// cell, so cross-row post-processing (e.g. T12's slowdown column)
// always sees its complete group inside one shard. Shards are
// deterministic functions of the spec: the same (Index, Count) always
// selects the same cells, shards are disjoint, and their union over
// Index 0..Count-1 is the full matrix. When the spec requests the T1
// proof matrix, only shard 0 computes it.
type ShardSel struct {
	// Index is the shard to run, in [0, Count).
	Index int
	// Count is the total number of shards; <= 0 disables sharding.
	Count int
}

// shardCells returns the cells of one shard, preserving full-matrix
// cell indices (a sharded report's cells keep their canonical
// coordinates, which is what lets shard outputs merge).
func shardCells(cells []Cell, sh ShardSel) ([]Cell, error) {
	if sh.Count <= 0 {
		return cells, nil
	}
	if sh.Index < 0 || sh.Index >= sh.Count {
		return nil, fmt.Errorf("experiment: shard index %d out of range [0,%d)", sh.Index, sh.Count)
	}
	var out []Cell
	group := -1
	for i, c := range cells {
		if i == 0 || !sameGroup(c, cells[i-1]) {
			group++
		}
		if group%sh.Count == sh.Index {
			out = append(out, c)
		}
	}
	return out, nil
}

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
	cells, err = shardCells(cells, opt.Shard)
	if err != nil {
		return nil, err
	}

	stats := CacheStats{Total: len(cells)}
	results := make([]CellResult, len(cells))
	keys := make([]store.Key, len(cells))
	keyOK := make([]bool, len(cells))

	par := opt.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	// The proof matrix keeps the full parallelism even when the cell
	// pool has little or nothing to execute (a warm run).
	proofPar := par

	// Probe the store concurrently — a warm run over a huge matrix is
	// bounded by these reads, not by execution — then fill the hits in
	// matrix order so Progress and pending stay deterministic.
	hitRows := make([]*attacks.Row, len(cells))
	if opt.Store != nil {
		probe := make(chan int)
		var pwg sync.WaitGroup
		for w := 0; w < par; w++ {
			pwg.Add(1)
			go func() {
				defer pwg.Done()
				for i := range probe {
					keys[i], keyOK[i] = cellKey(cells[i])
					if keyOK[i] {
						if row, ok := opt.Store.Get(keys[i]); ok {
							r := row
							hitRows[i] = &r
						}
					}
				}
			}()
		}
		for i := range cells {
			probe <- i
		}
		close(probe)
		pwg.Wait()
	}

	done := 0
	var pending []int
	for i, c := range cells {
		if hitRows[i] != nil {
			results[i].Cell = c
			results[i].fillFromRow(*hitRows[i])
			stats.Hits++
			done++
			if opt.Progress != nil {
				opt.Progress(done, len(cells), c)
			}
			continue
		}
		pending = append(pending, i)
	}
	stats.Executed = len(pending)

	if par > len(pending) {
		par = len(pending)
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker owns one reusable cell context: machines,
			// logs, and scratch are recycled across its cells. Contexts
			// are never shared, so results stay deterministic and
			// bit-identical to execution on a fresh context.
			cc := attacks.NewCellContext()
			for i := range jobs {
				results[i] = runCell(cc, cells[i])
				// Write back before finalisation: the store holds the
				// pure per-cell measurement; cross-row metrics are
				// recomputed (deterministically) at report time. A
				// failed write degrades to a re-executable miss — it
				// never fails the run, which has the result in hand.
				var stored bool
				var err error
				if opt.Store != nil && keyOK[i] && results[i].Err == "" {
					err = opt.Store.Put(keys[i], results[i].row)
					stored = err == nil
				}
				mu.Lock()
				if err != nil {
					stats.FailedPuts++
					if stats.FailedPut == "" {
						stats.FailedPut = err.Error()
					}
				}
				if stored {
					stats.Stored++
				}
				done++
				if opt.Progress != nil {
					opt.Progress(done, len(cells), cells[i])
				}
				mu.Unlock()
			}
		}()
	}
feed:
	for _, i := range pending {
		select {
		case jobs <- i:
		case <-ctxDone(opt.Context):
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if cancelled(opt.Context) {
		return nil, opt.Context.Err()
	}

	finalizeGroups(results)

	rep := &Report{
		Spec:     spec,
		Cells:    results,
		Contract: defaultContract(),
	}
	// In a sharded run only shard 0 carries the proof matrix (shards
	// partition the attack matrix; recomputing proofs per shard would
	// duplicate identical work Count times). Proof cells ARE
	// content-keyed, so the run's store serves and receives them like
	// attack cells — a warm sweep executes zero proofs too.
	if spec.Proofs && (opt.Shard.Count <= 1 || opt.Shard.Index == 0) {
		var pstats CacheStats
		pm, err := RunProofMatrix(
			sweepProofSpec(spec.ProofFamilies, spec.ProofRandom, firstSeed(spec)),
			ProofOptions{Parallelism: proofPar, Store: opt.Store, Stats: &pstats, Context: opt.Context})
		if err != nil {
			return nil, err
		}
		rep.Proofs = legacyProofResults(pm)
		stats.ProofTotal = pstats.Total
		stats.ProofHits = pstats.Hits
		stats.ProofExecuted = pstats.Executed
		stats.ProofStored = pstats.Stored
		stats.FailedPuts += pstats.FailedPuts
		if stats.FailedPut == "" {
			stats.FailedPut = pstats.FailedPut
		}
	}
	if opt.Stats != nil {
		*opt.Stats = stats
	}
	return rep, nil
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
