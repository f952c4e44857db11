package experiment

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"timeprot/internal/attacks"
	"timeprot/internal/experiment/store"
)

// This file is the matrix engine every cell kind runs on. The attack
// sweep (runner.go), the proof matrix (proofs.go), and the conformance
// matrix (conform.go) each describe their cells with one matrixKind;
// runMatrix executes any of them — shard, concurrent store probe,
// worker pool, write-back, progress — and Plan hands the same kind
// table to an external scheduler (the sweep service), so in-process
// runs and served runs key, execute, store, and assemble identically.

// RunOptions tunes a matrix run over cells of type C. Parallelism,
// Store, Progress, and Stats never affect the report's bytes — a warm,
// fully cached run emits output identical to a cold run. Shard
// restricts the run to a subset of the matrix and therefore produces a
// partial report.
type RunOptions[C any] struct {
	// Parallelism is the worker count (<=0 = GOMAXPROCS). Results are
	// identical for any value; only wall-clock time changes.
	Parallelism int
	// Progress, when non-nil, is called after each completed cell with
	// the done count, the matrix size, and the finished cell. Calls
	// are serialised but arrive in completion order (cache hits
	// complete first, in matrix order).
	Progress func(done, total int, c C)
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
}

// Options tunes a sweep run (Run).
type Options = RunOptions[Cell]

// ProofOptions tunes a proof-matrix run (RunProofMatrix).
type ProofOptions = RunOptions[ProofCell]

// ConformanceOptions tunes a conformance run (RunConformance).
type ConformanceOptions = RunOptions[ConformanceCell]

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
	// same counters for a sweep's T1 proof cells (Spec.Proofs), kept
	// apart so -warm-only can assert both matrices independently.
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

// failedPut records one failed write-back.
func (s *CacheStats) failedPut(err error) {
	s.FailedPuts++
	if s.FailedPut == "" {
		s.FailedPut = err.Error()
	}
}

// ShardSel selects one shard of the deterministic partition of a
// matrix, for spreading a large matrix across independent processes or
// machines whose stores are then merged. The zero value disables
// sharding. The partition unit is the kind's finalisation group: for a
// sweep, a contiguous (scenario, base seed, trial) run of variant cells
// — never a bare cell, so cross-row post-processing (e.g. T12's
// slowdown column) always sees its complete group inside one shard;
// proof and conformance cells have no cross-row processing, so each
// cell is its own group. Shards are deterministic functions of the
// spec: the same (Index, Count) always selects the same cells, shards
// are disjoint, and their union over Index 0..Count-1 is the full
// matrix. When a sweep spec requests the T1 proof matrix, only shard 0
// computes it.
type ShardSel struct {
	// Index is the shard to run, in [0, Count).
	Index int
	// Count is the total number of shards; <= 0 disables sharding.
	Count int
}

// carriesProofs reports whether this shard of a sweep computes the
// spec's T1 proof matrix (recomputing it per shard would duplicate
// identical work Count times).
func (sh ShardSel) carriesProofs() bool { return sh.Count <= 1 || sh.Index == 0 }

// matrixKind is the per-kind table the engine runs: how a cell of type
// C is keyed, served from the store, executed into a result of type R,
// written back, and grouped.
type matrixKind[C, R any] struct {
	// key derives a cell's store key; false means the cell does not
	// resolve (it fails when executed and is never cached).
	key func(c C) (store.Key, bool)
	// get reads the entry stored under k and decodes it into c's
	// result; every failure mode is a miss.
	get func(st store.MatrixStore, k store.Key, c C) (R, bool)
	// exec executes one cell on the worker's reusable context. A panic
	// becomes the result's error, never the run's.
	exec func(cc *attacks.CellContext, c C) R
	// put encodes a completed result and writes it under k.
	put func(st store.MatrixStore, k store.Key, r R) error
	// errOf is a result's failure ("" = success); failed results are
	// never cached.
	errOf func(r R) string
	// sameGroup reports whether two adjacent cells share a
	// finalisation group; nil makes every cell its own group.
	sameGroup func(a, b C) bool
	// label names a cell in the service's job event stream.
	label func(c C) string
	// adopt re-addresses r, a joined flight's result for another cell
	// under the same key, to c, sharing no memory assembly writes.
	adopt func(r R, c C) R
}

// cellGroup is one contiguous run of cells in the same group.
type cellGroup struct {
	start, end int // half-open range into the cell slice
}

// groupBounds splits cells into their contiguous groups under
// sameGroup (nil = one group per cell), preserving matrix order. It is
// the single group scan: sharding, the service's work units, sweep
// finalisation, and the sweep reporters all split on it.
func groupBounds[C any](cells []C, sameGroup func(a, b C) bool) []cellGroup {
	var out []cellGroup
	for start := 0; start < len(cells); {
		end := start + 1
		for sameGroup != nil && end < len(cells) && sameGroup(cells[end], cells[start]) {
			end++
		}
		out = append(out, cellGroup{start, end})
		start = end
	}
	return out
}

// shard returns the cells of one shard — every Count-th group starting
// at group Index — preserving full-matrix cell indices (a sharded
// report's cells keep their canonical coordinates, which is what lets
// shard outputs merge).
func shard[C any](cells []C, sh ShardSel, sameGroup func(a, b C) bool) ([]C, error) {
	if sh.Count <= 0 {
		return cells, nil
	}
	if sh.Index < 0 || sh.Index >= sh.Count {
		return nil, fmt.Errorf("experiment: shard index %d out of range [0,%d)", sh.Index, sh.Count)
	}
	var out []C
	for i, g := range groupBounds(cells, sameGroup) {
		if i%sh.Count == sh.Index {
			out = append(out, cells[g.start:g.end]...)
		}
	}
	return out, nil
}

// runMatrix executes one shard of a cell matrix and returns its results
// in matrix order, and its cache statistics in opt.Stats. The results
// depend only on the cells: worker count, store state, and scheduling
// decide only which cells re-execute.
func runMatrix[C, R any](k *matrixKind[C, R], cells []C, opt RunOptions[C]) ([]R, error) {
	cells, err := shard(cells, opt.Shard, k.sameGroup)
	if err != nil {
		return nil, err
	}
	stats := CacheStats{Total: len(cells)}
	results := make([]R, len(cells))
	keys := make([]store.Key, len(cells))
	keyOK := make([]bool, len(cells))

	par := opt.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}

	// Probe the store concurrently — a warm run over a huge matrix is
	// bounded by these reads, not by execution — then report the hits
	// in matrix order so Progress and pending stay deterministic.
	hit := make([]bool, len(cells))
	if opt.Store != nil {
		probe := make(chan int)
		var pwg sync.WaitGroup
		for w := 0; w < par; w++ {
			pwg.Add(1)
			go func() {
				defer pwg.Done()
				for i := range probe {
					if keys[i], keyOK[i] = k.key(cells[i]); keyOK[i] {
						results[i], hit[i] = k.get(opt.Store, keys[i], cells[i])
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
		if !hit[i] {
			pending = append(pending, i)
			continue
		}
		stats.Hits++
		done++
		if opt.Progress != nil {
			opt.Progress(done, len(cells), c)
		}
	}
	stats.Executed = len(pending)

	jobs := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for w := 0; w < min(par, len(pending)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker owns one reusable cell context: machines,
			// logs, and scratch are recycled across its cells. Contexts
			// are never shared, so results stay deterministic and
			// bit-identical to execution on a fresh context.
			cc := attacks.NewCellContext()
			for i := range jobs {
				results[i] = k.exec(cc, cells[i])
				// Write back before Progress: the store holds the pure
				// per-cell result (cross-row metrics are recomputed at
				// report time). A failed write degrades to a
				// re-executable miss — it never fails the run, which
				// has the result in hand.
				var putErr error
				stored := false
				if opt.Store != nil && keyOK[i] && k.errOf(results[i]) == "" {
					putErr = k.put(opt.Store, keys[i], results[i])
					stored = putErr == nil
				}
				mu.Lock()
				if putErr != nil {
					stats.failedPut(putErr)
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
	for _, i := range pending {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if opt.Stats != nil {
		*opt.Stats = stats
	}
	return results, nil
}

// Plan is one shard of a matrix planned for a scheduler that runs cells
// itself, across jobs (the sweep service): its units, each bound to a
// result slot. Once the scheduler has resolved every unit, WriteReport
// assembles the report from the slots with the in-process runner's own
// code, so the bytes are the runner's for the same spec and shard.
type Plan struct {
	// Groups are the units by finalisation group: the only safe
	// work-stealing granule for a scheduler, since cross-row
	// post-processing needs a group's every row.
	Groups [][]Unit
	// report assembles the report JSON from the resolved slots.
	report func(w io.Writer) error
}

// WriteReport writes the report JSON once every unit has resolved.
// Assembly finalises the slots in place, so it runs once per plan.
func (p *Plan) WriteReport(w io.Writer) error { return p.report(w) }

// Unit is one cell of a Plan, bound to its result slot. It uses the
// same key, store codec, and executor the matrix runners use, so a cell
// a scheduler stores is exactly the entry a runner would store.
type Unit interface {
	// Key is the cell's content-addressed store key.
	Key() store.Key
	// Label names the cell in a job's event stream.
	Label() string
	// Load reads the cell's entry from st into the slot; false is a
	// miss, and leaves the slot to Execute.
	Load(st store.MatrixStore) bool
	// Execute runs the cell on cc into the slot and writes a successful
	// result to st. err is the cell's own failure (its row fills the
	// slot but is not stored); putErr is a failed write-back.
	Execute(cc *attacks.CellContext, st store.MatrixStore) (putErr, err error)
	// Result copies the resolved slot for the units joining its flight.
	Result() any
	// Join fills the slot from r, the Result of a unit with its key.
	Join(r any)
}

// slot is a Unit of kind C/R: a planned cell and its result, held in
// the plan's cell and result slices.
type slot[C, R any] struct {
	k   *matrixKind[C, R]
	key store.Key
	c   *C
	r   *R
}

func (s *slot[C, R]) Key() store.Key { return s.key }
func (s *slot[C, R]) Label() string  { return s.k.label(*s.c) }
func (s *slot[C, R]) Result() any    { return *s.r }
func (s *slot[C, R]) Join(r any)     { *s.r = s.k.adopt(r.(R), *s.c) }

func (s *slot[C, R]) Load(st store.MatrixStore) (hit bool) {
	*s.r, hit = s.k.get(st, s.key, *s.c)
	return hit
}

func (s *slot[C, R]) Execute(cc *attacks.CellContext, st store.MatrixStore) (putErr, err error) {
	*s.r = s.k.exec(cc, *s.c)
	if msg := s.k.errOf(*s.r); msg != "" {
		return nil, fmt.Errorf("experiment: %s: %s", s.Label(), msg)
	}
	return s.k.put(st, s.key, *s.r), nil
}

// plan shards cells and binds each to a slot of the returned results,
// grouped by finalisation group.
func (k *matrixKind[C, R]) plan(cells []C, sh ShardSel) ([]R, [][]Unit, error) {
	cells, err := shard(cells, sh, k.sameGroup)
	if err != nil {
		return nil, nil, err
	}
	results := make([]R, len(cells))
	slots := make([]slot[C, R], len(cells))
	var groups [][]Unit
	for _, g := range groupBounds(cells, k.sameGroup) {
		units := make([]Unit, 0, g.end-g.start)
		for i := g.start; i < g.end; i++ {
			key, ok := k.key(cells[i])
			if !ok {
				return nil, nil, fmt.Errorf("cell %s does not resolve against the registry", k.label(cells[i]))
			}
			slots[i] = slot[C, R]{k: k, key: key, c: &cells[i], r: &results[i]}
			units = append(units, &slots[i])
		}
		groups = append(groups, units)
	}
	return results, groups, nil
}

// PlanSweep plans one shard of a sweep — its attack cells, then one
// group per T1 proof cell when the spec requests proofs and the shard
// carries them: Run's exact cells and report under the same shard. An
// attack matrix of more than MaxPlanCells cells is refused before it is
// expanded; the T1 matrix is a fixed handful of cells.
func PlanSweep(s Spec, sh ShardSel) (*Plan, error) {
	s = s.normalized()
	cells, err := s.cells(MaxPlanCells)
	if err != nil {
		return nil, err
	}
	results, groups, err := sweepKind.plan(cells, sh)
	if err != nil {
		return nil, err
	}
	var proofs []ProofCellResult
	if s.Proofs && sh.carriesProofs() {
		pcells, err := SweepProofSpec(s).Cells()
		if err != nil {
			return nil, err
		}
		var pgroups [][]Unit
		if proofs, pgroups, err = proofKind.plan(pcells, ShardSel{}); err != nil {
			return nil, err
		}
		groups = append(groups, pgroups...)
	}
	return &Plan{Groups: groups, report: func(w io.Writer) error {
		return WriteJSON(w, sweepReport(s, results, proofs))
	}}, nil
}

// PlanProofs plans one shard of a proof matrix: RunProofMatrix's exact
// cells and report under the same shard, bounded like PlanSweep.
func PlanProofs(s ProofSpec, sh ShardSel) (*Plan, error) {
	s = s.normalized()
	cells, err := s.cells(MaxPlanCells)
	if err != nil {
		return nil, err
	}
	results, groups, err := proofKind.plan(cells, sh)
	if err != nil {
		return nil, err
	}
	return &Plan{Groups: groups, report: func(w io.Writer) error {
		return WriteProofsJSON(w, &ProofMatrix{Spec: s, Cells: results})
	}}, nil
}

// PlanConformance plans one shard of a conformance matrix:
// RunConformance's exact cells and report, bounded like PlanSweep.
func PlanConformance(s ConformanceSpec, sh ShardSel) (*Plan, error) {
	s = s.normalized()
	cells, err := s.cells(MaxPlanCells)
	if err != nil {
		return nil, err
	}
	results, groups, err := conformKind.plan(cells, sh)
	if err != nil {
		return nil, err
	}
	return &Plan{Groups: groups, report: func(w io.Writer) error {
		return WriteConformanceJSON(w, &ConformanceMatrix{Spec: s, Cells: results})
	}}, nil
}
