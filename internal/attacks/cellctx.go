package attacks

import (
	"fmt"

	"timeprot/internal/channel"
	"timeprot/internal/hw/platform"
	"timeprot/internal/kernel"
	"timeprot/internal/rng"
	"timeprot/internal/trace"
)

// CellContext is a per-worker arena for the attack-cell hot path: one
// experiment worker runs thousands of (scenario, variant, seed) cells,
// and without reuse every cell rebuilds its hardware machine, symbol and
// observation logs, probe-order permutations, labelling buffers, and
// sample sets from scratch. A CellContext pools the machine construction
// (platform.Pool) and recycles all the harness scratch, so a warm
// worker's marginal allocations per cell collapse to the bounded
// per-cell kernel state (domains, page tables, threads).
//
// Every cell runs on a CellContext; a fresh run is a run on
// NewCellContext(). Correctness contract: a run on a reused context is
// bit-identical to a run on a fresh one. Every reusable buffer is
// rewound at the start of a run (BeginRun) and fully overwritten before
// use, pooled machines are healed to the freshly constructed state by
// Machine.Reset on acquisition, and PermInto consumes exactly Perm's
// random stream — so pooling never appears in any fingerprint, and the
// golden sweep/proof/conformance stores gate the equivalence.
//
// A CellContext is NOT safe for concurrent use; the experiment engine
// creates one per worker goroutine.
type CellContext struct {
	pool *platform.Pool

	syms SymLog
	obs  ObsLog

	labels []int
	vals   []float64

	arena intArena

	colors map[int]bool
	samp   *channel.Samples
	est    channel.Estimator
	tlog   *trace.Log
}

// NewCellContext returns an empty context ready for reuse across cells.
func NewCellContext() *CellContext {
	return &CellContext{
		pool:   platform.NewPool(),
		colors: make(map[int]bool),
		samp:   channel.NewSamples(),
		tlog:   trace.NewLog(),
	}
}

// BeginRun rewinds every reusable buffer for the next run.
func (cc *CellContext) BeginRun() {
	cc.arena.reset()
	cc.syms.commits = cc.syms.commits[:0]
	cc.obs.obs = cc.obs.obs[:0]
	cc.labels = cc.labels[:0]
	cc.vals = cc.vals[:0]
}

// EndRun returns pooled machines for reuse. Defer it from the function
// that called BeginRun (Variant.RunIn does), so a panicking run still
// releases its machine, which Machine.Reset heals on the next
// acquisition.
func (cc *CellContext) EndRun() { cc.pool.ReleaseAll() }

// Pool returns the context's machine pool for kernel.SystemConfig.Pool,
// so external harnesses (the conformance driver, the discovery fuzzer)
// ride the same arena with the same contract: BeginRun, execute, EndRun
// — results bit-identical to a run on a fresh context.
func (cc *CellContext) Pool() *platform.Pool { return cc.pool }

// intArena is a bump allocator for []int scratch on the cell path
// (symbol sequences, shuffled probe orders, decode buffers). take carves
// capacity-capped slices out of one slab; reset rewinds the slab for the
// next run. When a run outgrows the slab a bigger one replaces it — the
// old slab stays valid for the slices already handed out — so the
// steady state allocates nothing.
type intArena struct {
	slab []int
	off  int
}

func (a *intArena) reset() { a.off = 0 }

// take returns a length-n slice of UNSPECIFIED contents; callers must
// fully overwrite it. The capacity is capped at n so an append can never
// silently alias a neighbouring allocation.
func (a *intArena) take(n int) []int {
	if a.off+n > len(a.slab) {
		size := 2 * (a.off + n)
		if size < 1024 {
			size = 1024
		}
		a.slab = make([]int, size)
		a.off = 0
	}
	s := a.slab[a.off : a.off+n : a.off+n]
	a.off += n
	return s
}

// The helpers below are the allocation sites of the shared harness,
// served from the context's reusable buffers.

// ints returns a length-n []int scratch slice of unspecified contents.
func (cc *CellContext) ints(n int) []int { return cc.arena.take(n) }

// symbolSeq is SymbolSeq on context scratch: a deterministic
// pseudo-random symbol sequence over an alphabet of size arity.
func (cc *CellContext) symbolSeq(n, arity int, seed uint64) []int {
	r := rng.New(seed)
	out := cc.ints(n)
	for i := range out {
		out[i] = r.Intn(arity)
	}
	return out
}

// perm returns a pseudo-random permutation of [0, n) on context scratch,
// consuming exactly the stream rng.Perm consumes.
func (cc *CellContext) perm(r *rng.RNG, n int) []int {
	return r.PermInto(cc.ints(n))
}

// shuffledOffsets returns the line offsets {0, step, 2*step, ...} <
// lines in a deterministic shuffled order on context scratch, so that
// probing them defeats the stride prefetcher.
func (cc *CellContext) shuffledOffsets(lines, step int, seed uint64) []int {
	r := rng.New(seed)
	n := (lines + step - 1) / step
	perm := r.PermInto(cc.ints(n))
	out := cc.ints(n)
	for i, p := range perm {
		out[i] = p * step
	}
	return out
}

// decodedRow turns the run's logs into the row of a scenario whose spy
// decodes a symbol per observation: the observations are labelled
// (dropping the first warmup), the decoded symbols land in arena
// scratch, and the row carries the pairwise capacity estimate and the
// decode error rate.
func (cc *CellContext) decodedRow(label string, ops uint64, warmup int, seed uint64) Row {
	labels, vals := cc.label(warmup)
	decoded := cc.ints(len(vals))
	for i, v := range vals {
		decoded[i] = int(v)
	}
	est, err := cc.est.EstimatePairs(labels, decoded, seed)
	if err != nil {
		panic(fmt.Sprintf("attacks: %s: %v", label, err))
	}
	return Row{Label: label, Est: est, ErrRate: channel.ErrorRate(labels, decoded), SimOps: ops}
}

// scalarRow turns the run's logs into the row of a scenario whose spy
// records a raw timing per observation: the observations are labelled
// (dropping the first warmup) and binned into a capacity estimate; the
// row has no decoder, so its error rate is NaN.
func (cc *CellContext) scalarRow(label string, ops uint64, warmup, bins int, seed uint64) Row {
	labels, vals := cc.label(warmup)
	est, err := cc.estimateLabelled(labels, vals, bins, seed)
	if err != nil {
		panic(err)
	}
	return Row{Label: label, Est: est, ErrRate: nan(), SimOps: ops}
}

// estimateScalar is channel.EstimateScalar on the context's reusable
// estimator scratch.
func (cc *CellContext) estimateScalar(s *channel.Samples, bins int, seed uint64) (channel.Estimate, error) {
	return cc.est.EstimateScalar(s, bins, seed)
}

// label is Label over the context's symbol and observation logs, on
// context scratch: the returned slices are views into the context's
// buffers, valid until the next run begins.
func (cc *CellContext) label(warmup int) ([]int, []float64) {
	cc.labels, cc.vals = labelInto(cc.labels[:0], cc.vals[:0], &cc.syms, &cc.obs)
	return trimWarmup(cc.labels, cc.vals, warmup)
}

// estimateLabelled is EstimateLabelled on the context's reusable sample
// set.
func (cc *CellContext) estimateLabelled(labels []int, vals []float64, bins int, seed uint64) (channel.Estimate, error) {
	if len(labels) == 0 {
		return channel.Estimate{}, fmt.Errorf("attacks: no labelled observations")
	}
	s := cc.samples()
	for i := range labels {
		s.Add(labels[i], vals[i])
	}
	return cc.est.EstimateScalar(s, bins, seed)
}

// samples returns the context's emptied sample set — for scenarios
// that accumulate unlabelled scalars directly (T9's inter-arrival
// gaps).
func (cc *CellContext) samples() *channel.Samples {
	cc.samp.Reset()
	return cc.samp
}

// imageColors returns the set of LLC colours occupied by domain
// domainIdx's kernel image, in the context's reusable map.
func (cc *CellContext) imageColors(sys *kernel.System, domainIdx int) map[int]bool {
	clear(cc.colors)
	d := sys.Domains()[domainIdx]
	m := sys.Machine()
	for _, pfn := range d.Image.TextPFNs {
		cc.colors[m.Mem.Color(pfn)] = true
	}
	return cc.colors
}
