// Package cpu composes the per-core microarchitecture: split VIPT L1
// caches, a private PIPT L2, an ASID-tagged TLB, a branch predictor, a
// stride prefetcher, and a cycle clock, all in front of a shared PIPT
// last-level cache reached over the shared bus.
//
// The composition realises the paper's resource taxonomy (§4.1):
//
//   - L1I/L1D are virtually indexed: page colouring cannot partition
//     them, so they are *flushable* state, reset on domain switches.
//   - The private L2 and the TLB, branch predictor and prefetcher are
//     likewise core-local time-shared state: flushable.
//   - The LLC is physically indexed and shared between cores: flushing
//     cannot help against a concurrent observer, so it is *partitionable*
//     state, divided by page colouring.
//   - The bus is stateless: neither flushable nor partitionable — the
//     paper's excluded channel.
//
// Every access returns the cycles it consumed; the caller advances the
// core clock. The latency of each operation is a deterministic function
// of the microarchitectural state — the concrete instance of the paper's
// "deterministic yet unspecified" time model (§5.1).
package cpu

import (
	"fmt"

	"timeprot/internal/hw"
	"timeprot/internal/hw/branch"
	"timeprot/internal/hw/cache"
	"timeprot/internal/hw/clock"
	"timeprot/internal/hw/cover"
	"timeprot/internal/hw/interconn"
	"timeprot/internal/hw/mem"
	"timeprot/internal/hw/prefetch"
	"timeprot/internal/hw/tlb"
)

// Config fixes a core's private geometry.
type Config struct {
	// ID is the core's index in the machine.
	ID int
	// L1ISets/L1IWays and L1DSets/L1DWays size the split L1 caches.
	L1ISets, L1IWays int
	L1DSets, L1DWays int
	// L2Sets/L2Ways size the private unified L2.
	L2Sets, L2Ways int
	// TLBEntries sizes the TLB.
	TLBEntries int
	// BPEntries sizes the branch predictor table (power of two).
	BPEntries int
	// PrefetchThreshold is the stride confirmation count; 0 disables
	// the prefetcher.
	PrefetchThreshold int
}

// DefaultConfig returns a small but structurally faithful core: 32 KiB
// 8-way L1s, 256 KiB 8-way L2, 64-entry TLB, 512-entry branch predictor,
// stride prefetcher armed after 2 confirmations.
func DefaultConfig(id int) Config {
	return Config{
		ID:      id,
		L1ISets: 64, L1IWays: 8,
		L1DSets: 64, L1DWays: 8,
		L2Sets: 512, L2Ways: 8,
		TLBEntries:        64,
		BPEntries:         512,
		PrefetchThreshold: 2,
	}
}

// Uncore is the machine state shared by all cores.
type Uncore struct {
	// LLC is the shared physically indexed last-level cache. It is
	// inclusive: evicting a line back-invalidates every core's private
	// copies, as on contemporary Intel parts — the mechanism that
	// makes cross-core LLC conflicts observable (§4.1).
	LLC *cache.Cache
	// Bus serialises LLC-miss traffic to memory.
	Bus *interconn.Bus
	// Mem is physical memory (frame ownership / colours).
	Mem *mem.PhysMem
	// Lat is the machine's latency parameter set.
	Lat hw.Latency

	cores []*Core
}

// backInvalidate removes an LLC-evicted line from every core's private
// caches (inclusion). It returns the number of dirty private copies
// dropped; their data is considered merged into the write-back already
// charged by the caller.
func (u *Uncore) backInvalidate(paLine uint64) (dirtyCopies int) {
	for _, c := range u.cores {
		if _, d := c.L1D.Invalidate(c.L1D.SetIndex(paLine), paLine); d {
			dirtyCopies++
		}
		c.L1I.Invalidate(c.L1I.SetIndex(paLine), paLine)
		if _, d := c.L2.Invalidate(c.L2.SetIndex(paLine), paLine); d {
			dirtyCopies++
		}
	}
	return dirtyCopies
}

// Core is one processor core. With SMT enabled the scheduler runs two
// hardware threads over the same Core; they share every field including
// the clock, which is exactly why SMT co-residency of distinct domains is
// unfixable by flushing or colouring (§4.1).
type Core struct {
	cfg Config

	L1I *cache.Cache
	L1D *cache.Cache
	L2  *cache.Cache
	TLB *tlb.TLB
	BP  *branch.Predictor
	PF  *prefetch.Stride

	Clock clock.Clock

	// Cov, when non-nil, records microarchitectural state transitions
	// into a coverage bitmap (see internal/hw/cover). It is observation
	// only: attaching a map never changes a measured cycle. All call
	// sites are nil-guarded so detached runs pay one branch.
	Cov *cover.Map

	// dirty is FlushCoreState's reused write-back list, so a domain
	// switch allocates nothing.
	dirty []uint64

	un *Uncore
}

// New builds a core against the shared uncore.
func New(cfg Config, un *Uncore) *Core {
	if un == nil {
		panic("cpu: nil uncore")
	}
	c := &Core{
		cfg: cfg,
		L1I: cache.New(cache.Config{Name: fmt.Sprintf("core%d.L1I", cfg.ID), Sets: cfg.L1ISets, Ways: cfg.L1IWays, Indexing: cache.VirtIndexed}),
		L1D: cache.New(cache.Config{Name: fmt.Sprintf("core%d.L1D", cfg.ID), Sets: cfg.L1DSets, Ways: cfg.L1DWays, Indexing: cache.VirtIndexed}),
		L2:  cache.New(cache.Config{Name: fmt.Sprintf("core%d.L2", cfg.ID), Sets: cfg.L2Sets, Ways: cfg.L2Ways, Indexing: cache.PhysIndexed}),
		TLB: tlb.New(cfg.TLBEntries),
		BP:  branch.New(cfg.BPEntries),
		un:  un,
	}
	if cfg.PrefetchThreshold > 0 {
		c.PF = prefetch.New(cfg.PrefetchThreshold)
	}
	// Back-invalidation locates private-cache lines by physical line
	// number, which is only valid while the virtually indexed L1s'
	// index bits lie within the page offset (as on real VIPT L1s).
	if cfg.L1DSets*hw.LineSize > hw.PageSize || cfg.L1ISets*hw.LineSize > hw.PageSize {
		panic("cpu: L1 sets must fit within a page (VIPT index == PIPT index)")
	}
	un.cores = append(un.cores, c)
	return c
}

// Reset restores the core's private microarchitecture to its freshly
// constructed state: caches, TLB, branch predictor, prefetcher, and the
// cycle clock. Machine pooling relies on a Reset core being
// indistinguishable from one built by New with the same configuration.
func (c *Core) Reset() {
	c.L1I.Reset()
	c.L1D.Reset()
	c.L2.Reset()
	c.TLB.Reset()
	c.BP.Reset()
	if c.PF != nil {
		c.PF.Reset()
	}
	c.Clock.Reset()
	// A fresh core has no coverage map attached; pooled reuse must not
	// leak one run's observer into the next.
	c.Cov = nil
}

// ID returns the core's index.
func (c *Core) ID() int { return c.cfg.ID }

// Config returns the core's geometry.
func (c *Core) Config() Config { return c.cfg }

// Uncore returns the shared uncore.
func (c *Core) Uncore() *Uncore { return c.un }

// AccessKind distinguishes the three demand access types.
type AccessKind int

const (
	// InstrFetch is an instruction fetch through the L1I.
	InstrFetch AccessKind = iota
	// DataRead is a load through the L1D.
	DataRead
	// DataWrite is a store through the L1D (write-allocate).
	DataWrite
)

// String implements fmt.Stringer.
func (k AccessKind) String() string {
	switch k {
	case InstrFetch:
		return "ifetch"
	case DataRead:
		return "read"
	case DataWrite:
		return "write"
	default:
		return fmt.Sprintf("AccessKind(%d)", int(k))
	}
}

// Fault is returned when a virtual address has no translation.
type Fault struct {
	VA   hw.Addr
	ASID tlb.ASID
}

// Error implements error.
func (f *Fault) Error() string {
	return fmt.Sprintf("cpu: page fault at va %#x (asid %d)", uint64(f.VA), f.ASID)
}

// Translate resolves va under pt, consulting the TLB. It returns the
// physical address and the cycles consumed (0 on a TLB hit; the walk
// cost on a miss, including a faulting one).
func (c *Core) Translate(asid tlb.ASID, pt *mem.PageTable, va hw.Addr) (pa hw.PAddr, cycles uint64, err error) {
	vpn := hw.VPN(va)
	if pfn, hit := c.TLB.Lookup(asid, vpn); hit {
		return hw.FrameBase(pfn) + hw.PAddr(hw.PageOffset(va)), 0, nil
	}
	pte, ok := pt.Lookup(vpn)
	if !ok {
		return 0, c.un.Lat.PageWalk, &Fault{VA: va, ASID: asid}
	}
	c.TLB.Refill(asid, vpn, pte.PFN, pte.Global)
	if c.Cov != nil {
		c.Cov.Touch(cover.ClassTLB, uint64(vpn))
	}
	return hw.FrameBase(pte.PFN) + hw.PAddr(hw.PageOffset(va)), c.un.Lat.PageWalk, nil
}

// Access performs one demand access by virtual address, walking the cache
// hierarchy and charging all latencies, including dirty write-backs and
// bus queueing. owner attributes cache fills for partition checking. It
// returns the cycles consumed; a page fault still charges the walk.
func (c *Core) Access(asid tlb.ASID, pt *mem.PageTable, va hw.Addr, kind AccessKind, owner hw.DomainID) (cycles uint64, err error) {
	pa, cycles, err := c.Translate(asid, pt, va)
	if err != nil {
		return cycles, err
	}
	cycles += c.accessPA(va, pa, kind, owner)

	// Demand data accesses train the prefetcher; a confirmed stride
	// triggers a background fill that changes cache state without
	// charging the demand access (the asynchrony is what makes
	// prefetcher state a covert-channel vector rather than a mere
	// slowdown).
	if c.PF != nil && kind != InstrFetch {
		if pfVA, ok := c.PF.Observe(va); ok {
			if pfPA, okT := pt.Translate(pfVA); okT {
				c.accessPA(pfVA, pfPA, DataRead, owner)
			}
		}
	}
	return cycles, nil
}

// accessPA walks L1 -> L2 -> LLC -> memory for an already-translated
// access and returns its cycles; the level it bottoms out at (1, 2, 3 for
// the LLC, 4 for memory) goes only to coverage. Tags are full physical
// line numbers so victims can be written back precisely.
func (c *Core) accessPA(va hw.Addr, pa hw.PAddr, kind AccessKind, owner hw.DomainID) uint64 {
	lat := &c.un.Lat
	paLine := hw.LineIndex(pa)
	write := kind == DataWrite

	l1 := c.L1D
	if kind == InstrFetch {
		l1 = c.L1I
	}

	// L1: virtually indexed, physically tagged.
	l1Set := l1.SetIndex(hw.VLineIndex(va))
	res := l1.Access(l1Set, paLine, write, owner)
	cycles := lat.L1Hit
	if c.Cov != nil {
		c.Cov.Touch(cover.ClassL1, uint64(l1Set)|uint64(kind)<<16)
	}
	if res.WritebackVictim {
		cycles += c.writeback(res.VictimTag, res.VictimOwner)
	}
	if res.Hit {
		c.covLevel(kind, 1)
		return cycles
	}

	// L2: physically indexed private cache.
	l2Set := c.L2.SetIndex(paLine)
	res = c.L2.Access(l2Set, paLine, false, owner)
	cycles += lat.L2Hit
	if c.Cov != nil {
		c.Cov.Touch(cover.ClassL2, uint64(l2Set))
	}
	if res.WritebackVictim {
		cycles += c.writeback(res.VictimTag, res.VictimOwner)
	}
	if res.Hit {
		c.covLevel(kind, 2)
		return cycles
	}

	// LLC: physically indexed shared cache.
	llcSet := c.un.LLC.SetIndex(paLine)
	res = c.un.LLC.Access(llcSet, paLine, false, owner)
	cycles += lat.LLCHit
	if c.Cov != nil {
		c.Cov.Touch(cover.ClassLLC, uint64(llcSet))
	}
	if res.Evicted {
		dirtyCopies := c.un.backInvalidate(res.VictimTag)
		if res.WritebackVictim || dirtyCopies > 0 {
			// Dirty LLC victim (or a dirtier private copy) goes
			// to memory over the bus.
			cycles += c.busAccess(cycles)
		}
	}
	if res.Hit {
		c.covLevel(kind, 3)
		return cycles
	}

	// Memory: bus transfer plus DRAM latency.
	cycles += c.busAccess(cycles)
	cycles += lat.Mem
	c.covLevel(kind, 4)
	return cycles
}

// busAccess performs one bus transfer at the core clock plus offset,
// recording the occupied bus slot (queue-delay bucket) as coverage.
func (c *Core) busAccess(offset uint64) uint64 {
	cycles := c.un.Bus.Access(c.cfg.ID, c.Clock.Now()+offset)
	if c.Cov != nil {
		beat := c.un.Lat.BusBeat
		if beat == 0 {
			beat = 1
		}
		slot := cycles / beat
		if slot > 255 {
			slot = 255
		}
		c.Cov.Touch(cover.ClassBus, uint64(c.cfg.ID)<<8|slot)
	}
	return cycles
}

// covLevel records the demand-miss depth an access bottomed out at.
func (c *Core) covLevel(kind AccessKind, level int) {
	if c.Cov != nil {
		c.Cov.Touch(cover.ClassLevel, uint64(kind)<<8|uint64(level))
	}
}

// writeback pushes an evicted dirty line (identified by its physical line
// number) into the next level below the cache it was evicted from. For
// simplicity every write-back is installed into the LLC; its cost is one
// LLC access (plus a bus+memory transfer if the LLC in turn evicts dirty
// data).
func (c *Core) writeback(paLine uint64, owner hw.DomainID) uint64 {
	set := c.un.LLC.SetIndex(paLine)
	res := c.un.LLC.Access(set, paLine, true, owner)
	cycles := c.un.Lat.LLCHit
	if res.Evicted {
		dirtyCopies := c.un.backInvalidate(res.VictimTag)
		if res.WritebackVictim || dirtyCopies > 0 {
			cycles += c.un.Bus.Access(c.cfg.ID, c.Clock.Now()+cycles)
		}
	}
	return cycles
}

// Branch resolves a conditional branch at pc, charging the misprediction
// penalty when the predictor was wrong.
func (c *Core) Branch(pc hw.Addr, taken bool) (cycles uint64, mispredicted bool) {
	mispredicted = c.BP.Resolve(pc, taken)
	if c.Cov != nil {
		v := uint64(pc) << 2
		if taken {
			v |= 2
		}
		if mispredicted {
			v |= 1
		}
		c.Cov.Touch(cover.ClassBP, v)
	}
	if mispredicted {
		return c.un.Lat.Mispredict, true
	}
	return 1, false
}

// FlushReport itemises one full flush of the core-local state.
type FlushReport struct {
	// DirtyL1D counts the write-backs performed. Only the L1D can
	// hold dirty lines: the L2 is filled clean on every miss and L1D
	// victims write back straight to the LLC.
	DirtyL1D int
	// TLBEntries counts TLB entries dropped.
	TLBEntries int
	// Cycles is the total latency: FlushBase plus the per-dirty-line
	// cost. It is a function of execution history — the channel that
	// padding closes (§4.2).
	Cycles uint64
}

// FlushCoreState resets every flushable resource: both L1s, the private
// L2, the TLB, the branch predictor and the prefetcher. Dirty L1D lines
// are written back into the LLC (preserving partition attribution); the
// L2 never holds a dirty line. The returned report carries the
// history-dependent latency.
func (c *Core) FlushCoreState() FlushReport {
	var rep FlushReport
	lat := c.un.Lat

	// Write back dirty L1D contents before invalidating. The
	// write-backs land in the owning domain's frames, so attribution
	// follows the physical frame owner and partitioning is preserved.
	// The list is taken before the write-backs start: a write-back may
	// evict an LLC line and back-invalidate a listed line, which is
	// still written back.
	c.dirty = c.L1D.AppendDirtyLines(c.dirty[:0])
	for _, line := range c.dirty {
		c.writeback(line, c.un.Mem.Owner(line/hw.LinesPerPage))
		rep.DirtyL1D++
	}
	c.L1I.FlushAll()
	c.L1D.FlushAll()
	c.L2.FlushAll()
	rep.TLBEntries = c.TLB.FlushAll()
	c.BP.Flush()
	if c.PF != nil {
		c.PF.Flush()
	}
	rep.Cycles = lat.FlushBase + uint64(rep.DirtyL1D)*lat.FlushPerDirtyLine
	if c.Cov != nil {
		// The dirty-line count is the history-dependent part of flush
		// latency — the flush-channel signal itself.
		c.Cov.Touch(cover.ClassFlush, uint64(rep.DirtyL1D))
	}
	return rep
}

// FlushableFingerprint digests all flushable state; after FlushCoreState
// it must equal the fingerprint of a fresh core (the defined reset state
// of §4.1). Used by the flush-invariant checker.
func (c *Core) FlushableFingerprint() uint64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(c.L1I.ValidCount()))
	mix(uint64(c.L1D.ValidCount()))
	mix(uint64(c.L1D.DirtyCount()))
	mix(uint64(c.L2.ValidCount()))
	mix(uint64(c.L2.DirtyCount()))
	occ := c.TLB.OccupancyByASID()
	mix(uint64(len(occ)))
	mix(c.BP.Fingerprint())
	if c.PF != nil {
		mix(c.PF.Fingerprint())
	}
	return h
}
