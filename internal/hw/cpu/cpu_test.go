package cpu

import (
	"errors"
	"math/rand"
	"testing"

	"timeprot/internal/hw"
	"timeprot/internal/hw/cache"
	"timeprot/internal/hw/interconn"
	"timeprot/internal/hw/mem"
)

// testRig builds a single-core machine with a 64-colour LLC.
func testRig(t *testing.T) (*Core, *mem.PageTable, *mem.Allocator) {
	t.Helper()
	un := &Uncore{
		LLC: cache.New(cache.Config{Name: "LLC", Sets: 4096, Ways: 16, Indexing: cache.PhysIndexed}),
		Bus: interconn.NewBus(8),
		Mem: mem.NewPhysMem(8192, 64),
		Lat: hw.DefaultLatency(),
	}
	c := New(DefaultConfig(0), un)
	alloc := mem.NewAllocator(un.Mem)
	pt := mem.NewPageTable(1)
	// Identity-ish mapping: 64 pages for domain 1.
	pfns, err := alloc.AllocN(1, nil, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i, pfn := range pfns {
		pt.Map(uint64(i), mem.PTE{PFN: pfn, Writable: true})
	}
	return c, pt, alloc
}

// levelOf predicts, from the cache contents alone, the level (1, 2, 3
// for the LLC, 4 for memory) at which the next data access to va is
// satisfied.
func levelOf(t *testing.T, c *Core, pt *mem.PageTable, va hw.Addr) int {
	t.Helper()
	pa, ok := pt.Translate(va)
	if !ok {
		t.Fatalf("va %#x unmapped", uint64(va))
	}
	line := hw.LineIndex(pa)
	switch {
	case c.L1D.Probe(c.L1D.SetIndex(hw.VLineIndex(va)), line):
		return 1
	case c.L2.Probe(c.L2.SetIndex(line), line):
		return 2
	case c.Uncore().LLC.Probe(c.Uncore().LLC.SetIndex(line), line):
		return 3
	}
	return 4
}

// memMiss is the uncontended cost of an access that misses every cache
// level: each lookup, one bus beat and DRAM.
func memMiss() uint64 {
	lat := hw.DefaultLatency()
	return lat.L1Hit + lat.L2Hit + lat.LLCHit + lat.BusBeat + lat.Mem
}

func TestColdMissCostsThroughMemory(t *testing.T) {
	c, pt, _ := testRig(t)
	if lvl := levelOf(t, c, pt, 0x100); lvl != 4 {
		t.Fatalf("cold access level %d, want 4 (memory)", lvl)
	}
	walks := c.TLB.Stats().Misses
	cycles, err := c.Access(1, pt, 0x100, DataRead, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.TLB.Stats().Misses != walks+1 {
		t.Fatal("cold access must walk the page table")
	}
	want := hw.DefaultLatency().PageWalk + memMiss()
	if cycles != want {
		t.Fatalf("cycles = %d, want %d", cycles, want)
	}
}

func TestHotHitCostsL1Only(t *testing.T) {
	c, pt, _ := testRig(t)
	if _, err := c.Access(1, pt, 0x100, DataRead, 1); err != nil {
		t.Fatal(err)
	}
	lvl, walks := levelOf(t, c, pt, 0x100), c.TLB.Stats().Misses
	cycles, err := c.Access(1, pt, 0x100, DataRead, 1)
	if err != nil {
		t.Fatal(err)
	}
	if misses := c.TLB.Stats().Misses - walks; lvl != 1 || misses != 0 {
		t.Fatalf("hot access: level=%d tlbMisses=%d", lvl, misses)
	}
	if cycles != hw.DefaultLatency().L1Hit {
		t.Fatalf("cycles = %d, want pure L1 hit", cycles)
	}
}

func TestHitLatencyOrderingIsTheProbeSignal(t *testing.T) {
	// The prime-and-probe decoder relies on L1 < L2 < LLC < memory
	// latency being distinguishable.
	c, pt, _ := testRig(t)
	cold, _ := c.Access(1, pt, 0x2000, DataRead, 1)
	hot, _ := c.Access(1, pt, 0x2000, DataRead, 1)
	if hot >= cold {
		t.Fatalf("hot (%d) must be faster than cold (%d)", hot, cold)
	}
}

func TestPageFault(t *testing.T) {
	c, pt, _ := testRig(t)
	_, err := c.Access(1, pt, hw.Addr(999<<hw.PageBits), DataRead, 1)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("want Fault, got %v", err)
	}
	if hw.VPN(f.VA) != 999 {
		t.Fatalf("fault VA wrong: %+v", f)
	}
}

func TestWriteMakesDirtyAndFlushCountsIt(t *testing.T) {
	c, pt, _ := testRig(t)
	for i := 0; i < 10; i++ {
		if _, err := c.Access(1, pt, hw.Addr(i*hw.LineSize), DataWrite, 1); err != nil {
			t.Fatal(err)
		}
	}
	rep := c.FlushCoreState()
	if rep.DirtyL1D != 10 {
		t.Fatalf("flushed %d dirty L1D lines, want 10", rep.DirtyL1D)
	}
	lat := hw.DefaultLatency()
	want := lat.FlushBase + 10*lat.FlushPerDirtyLine
	if rep.Cycles != want {
		t.Fatalf("flush cycles %d, want %d", rep.Cycles, want)
	}
}

func TestFlushLatencyDependsOnHistory(t *testing.T) {
	// This is the §4.2 secondary channel: more dirty lines, longer
	// flush.
	dirtyFlush := func(writes int) uint64 {
		c, pt, _ := testRig(t)
		for i := 0; i < writes; i++ {
			if _, err := c.Access(1, pt, hw.Addr(i*hw.LineSize), DataWrite, 1); err != nil {
				t.Fatal(err)
			}
		}
		return c.FlushCoreState().Cycles
	}
	if dirtyFlush(40) <= dirtyFlush(2) {
		t.Fatal("flush latency must grow with dirty lines")
	}
}

func TestFlushRestoresDefinedState(t *testing.T) {
	c, pt, _ := testRig(t)
	fresh := c.FlushableFingerprint()
	for i := 0; i < 200; i++ {
		if _, err := c.Access(1, pt, hw.Addr((i%60)*hw.LineSize), DataWrite, 1); err != nil {
			t.Fatal(err)
		}
		c.Branch(hw.Addr(i*4), i%3 == 0)
	}
	if c.FlushableFingerprint() == fresh {
		t.Fatal("state fingerprint should differ after activity")
	}
	c.FlushCoreState()
	if c.FlushableFingerprint() != fresh {
		t.Fatal("flush must restore the defined reset fingerprint")
	}
}

func TestWritebackLandsInLLCWithFrameOwner(t *testing.T) {
	c, pt, _ := testRig(t)
	if _, err := c.Access(1, pt, 0x40, DataWrite, 1); err != nil {
		t.Fatal(err)
	}
	c.FlushCoreState()
	occ := c.Uncore().LLC.OccupancyByOwner()
	if occ[1] == 0 {
		t.Fatalf("written-back line not attributed to frame owner: %v", occ)
	}
}

func TestBranchMispredictPenalty(t *testing.T) {
	c, _, _ := testRig(t)
	cyc, mis := c.Branch(0x40, true) // predictor resets to not-taken
	if !mis || cyc != hw.DefaultLatency().Mispredict {
		t.Fatalf("first taken branch: cyc=%d mis=%v", cyc, mis)
	}
	c.Branch(0x40, true)
	cyc, mis = c.Branch(0x40, true)
	if mis || cyc != 1 {
		t.Fatalf("trained branch: cyc=%d mis=%v", cyc, mis)
	}
}

func TestPrefetcherWarmsNextLine(t *testing.T) {
	c, pt, _ := testRig(t)
	// Walk a stride-1 line pattern to arm the prefetcher.
	for i := 0; i < 4; i++ {
		if _, err := c.Access(1, pt, hw.Addr(i*hw.LineSize), DataRead, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Line 4 should have been prefetched by the access to line 3.
	if lvl := levelOf(t, c, pt, hw.Addr(4*hw.LineSize)); lvl != 1 {
		t.Fatalf("prefetched line hit at level %d, want 1", lvl)
	}
	cycles, err := c.Access(1, pt, hw.Addr(4*hw.LineSize), DataRead, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cycles != hw.DefaultLatency().L1Hit {
		t.Fatalf("prefetched line cost %d cycles, want an L1 hit", cycles)
	}
}

func TestVIPTIndexingUsesVirtualBits(t *testing.T) {
	// Two virtual pages mapping to the same physical frame land in L1
	// sets chosen by their *virtual* addresses: VIPT.
	c, _, alloc := testRig(t)
	pt := mem.NewPageTable(2)
	pfn, err := alloc.Alloc(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	pt.Map(100, mem.PTE{PFN: pfn})
	pt.Map(200, mem.PTE{PFN: pfn})
	if _, err := c.Access(2, pt, hw.Addr(100<<hw.PageBits), DataRead, 2); err != nil {
		t.Fatal(err)
	}
	// Same PA via a different VA in the same page-offset: the L1 set
	// is the same here because set bits come from the page offset for
	// a 64-set L1 (fits in a page). The aliasing consequence we care
	// about for colouring is at the LLC, tested in the cache package;
	// here we just pin the L1 hit via the second VA (same line tag).
	alias := hw.Addr(200 << hw.PageBits)
	if lvl := levelOf(t, c, pt, alias); lvl != 1 {
		t.Fatalf("aliased access level %d, want 1 (same physical tag, same virtual set)", lvl)
	}
	cycles, err := c.Access(2, pt, alias, DataRead, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The alias is a new page, so the access walks the page table
	// before it hits in L1.
	if lat := hw.DefaultLatency(); cycles != lat.PageWalk+lat.L1Hit {
		t.Fatalf("aliased access cost %d cycles, want a page walk plus an L1 hit", cycles)
	}
}

func TestCrossCoreLLCConflictVisibility(t *testing.T) {
	// Two cores share the LLC: one core's fills evict the other's
	// lines in the same set — the substrate of the T3 experiment.
	un := &Uncore{
		LLC: cache.New(cache.Config{Name: "LLC", Sets: 256, Ways: 2, Indexing: cache.PhysIndexed}),
		Bus: interconn.NewBus(8),
		Mem: mem.NewPhysMem(65536, 4),
		Lat: hw.DefaultLatency(),
	}
	c0, c1 := New(DefaultConfig(0), un), New(DefaultConfig(1), un)
	alloc := mem.NewAllocator(un.Mem)
	ptA, ptB := mem.NewPageTable(1), mem.NewPageTable(2)
	// Same colour frames for both domains => conflict.
	pfnsA, _ := alloc.AllocN(1, mem.NewColorSet(1), 3)
	pfnsB, _ := alloc.AllocN(2, mem.NewColorSet(1), 3)
	for i, p := range pfnsA {
		ptA.Map(uint64(i), mem.PTE{PFN: p})
	}
	for i, p := range pfnsB {
		ptB.Map(uint64(i), mem.PTE{PFN: p})
	}
	// Core 0 loads its line; core 1 thrashes the same LLC set from
	// the same-coloured frames.
	if _, err := c0.Access(1, ptA, 0, DataRead, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c1.Access(2, ptB, hw.Addr(i<<hw.PageBits), DataRead, 2); err != nil {
			t.Fatal(err)
		}
	}
	// Core 0's copy was evicted from the (2-way) LLC set; after its
	// private L1/L2 are flushed the reload must come from memory.
	c0.FlushCoreState()
	if lvl := levelOf(t, c0, ptA, 0); lvl != 4 {
		t.Fatalf("victim reload level %d, want 4 (evicted by sibling core)", lvl)
	}
	cycles, err := c0.Access(1, ptA, 0, DataRead, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The test never advances the clock, so the bus may add queueing
	// on top of the uncontended walk + memory cost.
	if want := hw.DefaultLatency().PageWalk + memMiss(); cycles < want {
		t.Fatalf("victim reload cost %d cycles, want at least %d (walk + memory)", cycles, want)
	}
}

// TestInclusiveBackInvalidation: evicting a line from the LLC must drop
// every core's private copies (the inclusion property cross-core attacks
// rely on).
func TestInclusiveBackInvalidation(t *testing.T) {
	un := &Uncore{
		LLC: cache.New(cache.Config{Name: "LLC", Sets: 64, Ways: 1, Indexing: cache.PhysIndexed}),
		Bus: interconn.NewBus(8),
		Mem: mem.NewPhysMem(65536, 1),
		Lat: hw.DefaultLatency(),
	}
	c0, c1 := New(DefaultConfig(0), un), New(DefaultConfig(1), un)
	alloc := mem.NewAllocator(un.Mem)
	ptA, ptB := mem.NewPageTable(1), mem.NewPageTable(2)
	pA, _ := alloc.Alloc(1, nil)
	pB, _ := alloc.Alloc(2, nil)
	ptA.Map(0, mem.PTE{PFN: pA, Writable: true})
	ptB.Map(0, mem.PTE{PFN: pB, Writable: true})

	// Core 0 loads (and dirties) a line; it now lives in its L1 and in
	// the 1-way LLC set.
	if _, err := c0.Access(1, ptA, 0, DataWrite, 1); err != nil {
		t.Fatal(err)
	}
	if c0.L1D.DirtyCount() != 1 {
		t.Fatal("core 0 should hold a dirty private copy")
	}
	// Core 1 maps a DIFFERENT frame whose line lands in the same LLC
	// set (same set index if pfn congruent mod 64); force congruence.
	for un.Mem.Color(pB) != un.Mem.Color(pA) || (pB%64) != (pA%64) {
		pB, _ = alloc.Alloc(2, nil)
	}
	ptB.Map(0, mem.PTE{PFN: pB})
	if _, err := c1.Access(2, ptB, 0, DataRead, 2); err != nil {
		t.Fatal(err)
	}
	// Core 0's private copy must be gone (back-invalidated), dirty or
	// not.
	if c0.L1D.DirtyCount() != 0 && c0.L1D.ValidCount() != 0 {
		// The line may survive only if the LLC sets differ; verify.
		t.Fatalf("back-invalidation failed: valid=%d dirty=%d", c0.L1D.ValidCount(), c0.L1D.DirtyCount())
	}
	// Core 0's reload misses all the way to memory.
	c0.FlushCoreState()
	if lvl := levelOf(t, c0, ptA, 0); lvl != 4 {
		t.Fatalf("reload level %d, want 4", lvl)
	}
	cycles, err := c0.Access(1, ptA, 0, DataRead, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The test never advances the clock, so the bus may add queueing
	// on top of the uncontended walk + memory cost.
	if want := hw.DefaultLatency().PageWalk + memMiss(); cycles < want {
		t.Fatalf("reload cost %d cycles, want at least %d (walk + memory)", cycles, want)
	}
}

// TestPrefetcherDisabledConfig: threshold 0 removes the prefetcher and
// sequential reads gain no L1 warmth.
func TestPrefetcherDisabledConfig(t *testing.T) {
	un := &Uncore{
		LLC: cache.New(cache.Config{Name: "LLC", Sets: 4096, Ways: 16, Indexing: cache.PhysIndexed}),
		Bus: interconn.NewBus(8),
		Mem: mem.NewPhysMem(8192, 64),
		Lat: hw.DefaultLatency(),
	}
	cfg := DefaultConfig(0)
	cfg.PrefetchThreshold = 0
	c := New(cfg, un)
	alloc := mem.NewAllocator(un.Mem)
	pt := mem.NewPageTable(1)
	pfn, _ := alloc.Alloc(1, nil)
	pt.Map(0, mem.PTE{PFN: pfn})
	for i := 0; i < 4; i++ {
		if _, err := c.Access(1, pt, hw.Addr(i*hw.LineSize), DataRead, 1); err != nil {
			t.Fatal(err)
		}
	}
	if levelOf(t, c, pt, hw.Addr(4*hw.LineSize)) == 1 {
		t.Fatal("line was prefetched despite the prefetcher being disabled")
	}
	cycles, err := c.Access(1, pt, hw.Addr(4*hw.LineSize), DataRead, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cycles == hw.DefaultLatency().L1Hit {
		t.Fatal("unprefetched line cost only an L1 hit")
	}
}

// TestL2NeverHoldsDirtyLines: the private L2 is filled clean on every
// miss and L1D victims write back straight to the LLC, so no access
// stream leaves a dirty line in the L2 — which is why a flush writes
// back the L1D only. Random fetch, read and write streams run with
// interleaved flushes; half of the accesses go to line 0 of 16 pages,
// which share one 8-way L1D set, so writes there evict dirty lines.
func TestL2NeverHoldsDirtyLines(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		c, pt, _ := testRig(t)
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 20000; i++ {
			va := hw.Addr(r.Intn(64 * hw.PageSize))
			if r.Intn(2) == 0 {
				va = hw.Addr(r.Intn(16) * hw.PageSize)
			}
			kind := AccessKind(r.Intn(3))
			cycles, err := c.Access(1, pt, va, kind, 1)
			if err != nil {
				t.Fatal(err)
			}
			c.Clock.Advance(cycles)
			if n := c.L2.DirtyCount(); n != 0 {
				t.Fatalf("seed %d access %d (%s %#x): L2 holds %d dirty lines", seed, i, kind, uint64(va), n)
			}
			if r.Intn(1000) == 0 {
				c.Clock.Advance(c.FlushCoreState().Cycles)
			}
		}
		if c.L1D.Stats().Writebacks == 0 {
			t.Fatalf("seed %d: no dirty L1D line was evicted, so the stream tests nothing", seed)
		}
	}
}
