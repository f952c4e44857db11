package cpu

import (
	"testing"

	"timeprot/internal/hw"
	"timeprot/internal/hw/mem"
)

// TestAccessAllocFree gates the simulated memory-access path: Core.Access
// is the innermost call of every simulated user and kernel operation, so
// it must not allocate on any path through the hierarchy. Each case
// rearranges the caches before every access so that the access keeps
// taking the named path, and checks afterwards that it did.
func TestAccessAllocFree(t *testing.T) {
	lat := hw.DefaultLatency()
	const va = hw.Addr(0x100)
	for _, tc := range []struct {
		name string
		// step prepares and performs the n-th access.
		step func(c *Core, pt *mem.PageTable, n int) (uint64, error)
		// took reports whether the last access took the named path.
		took func(c *Core, cycles uint64) bool
	}{
		{"l1-hit",
			func(c *Core, pt *mem.PageTable, _ int) (uint64, error) {
				return c.Access(1, pt, va, DataRead, 1)
			},
			func(_ *Core, cyc uint64) bool { return cyc == lat.L1Hit }},
		{"l2-hit",
			func(c *Core, pt *mem.PageTable, _ int) (uint64, error) {
				dropLine(c, pt, va, 1)
				return c.Access(1, pt, va, DataRead, 1)
			},
			func(_ *Core, cyc uint64) bool { return cyc == lat.L1Hit+lat.L2Hit }},
		{"llc-hit",
			func(c *Core, pt *mem.PageTable, _ int) (uint64, error) {
				dropLine(c, pt, va, 2)
				return c.Access(1, pt, va, DataRead, 1)
			},
			func(_ *Core, cyc uint64) bool { return cyc == lat.L1Hit+lat.L2Hit+lat.LLCHit }},
		{"memory",
			func(c *Core, pt *mem.PageTable, _ int) (uint64, error) {
				dropLine(c, pt, va, 3)
				return c.Access(1, pt, va, DataRead, 1)
			},
			func(_ *Core, cyc uint64) bool { return cyc == memMiss() }},
		{"dirty-writeback",
			// Line 0 of each of 16 pages maps to one 8-way L1D set, so
			// every write past the eighth evicts a dirty line.
			func(c *Core, pt *mem.PageTable, n int) (uint64, error) {
				return c.Access(1, pt, hw.Addr(n%16*hw.PageSize), DataWrite, 1)
			},
			func(c *Core, _ uint64) bool { return c.L1D.Stats().Writebacks > 0 }},
		{"prefetch-stride",
			// A unit line stride over 8 pages arms the prefetcher.
			func(c *Core, pt *mem.PageTable, n int) (uint64, error) {
				return c.Access(1, pt, hw.Addr(n%(8*hw.LinesPerPage)*hw.LineSize), DataRead, 1)
			},
			func(c *Core, _ uint64) bool { return c.PF.Stats().Prefetches > 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, pt, _ := testRig(t)
			var n int
			var cycles uint64
			var err error
			access := func() {
				cycles, err = tc.step(c, pt, n)
				c.Clock.Advance(cycles)
				n++
			}
			access() // walk the page table and warm the line
			if allocs := testing.AllocsPerRun(200, access); allocs != 0 {
				t.Errorf("Core.Access allocates %.1f times per call, want 0", allocs)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !tc.took(c, cycles) {
				t.Errorf("last access (%d cycles) did not take the %s path", cycles, tc.name)
			}
		})
	}
}

// dropLine invalidates va's line from the first levels cache levels
// (L1D, L2, LLC), so the next read of va is satisfied one level below.
func dropLine(c *Core, pt *mem.PageTable, va hw.Addr, levels int) {
	pa, _ := pt.Translate(va)
	line := hw.LineIndex(pa)
	c.L1D.Invalidate(c.L1D.SetIndex(hw.VLineIndex(va)), line)
	if levels > 1 {
		c.L2.Invalidate(c.L2.SetIndex(line), line)
	}
	if llc := c.Uncore().LLC; levels > 2 {
		llc.Invalidate(llc.SetIndex(line), line)
	}
}

// TestFlushCoreStateAllocFree gates the domain-switch flush: with dirty
// lines to write back, FlushCoreState must not allocate once its
// write-back list has grown to size.
func TestFlushCoreStateAllocFree(t *testing.T) {
	c, pt, _ := testRig(t)
	var rep FlushReport
	dirtyAndFlush := func() {
		for i := 0; i < 10; i++ {
			if _, err := c.Access(1, pt, hw.Addr(i*hw.LineSize), DataWrite, 1); err != nil {
				t.Fatal(err)
			}
		}
		rep = c.FlushCoreState()
	}
	dirtyAndFlush()
	if allocs := testing.AllocsPerRun(50, dirtyAndFlush); allocs != 0 {
		t.Errorf("FlushCoreState allocates %.1f times per flush, want 0", allocs)
	}
	if rep.DirtyL1D != 10 {
		t.Errorf("flush wrote back %d dirty L1D lines, want 10", rep.DirtyL1D)
	}
}
