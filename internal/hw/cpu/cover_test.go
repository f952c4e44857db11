package cpu

import (
	"testing"

	"timeprot/internal/hw"
	"timeprot/internal/hw/cover"
	"timeprot/internal/hw/mem"
)

// driveMix exercises every instrumented transition class: demand
// accesses down to memory, TLB refills, branches, and a flush with
// dirty lines. It returns the total cycles charged so callers can
// compare instrumented and uninstrumented runs.
func driveMix(t *testing.T, c *Core, pt *mem.PageTable) uint64 {
	t.Helper()
	var total uint64
	for i := 0; i < 64; i++ {
		cycles, err := c.Access(1, pt, hw.Addr(i*hw.PageSize), DataWrite, 1)
		if err != nil {
			t.Fatal(err)
		}
		total += cycles
		c.Clock.Advance(cycles)
	}
	for i := 0; i < 32; i++ {
		cyc, _ := c.Branch(hw.Addr(0x4000+i*4), i%3 == 0)
		total += cyc
		c.Clock.Advance(cyc)
	}
	rep := c.FlushCoreState()
	total += rep.Cycles
	c.Clock.Advance(rep.Cycles)
	return total
}

func TestCoverageHooksAreTimingNeutral(t *testing.T) {
	// Uninstrumented baseline.
	plain, ptA, _ := testRig(t)
	base := driveMix(t, plain, ptA)

	// Instrumented run on an identically built rig.
	inst, ptB, _ := testRig(t)
	cov := &cover.Map{}
	inst.Cov = cov
	got := driveMix(t, inst, ptB)

	if got != base {
		t.Fatalf("attaching coverage changed total cycles: %d vs %d", got, base)
	}
	if cov.Count() == 0 {
		t.Fatal("instrumented run recorded no coverage")
	}
}

func TestCoverageRecordsEachClass(t *testing.T) {
	c, pt, _ := testRig(t)
	probe := func(f func(m *cover.Map)) int {
		m := &cover.Map{}
		f(m)
		return m.Count()
	}

	// TLB + L1/L2/LLC/level/bus via a cold access.
	n := probe(func(m *cover.Map) {
		c.Cov = m
		if _, err := c.Access(1, pt, 0x100, DataRead, 1); err != nil {
			t.Fatal(err)
		}
		c.Cov = nil
	})
	if n < 5 {
		t.Fatalf("cold access set %d coverage bits, want >=5 (L1, L2, LLC, level, TLB)", n)
	}

	// Branch class.
	n = probe(func(m *cover.Map) {
		c.Cov = m
		c.Branch(0x8000, true)
		c.Cov = nil
	})
	if n == 0 {
		t.Fatal("branch resolve recorded no coverage")
	}

	// Flush class.
	if _, err := c.Access(1, pt, 0x200, DataWrite, 1); err != nil {
		t.Fatal(err)
	}
	n = probe(func(m *cover.Map) {
		c.Cov = m
		c.FlushCoreState()
		c.Cov = nil
	})
	if n == 0 {
		t.Fatal("flush recorded no coverage")
	}
}

func TestResetDetachesCoverage(t *testing.T) {
	c, _, _ := testRig(t)
	c.Cov = &cover.Map{}
	c.Reset()
	if c.Cov != nil {
		t.Fatal("Reset must detach the coverage map (pooled-machine hygiene)")
	}
}
