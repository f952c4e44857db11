package invariant

import (
	"testing"
	"testing/quick"

	"timeprot/internal/core"
	"timeprot/internal/hw/mem"
	"timeprot/internal/hw/platform"
	"timeprot/internal/kernel"
	"timeprot/internal/rng"
)

// randomProgram builds a deterministic pseudo-random thread program from
// a seed: an arbitrary interleaving of reads, writes, computes, branches,
// syscalls and interrupt programming.
func randomProgram(seed uint64, steps int, irqLine int) kernel.Program {
	r := rng.New(seed)
	i := 0
	return kernel.ProgramFunc(func(m *kernel.Machine) kernel.Status {
		if i == steps {
			return kernel.Done
		}
		i++
		heap := m.HeapBytes()
		switch r.Intn(8) {
		case 0, 1:
			return m.ReadHeap(r.Uint64n(heap/64) * 64)
		case 2, 3:
			return m.WriteHeap(r.Uint64n(heap/64) * 64)
		case 4:
			return m.Compute(r.Uint64n(400) + 1)
		case 5:
			return m.Branch(r.Uint64n(512), r.Bool())
		case 6:
			return m.NullSyscall()
		}
		if irqLine >= 0 {
			return m.StartIO(irqLine, r.Uint64n(100_000)+1_000)
		}
		return m.Compute(50)
	})
}

// TestInvariantsHoldUnderRandomWorkloads is the property-based version of
// the refinement claim: for ARBITRARY program behaviour in both domains,
// a fully protected kernel maintains every functional property of §5 —
// partitioning, flushing, padding constancy, interrupt ownership, clone
// disjointness.
func TestInvariantsHoldUnderRandomWorkloads(t *testing.T) {
	f := func(seed uint64) bool {
		pcfg := platform.DefaultConfig()
		pcfg.Cores = 1
		sys, err := kernel.NewSystem(kernel.SystemConfig{
			Platform:   pcfg,
			Protection: core.FullProtection(),
			Domains: []core.DomainSpec{
				{Name: "Hi", SliceCycles: 40_000, PadCycles: 15_000, Colors: mem.ColorRange(1, 32), IRQLines: []int{0}, CodePages: 4, HeapPages: 16},
				{Name: "Lo", SliceCycles: 40_000, PadCycles: 15_000, Colors: mem.ColorRange(32, 64), IRQLines: []int{1}, CodePages: 4, HeapPages: 16},
			},
			Schedule:    [][]int{{0, 1}},
			EnableTrace: true,
			MaxCycles:   120_000_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		fm := NewFlushMonitor(sys)
		if _, err := sys.SpawnProgram(0, "hi", 0, randomProgram(seed, 900, 0)); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.SpawnProgram(1, "lo", 0, randomProgram(seed^0xDEAD, 900, 1)); err != nil {
			t.Fatal(err)
		}
		rep, err := sys.Run()
		if err != nil || len(rep.Errors) > 0 {
			t.Fatalf("run failed: %v %v", err, rep.Errors)
		}
		r := CheckSystem(sys, fm)
		if !r.Pass() {
			t.Logf("seed %d violations:\n%s", seed, r)
		}
		return r.Pass()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestDeterminismUnderRandomWorkloads: any random workload, run twice,
// gives identical cycle counts and switch counts — the property all
// two-run comparisons rest on.
func TestDeterminismUnderRandomWorkloads(t *testing.T) {
	f := func(seed uint64) bool {
		run := func() (uint64, int) {
			pcfg := platform.DefaultConfig()
			pcfg.Cores = 1
			sys, err := kernel.NewSystem(kernel.SystemConfig{
				Platform:   pcfg,
				Protection: core.FullProtection(),
				Domains: []core.DomainSpec{
					{Name: "Hi", SliceCycles: 30_000, PadCycles: 12_000, Colors: mem.ColorRange(1, 32), IRQLines: []int{0}, CodePages: 4, HeapPages: 8},
					{Name: "Lo", SliceCycles: 30_000, PadCycles: 12_000, Colors: mem.ColorRange(32, 64), IRQLines: []int{1}, CodePages: 4, HeapPages: 8},
				},
				Schedule:  [][]int{{0, 1}},
				MaxCycles: 120_000_000,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.SpawnProgram(0, "hi", 0, randomProgram(seed, 500, 0)); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.SpawnProgram(1, "lo", 0, randomProgram(seed+1, 500, 1)); err != nil {
				t.Fatal(err)
			}
			rep, err := sys.Run()
			if err != nil {
				t.Fatal(err)
			}
			return rep.CPUCycles[0], rep.Switches
		}
		c1, s1 := run()
		c2, s2 := run()
		return c1 == c2 && s1 == s2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}
