package kernel

import (
	"testing"

	"timeprot/internal/core"
	"timeprot/internal/hw/mem"
	"timeprot/internal/hw/platform"
	"timeprot/internal/trace"
)

func TestRecommendPadPositiveAndMonotone(t *testing.T) {
	pcfg := platform.DefaultConfig()
	pad := RecommendPad(pcfg)
	if pad == 0 {
		t.Fatal("zero pad recommendation")
	}
	// More cores -> worse bus queueing -> larger bound.
	bigger := pcfg
	bigger.Cores = 8
	if RecommendPad(bigger) <= pad {
		t.Fatal("bound must grow with core count")
	}
	// Bigger caches -> more potential dirty lines -> larger bound.
	fat := pcfg
	fat.Core.L2Sets *= 2
	if RecommendPad(fat) <= pad {
		t.Fatal("bound must grow with flushable capacity")
	}
}

// TestRecommendPadIsSufficient runs an adversarial workload (maximum
// dirtying, syscalls, interrupts, long cold operations) under the
// recommended pad and verifies the invariant the bound promises: zero
// overruns and a single steady-state dispatch interval.
func TestRecommendPadIsSufficient(t *testing.T) {
	pcfg := platform.DefaultConfig()
	pcfg.Cores = 1
	pad := RecommendPad(pcfg)

	sys, err := NewSystem(SystemConfig{
		Platform:   pcfg,
		Protection: core.FullProtection(),
		Domains: []core.DomainSpec{
			{Name: "Hi", SliceCycles: 60_000, PadCycles: pad, Colors: mem.ColorRange(1, 32), IRQLines: []int{0}, CodePages: 4, HeapPages: 80},
			{Name: "Lo", SliceCycles: 60_000, PadCycles: pad, Colors: mem.ColorRange(32, 64), IRQLines: []int{1}, CodePages: 4, HeapPages: 16},
		},
		Schedule:    [][]int{{0, 1}},
		EnableTrace: true,
		MaxCycles:   400_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each round: start IO, dirty the whole heap with page-crossing
	// strides, take a syscall.
	lines := int(sys.Domains()[0].HeapBytes() / 64)
	mustSpawn(t, sys, 0, "adversary", 0, loop(10*(lines+2), func(m *Machine, k int) Status {
		switch j := k % (lines + 2); {
		case j == 0:
			return m.StartIO(0, 30_000)
		case j <= lines:
			return m.WriteHeap(uint64(j-1) * 64)
		}
		return m.NullSyscall()
	}))
	mustSpawn(t, sys, 1, "victim", 0, computes(3000, 150))
	mustRun(t, sys)

	if n := len(sys.Trace().Filter(trace.PadOverrun)); n != 0 {
		t.Fatalf("%d overruns under the recommended pad %d", n, pad)
	}
	// Steady-state dispatch deltas must collapse to one value per
	// switched-from domain.
	deltas := make(map[struct {
		from int
		d    uint64
	}]int)
	count := make(map[int]int)
	for _, e := range sys.Trace().Filter(trace.SwitchEnd) {
		from := int(e.From)
		count[from]++
		if count[from] <= 2 {
			continue
		}
		deltas[struct {
			from int
			d    uint64
		}{from, e.Cycle - e.AuxCycle}]++
	}
	perFrom := map[int]int{}
	for k := range deltas {
		perFrom[k.from]++
	}
	for from, n := range perFrom {
		if n != 1 {
			t.Fatalf("domain %d: %d distinct steady dispatch deltas under recommended pad", from, n)
		}
	}
}

// TestRecommendPadDominatesMeasuredWork compares the static bound with
// the dynamically measured worst-case switch work.
func TestRecommendPadDominatesMeasuredWork(t *testing.T) {
	pcfg := platform.DefaultConfig()
	pcfg.Cores = 1
	pad := RecommendPad(pcfg)

	sys, err := NewSystem(SystemConfig{
		Platform:   pcfg,
		Protection: core.FullProtection(),
		Domains: []core.DomainSpec{
			{Name: "Hi", SliceCycles: 60_000, PadCycles: pad, Colors: mem.ColorRange(1, 32), CodePages: 4, HeapPages: 80},
			{Name: "Lo", SliceCycles: 60_000, PadCycles: pad, Colors: mem.ColorRange(32, 64), CodePages: 4, HeapPages: 16},
		},
		Schedule:    [][]int{{0, 1}},
		EnableTrace: true,
		MaxCycles:   400_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := int(sys.Domains()[0].HeapBytes() / 64)
	mustSpawn(t, sys, 0, "dirtier", 0, loop(6*lines, func(m *Machine, k int) Status {
		return m.WriteHeap(uint64(k%lines) * 64)
	}))
	mustSpawn(t, sys, 1, "other", 0, computes(2000, 150))
	mustRun(t, sys)

	starts := sys.Trace().Filter(trace.SwitchStart)
	ends := sys.Trace().Filter(trace.SwitchEnd)
	var maxWork uint64
	for i := 0; i < len(starts) && i < len(ends); i++ {
		// Work is entry..dispatch minus the pad slack; bound it by
		// entry-to-end which includes the pad, so instead measure via
		// flush events when present.
		_ = i
	}
	for i, e := range sys.Trace().Filter(trace.Flush) {
		if i < len(starts) {
			if w := e.Cycle - starts[i].Cycle; w > maxWork {
				maxWork = w
			}
		}
	}
	if maxWork == 0 {
		t.Fatal("no switch work measured")
	}
	if maxWork > pad {
		t.Fatalf("measured work %d exceeds static bound %d", maxWork, pad)
	}
	t.Logf("static bound %d vs measured worst entry+flush %d (%.1fx headroom)",
		pad, maxWork, float64(pad)/float64(maxWork))
}
