package kernel

import (
	"testing"

	"timeprot/internal/core"
	"timeprot/internal/hw/mem"
	"timeprot/internal/hw/platform"
	"timeprot/internal/trace"
)

// TestThreeDomainRoundRobin: the Fig.-1 pipeline shape — three domains
// sharing one CPU in fixed rotation, messages flowing across two
// endpoints, everything protected.
func TestThreeDomainRoundRobin(t *testing.T) {
	pcfg := platform.DefaultConfig()
	pcfg.Cores = 1
	sys, err := NewSystem(SystemConfig{
		Platform:   pcfg,
		Protection: core.FullProtection(),
		Domains: []core.DomainSpec{
			{Name: "Web", SliceCycles: 20_000, PadCycles: 8_000, Colors: mem.ColorRange(1, 20), CodePages: 2, HeapPages: 4},
			{Name: "Crypto", SliceCycles: 20_000, PadCycles: 8_000, Colors: mem.ColorRange(20, 40), CodePages: 2, HeapPages: 4},
			{Name: "Net", SliceCycles: 20_000, PadCycles: 8_000, Colors: mem.ColorRange(40, 64), CodePages: 2, HeapPages: 4},
		},
		Schedule:    [][]int{{0, 1, 2}},
		Endpoints:   []EndpointSpec{{ID: 0, MinDelivery: 100_000}, {ID: 1, MinDelivery: 100_000}},
		EnableTrace: true,
		MaxCycles:   80_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	const msgs = 5
	mustSpawn(t, sys, 0, "web", 0, loop(2*msgs, func(m *Machine, k int) Status {
		if k%2 == 0 {
			return m.Compute(2_000)
		}
		return m.Send(0, 100+uint64(k/2))
	}))
	var v uint64
	mustSpawn(t, sys, 1, "crypto", 0, loop(3*msgs, func(m *Machine, k int) Status {
		switch k % 3 {
		case 0:
			return m.Recv(0)
		case 1:
			v = m.Value()
			return m.Compute(4_000) // "encrypt"
		}
		return m.Send(1, v+1000)
	}))
	var got []uint64
	mustSpawn(t, sys, 2, "net", 0, loop(msgs+1, func(m *Machine, k int) Status {
		if k > 0 {
			got = append(got, m.Value())
		}
		if k == msgs {
			return Done
		}
		return m.Recv(1)
	}))
	rep := mustRun(t, sys)
	if rep.Deadlocked || rep.HitMaxCycles {
		t.Fatalf("bad termination: %+v", rep)
	}
	for i, v := range got {
		if v != uint64(1100+i) {
			t.Fatalf("pipeline corrupted: got %v", got)
		}
	}
	// All three domains must appear as slice starts.
	seen := map[int]bool{}
	for _, e := range sys.Trace().Filter(trace.SliceStart) {
		seen[int(e.To)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("domains scheduled: %v", seen)
	}
}

// TestCrossCPUIPC: sender and receiver on different cores rendezvous
// correctly with deterministic delivery.
func TestCrossCPUIPC(t *testing.T) {
	pcfg := platform.DefaultConfig()
	pcfg.Cores = 2
	sys, err := NewSystem(SystemConfig{
		Platform:   pcfg,
		Protection: core.FullProtection(),
		Domains: []core.DomainSpec{
			{Name: "Hi", SliceCycles: 30_000, PadCycles: 10_000, Colors: mem.ColorRange(1, 32), CodePages: 2, HeapPages: 4},
			{Name: "Lo", SliceCycles: 30_000, PadCycles: 10_000, Colors: mem.ColorRange(32, 64), CodePages: 2, HeapPages: 4},
		},
		Schedule:  [][]int{{0}, {1}}, // Hi on CPU 0, Lo on CPU 1
		Endpoints: []EndpointSpec{{ID: 0, MinDelivery: 50_000}},
		MaxCycles: 60_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustSpawn(t, sys, 0, "sender", 0, loop(10, func(m *Machine, k int) Status {
		if k%2 == 0 {
			return m.Compute(1_000)
		}
		return m.Send(0, uint64(k/2))
	}))
	var got []uint64
	var times []uint64
	mustSpawn(t, sys, 1, "receiver", 1, loop(6, func(m *Machine, k int) Status {
		if k > 0 {
			got = append(got, m.Value())
			times = append(times, m.Time())
		}
		if k == 5 {
			return Done
		}
		return m.Recv(0)
	}))
	rep := mustRun(t, sys)
	if rep.Deadlocked {
		t.Fatal("cross-CPU IPC deadlocked")
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("payloads out of order: %v", got)
		}
	}
	// Deliveries obey the cadence: at least MinDelivery apart.
	for i := 1; i < len(times); i++ {
		if times[i]-times[i-1] < 50_000 {
			t.Fatalf("cadence violated: %v", times)
		}
	}
}

// TestSMTCoscheduledRuntime: with the SMT-sharing ban and identical
// sibling schedules, two threads of the SAME domain run concurrently on
// the siblings and the system completes cleanly.
func TestSMTCoscheduledRuntime(t *testing.T) {
	pcfg := platform.DefaultConfig()
	pcfg.Cores = 1
	pcfg.SMTWays = 2
	sys, err := NewSystem(SystemConfig{
		Platform:   pcfg,
		Protection: core.FullProtection(),
		Domains: []core.DomainSpec{
			{Name: "Hi", SliceCycles: 30_000, PadCycles: 12_000, Colors: mem.ColorRange(1, 32), CodePages: 2, HeapPages: 8},
			{Name: "Lo", SliceCycles: 30_000, PadCycles: 12_000, Colors: mem.ColorRange(32, 64), CodePages: 2, HeapPages: 8},
		},
		Schedule:  [][]int{{0, 1}, {0, 1}},
		MaxCycles: 120_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for cpu := 0; cpu < 2; cpu++ {
		for d := 0; d < 2; d++ {
			name := string(rune('a'+d)) + string(rune('0'+cpu))
			mustSpawn(t, sys, d, name, cpu, loop(300, func(m *Machine, i int) Status {
				return m.ReadHeap((uint64(i) * 128) % m.HeapBytes())
			}))
		}
	}
	rep := mustRun(t, sys)
	if rep.Deadlocked || rep.HitMaxCycles {
		t.Fatalf("bad termination: %+v", rep)
	}
	// SMT siblings share a clock: both logical CPUs report it.
	if rep.CPUCycles[0] != rep.CPUCycles[1] {
		t.Fatalf("sibling clocks differ: %v", rep.CPUCycles)
	}
}

// TestEpochAdvancesPerSlice: Epoch counts the thread's domain's slices.
func TestEpochAdvancesPerSlice(t *testing.T) {
	s := uniSys(t, core.FullProtection(), nil)
	var epochs []uint64
	steps := 0
	mustSpawn(t, s, 0, "watcher", 0, ProgramFunc(func(m *Machine) Status {
		steps++
		switch {
		case steps == 1:
			return m.Epoch()
		case steps == 2: // the first epoch arrived
			epochs = append(epochs, m.Value())
			return m.Epoch()
		case steps%2 == 1: // a polled epoch arrived
			if e := m.Value(); e != epochs[len(epochs)-1] {
				epochs = append(epochs, e)
			}
			return m.Compute(500)
		case len(epochs) < 4:
			return m.Epoch()
		}
		return Done
	}))
	mustSpawn(t, s, 1, "other", 0, computes(400, 500))
	mustRun(t, s)
	for i := 1; i < len(epochs); i++ {
		if epochs[i] != epochs[i-1]+1 {
			t.Fatalf("epochs not consecutive: %v", epochs)
		}
	}
}

// TestMaxCyclesStopsRunaway: a spinning workload is stopped at the cap
// and reported as such.
func TestMaxCyclesStopsRunaway(t *testing.T) {
	pcfg := platform.DefaultConfig()
	pcfg.Cores = 1
	sys, err := NewSystem(SystemConfig{
		Platform:   pcfg,
		Protection: core.NoProtection(),
		Domains: []core.DomainSpec{
			{Name: "A", SliceCycles: 10_000, CodePages: 1, HeapPages: 1},
		},
		Schedule:  [][]int{{0}},
		MaxCycles: 400_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustSpawn(t, sys, 0, "spinner", 0, ProgramFunc(func(m *Machine) Status {
		return m.Compute(100)
	}))
	rep, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HitMaxCycles {
		t.Fatalf("cap not reported: %+v", rep)
	}
}

// TestUserFetchWrapsCodeRegion: long-running threads wrap their
// synthetic PC over the code pages without faulting.
func TestUserFetchWrapsCodeRegion(t *testing.T) {
	s := uniSys(t, core.FullProtection(), nil)
	// 4 code pages = 256 lines; run well past several wraps.
	mustSpawn(t, s, 0, "wrapper", 0, computes(1500, 10))
	rep := mustRun(t, s)
	if rep.ThreadCycles["wrapper"] == 0 {
		t.Fatal("no progress")
	}
}

// TestSharedHeapVAsAreDistinctPhysically: both domains use the same
// virtual heap addresses; their frames must differ (separate address
// spaces).
func TestSharedHeapVAsAreDistinctPhysically(t *testing.T) {
	s := uniSys(t, core.FullProtection(), nil)
	d0, d1 := s.Domains()[0], s.Domains()[1]
	pte0, ok0 := d0.PT.Lookup(UserHeapVPN)
	pte1, ok1 := d1.PT.Lookup(UserHeapVPN)
	if !ok0 || !ok1 {
		t.Fatal("heap unmapped")
	}
	if pte0.PFN == pte1.PFN {
		t.Fatal("domains share a physical frame")
	}
	m := s.Machine()
	if m.Mem.Color(pte0.PFN) == m.Mem.Color(pte1.PFN) {
		t.Fatal("coloured domains share a colour")
	}
}

// TestSingleDomainScheduleRenewsWithoutSwitch: a lone domain's slice
// renews without the switch protocol (no flush events).
func TestSingleDomainScheduleRenewsWithoutSwitch(t *testing.T) {
	pcfg := platform.DefaultConfig()
	pcfg.Cores = 1
	sys, err := NewSystem(SystemConfig{
		Platform:   pcfg,
		Protection: core.FullProtection(),
		Domains: []core.DomainSpec{
			{Name: "Only", SliceCycles: 10_000, PadCycles: 5_000, Colors: mem.ColorRange(1, 64), CodePages: 2, HeapPages: 4},
		},
		Schedule:    [][]int{{0}},
		EnableTrace: true,
		MaxCycles:   40_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustSpawn(t, sys, 0, "solo", 0, computes(500, 200))
	rep := mustRun(t, sys)
	if rep.Switches != 0 {
		t.Fatalf("switches = %d, want 0", rep.Switches)
	}
	if n := len(sys.Trace().Filter(trace.Flush)); n != 0 {
		t.Fatalf("flushes on slice renewal: %d", n)
	}
	if n := len(sys.Trace().Filter(trace.SliceStart)); n < 3 {
		t.Fatalf("slice renewals missing: %d", n)
	}
}
