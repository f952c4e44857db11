package kernel

import (
	"strings"
	"testing"

	"timeprot/internal/core"
	"timeprot/internal/hw"
	"timeprot/internal/hw/cpu"
	"timeprot/internal/hw/mem"
	"timeprot/internal/hw/platform"
	"timeprot/internal/trace"
)

// uniSys builds a uniprocessor system with two domains, Hi (0) and Lo
// (1), round-robin on CPU 0.
func uniSys(t *testing.T, prot core.Config, eps []EndpointSpec) *System {
	t.Helper()
	pcfg := platform.DefaultConfig()
	pcfg.Cores = 1
	scfg := SystemConfig{
		Platform:   pcfg,
		Protection: prot,
		Domains: []core.DomainSpec{
			{Name: "Hi", SliceCycles: 20000, PadCycles: 8000, Colors: mem.ColorRange(1, 32), IRQLines: []int{0}, CodePages: 4, HeapPages: 16},
			{Name: "Lo", SliceCycles: 20000, PadCycles: 8000, Colors: mem.ColorRange(32, 64), IRQLines: []int{1}, CodePages: 4, HeapPages: 16},
		},
		Schedule:    [][]int{{0, 1}},
		Endpoints:   eps,
		EnableTrace: true,
		MaxCycles:   20_000_000,
	}
	sys, err := NewSystem(scfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func mustSpawn(t *testing.T, s *System, dom int, name string, cpu int, p Program) *Thread {
	t.Helper()
	th, err := s.SpawnProgram(dom, name, cpu, p)
	if err != nil {
		t.Fatal(err)
	}
	return th
}

// loop is a program of up to n steps, the k-th (from 0) taken by
// step(m, k), after which it exits. A step sees the previous
// operation's result through m and may end the program early by
// returning Done.
func loop(n int, step func(m *Machine, k int) Status) ProgramFunc {
	k := 0
	return func(m *Machine) Status {
		if k == n {
			return Done
		}
		k++
		return step(m, k-1)
	}
}

// computes is a program of n Compute(cycles) operations.
func computes(n int, cycles uint64) ProgramFunc {
	return loop(n, func(m *Machine, _ int) Status { return m.Compute(cycles) })
}

// seq runs programs one after another as a single program.
func seq(ps ...Program) ProgramFunc {
	return func(m *Machine) Status {
		for ; len(ps) > 0; ps = ps[1:] {
			if ps[0].Step(m) == Running {
				return Running
			}
		}
		return Done
	}
}

func mustRun(t *testing.T, s *System) Report {
	t.Helper()
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range rep.Errors {
		t.Errorf("thread error: %v", e)
	}
	return rep
}

func TestSingleThreadComputeRuns(t *testing.T) {
	s := uniSys(t, core.FullProtection(), nil)
	mustSpawn(t, s, 0, "worker", 0, computes(10, 100))
	rep := mustRun(t, s)
	if rep.ThreadCycles["worker"] == 0 {
		t.Fatal("worker consumed no cycles")
	}
	if rep.Deadlocked || rep.HitMaxCycles {
		t.Fatalf("bad termination: %+v", rep)
	}
}

func TestReadWriteLatenciesReflectCacheState(t *testing.T) {
	s := uniSys(t, core.NoProtection(), nil)
	var cold, hot uint64
	mustSpawn(t, s, 0, "w", 0, loop(3, func(m *Machine, k int) Status {
		switch k {
		case 0:
			return m.ReadHeap(0)
		case 1:
			cold = m.Latency()
			return m.ReadHeap(0)
		}
		hot = m.Latency()
		return Done
	}))
	mustRun(t, s)
	if hot >= cold {
		t.Fatalf("hot=%d cold=%d: cache has no effect", hot, cold)
	}
}

func TestDomainSwitchesHappen(t *testing.T) {
	s := uniSys(t, core.FullProtection(), nil)
	mustSpawn(t, s, 0, "hi", 0, computes(2000, 50))
	mustSpawn(t, s, 1, "lo", 0, computes(2000, 50))
	rep := mustRun(t, s)
	if rep.Switches < 4 {
		t.Fatalf("only %d switches", rep.Switches)
	}
	if len(s.Trace().Filter(trace.SwitchEnd)) != rep.Switches {
		t.Fatal("trace switch count mismatch")
	}
}

// TestPaddedSwitchConstantDispatch is the heart of §4.2: with flush+pad,
// the time from a domain's slice start to the next domain's dispatch is a
// constant, independent of how many lines the first domain dirtied.
func TestPaddedSwitchConstantDispatch(t *testing.T) {
	s := uniSys(t, core.FullProtection(), nil)
	// Vary dirty-line count wildly across slices.
	mustSpawn(t, s, 0, "trojan", 0, dirtyRounds(12, func(round int) int { return 1 + (round%4)*120 }, 3000))
	mustSpawn(t, s, 1, "spy", 0, computes(600, 100))
	mustRun(t, s)
	var deltas []uint64
	for _, e := range s.Trace().Filter(trace.SwitchEnd) {
		if e.From == 0 { // switches away from the trojan
			deltas = append(deltas, e.Cycle-e.AuxCycle)
		}
	}
	if len(deltas) < 3 {
		t.Fatalf("too few switches: %d", len(deltas))
	}
	// The first switch is allowed to differ: the incoming domain's own
	// kernel-exit path is LLC-cold on its very first dispatch, which
	// depends only on the incoming domain's own history (never on the
	// trojan's). All steady-state deltas must be identical.
	steady := deltas[1:]
	for _, d := range steady[1:] {
		if d != steady[0] {
			t.Fatalf("dispatch deltas vary under full protection: %v", deltas)
		}
	}
	if len(s.Trace().Filter(trace.PadOverrun)) != 0 {
		t.Fatal("pad overran; PadCycles too small for workload")
	}
}

// dirtyRounds is a program of rounds rounds, each dirtying lines(round)
// heap lines and then computing for burn cycles.
func dirtyRounds(rounds int, lines func(round int) int, burn uint64) ProgramFunc {
	var ps []Program
	for round := 0; round < rounds; round++ {
		n := lines(round)
		ps = append(ps, loop(n+1, func(m *Machine, i int) Status {
			if i == n {
				return m.Compute(burn)
			}
			return m.WriteHeap(uint64(i*64) % m.HeapBytes())
		}))
	}
	return seq(ps...)
}

// TestUnpaddedSwitchLeaksDirtyCount is the ablation: flush without pad
// makes the dispatch delta depend on the trojan's dirty lines.
func TestUnpaddedSwitchLeaksDirtyCount(t *testing.T) {
	cfg := core.FullProtection()
	cfg.PadSwitch = false
	s := uniSys(t, cfg, nil)
	mustSpawn(t, s, 0, "trojan", 0, dirtyRounds(12, func(round int) int { return 1 + (round%2)*400 }, 2000))
	mustSpawn(t, s, 1, "spy", 0, computes(600, 100))
	mustRun(t, s)
	seen := make(map[uint64]bool)
	for _, e := range s.Trace().Filter(trace.SwitchEnd) {
		if e.From == 0 {
			seen[e.Cycle-e.AuxCycle] = true
		}
	}
	if len(seen) < 2 {
		t.Fatalf("unpadded dispatch deltas do not vary: %v", seen)
	}
}

// TestEarlyYieldHiddenByPadding: a domain that gives up its slice early
// must not move the next domain's start time when padding is armed.
func TestEarlyYieldHiddenByPadding(t *testing.T) {
	// ops is how many small compute operations the worker performs
	// before exiting — i.e. how early it gives up its first slice.
	dispatchDeltas := func(prot core.Config, ops int) []uint64 {
		s := uniSys(t, prot, nil)
		mustSpawn(t, s, 0, "worker", 0, computes(ops, 150))
		mustSpawn(t, s, 1, "other", 0, computes(200, 100))
		mustRun(t, s)
		var out []uint64
		for _, e := range s.Trace().Filter(trace.SwitchEnd) {
			if e.From == 0 {
				out = append(out, e.Cycle-e.AuxCycle)
			}
		}
		return out
	}
	// Under protection, a worker that exits almost immediately and one
	// that computes most of its slice yield identical switch timing
	// (comparing the first switch of each run: identical cold state).
	short := dispatchDeltas(core.FullProtection(), 2)
	long := dispatchDeltas(core.FullProtection(), 90)
	if len(short) == 0 || len(long) == 0 {
		t.Fatal("no switches observed")
	}
	if short[0] != long[0] {
		t.Fatalf("padded dispatch delta depends on work: %d vs %d", short[0], long[0])
	}
	// Without protection the early exit is visible.
	shortU := dispatchDeltas(core.NoProtection(), 2)
	longU := dispatchDeltas(core.NoProtection(), 90)
	if shortU[0] == longU[0] {
		t.Fatalf("unprotected dispatch delta should depend on work: %d vs %d", shortU[0], longU[0])
	}
}

func TestFlushOnSwitchColdMissAfterSwitch(t *testing.T) {
	readAfterSwitch := func(prot core.Config) uint64 {
		s := uniSys(t, prot, nil)
		var second uint64
		mustSpawn(t, s, 1, "spy", 0, loop(43, func(m *Machine, k int) Status {
			switch {
			case k == 0: // warm
				return m.ReadHeap(0)
			case k <= 40:
				// Burn the rest of the slice so the next read
				// happens after Hi's slice (and a domain switch).
				return m.Compute(1000)
			case k == 41:
				return m.ReadHeap(0)
			}
			second = m.Latency()
			return Done
		}))
		mustSpawn(t, s, 0, "hi", 0, computes(40, 1000))
		mustRun(t, s)
		return second
	}
	flushed := readAfterSwitch(core.FullProtection())
	unflushed := readAfterSwitch(core.NoProtection())
	if flushed <= unflushed {
		t.Fatalf("flush must cold-miss the spy's own line: flushed=%d unflushed=%d", flushed, unflushed)
	}
}

func TestCrossDomainIPCMinDelivery(t *testing.T) {
	eps := []EndpointSpec{{ID: 0, MinDelivery: 15000}}
	s := uniSys(t, core.FullProtection(), eps)
	mustSpawn(t, s, 0, "crypto", 0, loop(2, func(m *Machine, k int) Status {
		if k == 0 {
			return m.Compute(2500) // fast, secret-dependent work finishes early
		}
		return m.Send(0, 42)
	}))
	var got uint64
	mustSpawn(t, s, 1, "net", 0, loop(2, func(m *Machine, k int) Status {
		if k == 0 {
			return m.Recv(0)
		}
		got = m.Value()
		return Done
	}))
	mustRun(t, s)
	if got != 42 {
		t.Fatalf("payload = %d", got)
	}
	deliveries := s.Trace().Filter(trace.IPCDeliver)
	if len(deliveries) != 1 {
		t.Fatalf("deliveries = %d", len(deliveries))
	}
	d := deliveries[0]
	// Delivery must be gated to sender slice start + MinDelivery, not
	// the (early) send time.
	if d.Cycle-d.AuxCycle == 0 {
		t.Fatal("delivery not delayed despite MinDelivery")
	}
	if len(s.Trace().Filter(trace.PadOverrun)) != 0 {
		t.Fatal("unexpected overrun")
	}
}

func TestIPCMinDeliveryOverrunDetected(t *testing.T) {
	eps := []EndpointSpec{{ID: 0, MinDelivery: 100}} // absurdly tight
	s := uniSys(t, core.FullProtection(), eps)
	mustSpawn(t, s, 0, "crypto", 0, loop(2, func(m *Machine, k int) Status {
		if k == 0 {
			return m.Compute(5000)
		}
		return m.Send(0, 1)
	}))
	mustSpawn(t, s, 1, "net", 0, loop(1, func(m *Machine, _ int) Status { return m.Recv(0) }))
	mustRun(t, s)
	if len(s.Trace().Filter(trace.PadOverrun)) == 0 {
		t.Fatal("overrun of MinDelivery must be recorded")
	}
}

func TestIntraDomainIPCNotGated(t *testing.T) {
	eps := []EndpointSpec{{ID: 0, MinDelivery: 15000}}
	s := uniSys(t, core.FullProtection(), eps)
	mustSpawn(t, s, 0, "a", 0, loop(1, func(m *Machine, _ int) Status { return m.Send(0, 7) }))
	mustSpawn(t, s, 0, "b", 0, loop(1, func(m *Machine, _ int) Status { return m.Recv(0) }))
	mustRun(t, s)
	d := s.Trace().Filter(trace.IPCDeliver)
	if len(d) != 1 {
		t.Fatalf("deliveries = %d", len(d))
	}
	if d[0].Latency != 0 {
		t.Fatalf("intra-domain delivery delayed by %d", d[0].Latency)
	}
}

func TestIRQPartitioningDefersDelivery(t *testing.T) {
	deliveredDuring := func(prot core.Config) hw.DomainID {
		s := uniSys(t, prot, nil)
		mustSpawn(t, s, 0, "trojan", 0, loop(101, func(m *Machine, k int) Status {
			if k == 0 {
				// Fire the completion IRQ in the middle of Lo's
				// next slice.
				return m.StartIO(0, 30000)
			}
			return m.Compute(500)
		}))
		mustSpawn(t, s, 1, "lo", 0, computes(100, 500))
		mustRun(t, s)
		irqs := s.Trace().Filter(trace.IRQDeliver)
		if len(irqs) == 0 {
			t.Fatal("IRQ never delivered")
		}
		return irqs[0].To
	}
	if got := deliveredDuring(core.NoProtection()); got != 1 {
		t.Fatalf("unpartitioned IRQ delivered to domain %d, want 1 (Lo interrupted)", got)
	}
	if got := deliveredDuring(core.FullProtection()); got != 0 {
		t.Fatalf("partitioned IRQ delivered to domain %d, want 0 (deferred to owner)", got)
	}
}

func TestStartIOOnForeignLineRejected(t *testing.T) {
	s := uniSys(t, core.FullProtection(), nil)
	mustSpawn(t, s, 0, "bad", 0, loop(1, func(m *Machine, _ int) Status {
		return m.StartIO(1, 100) // line 1 belongs to Lo
	}))
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors) != 1 || !strings.Contains(rep.Errors[0].Error(), "does not own IRQ") {
		t.Fatalf("errors = %v", rep.Errors)
	}
}

func TestPageFaultReportedAsThreadError(t *testing.T) {
	s := uniSys(t, core.FullProtection(), nil)
	mustSpawn(t, s, 0, "fault", 0, loop(1, func(m *Machine, _ int) Status {
		return m.Read(hw.Addr(0xdead << hw.PageBits))
	}))
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors) != 1 || !strings.Contains(rep.Errors[0].Error(), "page fault") {
		t.Fatalf("errors = %v", rep.Errors)
	}
}

// TestDirectFaultReportedAsThreadError: a faulting operation ends its
// program — Step is never called again, so a program can neither
// observe nor recover from a fault — and the run reports the fault.
func TestDirectFaultReportedAsThreadError(t *testing.T) {
	s := uniSys(t, core.FullProtection(), nil)
	steps := 0
	th := mustSpawn(t, s, 0, "fault", 0, ProgramFunc(func(m *Machine) Status {
		steps++
		if steps == 1 {
			return m.Read(hw.Addr(0xdead << hw.PageBits))
		}
		return m.Compute(10)
	}))
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if steps != 1 || th.State() != "exited" {
		t.Fatalf("faulted program stepped %d times, state %s; want 1, exited", steps, th.State())
	}
	if len(rep.Errors) != 1 || !strings.Contains(rep.Errors[0].Error(), "page fault") {
		t.Fatalf("errors = %v", rep.Errors)
	}
}

// TestProgramContractFaults: each way a program can break the Step
// contract faults its own thread with an exact message, and a second
// thread on the same system still runs to completion.
func TestProgramContractFaults(t *testing.T) {
	for _, tc := range []struct {
		name string
		prog Program
		want string
		ops  uint64 // operations the run executes in total
	}{
		{"panic", loop(2, func(m *Machine, k int) Status {
			if k == 1 {
				panic("boom")
			}
			return m.Compute(10)
		}), "kernel: thread bad panicked: boom", 51},
		{"running-without-op", ProgramFunc(func(*Machine) Status { return Running }),
			"kernel: thread bad panicked: program returned Running without issuing an operation", 50},
		{"op-and-done", ProgramFunc(func(m *Machine) Status { m.Compute(1); return Done }),
			"kernel: thread bad panicked: program issued an operation and returned Done", 50},
		{"two-ops", ProgramFunc(func(m *Machine) Status { m.Compute(1); return m.Compute(1) }),
			"kernel: thread bad panicked: kernel: program issued two operations in one step", 50},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := uniSys(t, core.FullProtection(), nil)
			mustSpawn(t, s, 0, "bad", 0, tc.prog)
			good := mustSpawn(t, s, 0, "good", 0, computes(50, 100))
			rep, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Errors) != 1 || rep.Errors[0].Error() != tc.want {
				t.Fatalf("errors = %q, want exactly [%q]", rep.Errors, tc.want)
			}
			if good.State() != "exited" || rep.Ops != tc.ops || rep.Deadlocked || rep.HitMaxCycles {
				t.Fatalf("second thread did not complete: state %s, ops %d, report %+v", good.State(), rep.Ops, rep)
			}
		})
	}
}

// TestNonProgramPanicPropagates: the event loop's recover faults only a
// program's own panic; a panic raised outside any Step (here by a
// switch inspector) is a simulator bug and reaches Run's caller.
func TestNonProgramPanicPropagates(t *testing.T) {
	s := uniSys(t, core.FullProtection(), nil)
	mustSpawn(t, s, 0, "hi", 0, computes(100, 500))
	mustSpawn(t, s, 1, "lo", 0, computes(100, 500))
	s.SetSwitchInspector(func(int, *cpu.Core) { panic("inspector") })
	defer func() {
		if r := recover(); r != "inspector" {
			t.Fatalf("recovered %v, want the inspector's panic", r)
		}
	}()
	s.Run()
	t.Fatal("Run returned despite a panic outside program code")
}

func TestDeadlockDetected(t *testing.T) {
	s := uniSys(t, core.FullProtection(), []EndpointSpec{{ID: 0}})
	mustSpawn(t, s, 0, "waiter", 0, loop(1, func(m *Machine, _ int) Status {
		return m.Recv(0) // nobody will ever send
	}))
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Deadlocked {
		t.Fatalf("deadlock not detected: %+v", rep)
	}
}

func TestYieldRoundRobinsWithinDomain(t *testing.T) {
	s := uniSys(t, core.FullProtection(), nil)
	var order []string
	for _, name := range []string{"a", "b"} {
		mustSpawn(t, s, 0, name, 0, loop(3, func(m *Machine, _ int) Status {
			order = append(order, name)
			return m.Yield()
		}))
	}
	mustRun(t, s)
	want := "ababab"
	var got strings.Builder
	for _, o := range order {
		got.WriteString(o)
	}
	if got.String() != want {
		t.Fatalf("yield order %q, want %q", got.String(), want)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (Report, int, uint64) {
		s := uniSys(t, core.FullProtection(), []EndpointSpec{{ID: 0, MinDelivery: 15000}})
		mustSpawn(t, s, 0, "hi", 0, loop(601, func(m *Machine, k int) Status {
			i := uint64(k / 2)
			switch {
			case k == 600:
				return m.Send(0, 99)
			case k%2 == 0:
				return m.WriteHeap((i * 128) % m.HeapBytes())
			}
			return m.Branch(i%512, i%3 == 0)
		}))
		mustSpawn(t, s, 1, "lo", 0, loop(301, func(m *Machine, k int) Status {
			if k == 300 {
				return m.Recv(0)
			}
			return m.ReadHeap((uint64(k) * 64) % m.HeapBytes())
		}))
		rep := mustRun(t, s)
		last := uint64(0)
		if n := s.Trace().Len(); n > 0 {
			last = s.Trace().Events()[n-1].Cycle
		}
		return rep, s.Trace().Len(), last
	}
	r1, n1, l1 := run()
	r2, n2, l2 := run()
	if r1.CPUCycles[0] != r2.CPUCycles[0] || n1 != n2 || l1 != l2 {
		t.Fatalf("nondeterministic: cycles %d vs %d, events %d vs %d, last %d vs %d",
			r1.CPUCycles[0], r2.CPUCycles[0], n1, n2, l1, l2)
	}
}

func TestSpawnValidation(t *testing.T) {
	s := uniSys(t, core.FullProtection(), nil)
	exit := ProgramFunc(func(*Machine) Status { return Done })
	if _, err := s.SpawnProgram(9, "x", 0, exit); err == nil {
		t.Error("unknown domain accepted")
	}
	if _, err := s.SpawnProgram(0, "x", 5, exit); err == nil {
		t.Error("unknown CPU accepted")
	}
	mustSpawn(t, s, 0, "ok", 0, exit)
	mustRun(t, s)
	if _, err := s.SpawnProgram(0, "late", 0, exit); err == nil {
		t.Error("Spawn after Run accepted")
	}
	if _, err := s.Run(); err == nil {
		t.Error("second Run accepted")
	}
}

func TestNewSystemValidation(t *testing.T) {
	pcfg := platform.DefaultConfig()
	pcfg.Cores = 1
	base := SystemConfig{
		Platform:   pcfg,
		Protection: core.FullProtection(),
		Domains: []core.DomainSpec{
			{Name: "A", SliceCycles: 1000, Colors: mem.ColorRange(1, 2), CodePages: 1, HeapPages: 1},
			{Name: "B", SliceCycles: 1000, Colors: mem.ColorRange(2, 3), CodePages: 1, HeapPages: 1},
		},
		Schedule: [][]int{{0, 1}},
	}
	if _, err := NewSystem(base); err != nil {
		t.Fatalf("base config rejected: %v", err)
	}

	overlap := base
	overlap.Domains = []core.DomainSpec{
		{Name: "A", SliceCycles: 1000, Colors: mem.ColorRange(1, 3), CodePages: 1, HeapPages: 1},
		{Name: "B", SliceCycles: 1000, Colors: mem.ColorRange(2, 4), CodePages: 1, HeapPages: 1},
	}
	if _, err := NewSystem(overlap); err == nil {
		t.Error("overlapping colours accepted under colouring")
	}

	reserved := base
	reserved.Domains = []core.DomainSpec{
		{Name: "A", SliceCycles: 1000, Colors: mem.ColorRange(0, 2), CodePages: 1, HeapPages: 1},
		{Name: "B", SliceCycles: 1000, Colors: mem.ColorRange(2, 3), CodePages: 1, HeapPages: 1},
	}
	if _, err := NewSystem(reserved); err == nil {
		t.Error("kernel-reserved colour accepted for a user domain")
	}

	dupIRQ := base
	dupIRQ.Domains = []core.DomainSpec{
		{Name: "A", SliceCycles: 1000, Colors: mem.ColorRange(1, 2), IRQLines: []int{0}, CodePages: 1, HeapPages: 1},
		{Name: "B", SliceCycles: 1000, Colors: mem.ColorRange(2, 3), IRQLines: []int{0}, CodePages: 1, HeapPages: 1},
	}
	if _, err := NewSystem(dupIRQ); err == nil {
		t.Error("duplicate IRQ ownership accepted")
	}

	badSched := base
	badSched.Schedule = [][]int{{0, 7}}
	if _, err := NewSystem(badSched); err == nil {
		t.Error("schedule with unknown domain accepted")
	}

	badEP := base
	badEP.Endpoints = []EndpointSpec{{ID: 1}, {ID: 1}}
	if _, err := NewSystem(badEP); err == nil {
		t.Error("duplicate endpoint accepted")
	}
}

func TestSMTSharingPolicyValidation(t *testing.T) {
	pcfg := platform.DefaultConfig()
	pcfg.Cores = 1
	pcfg.SMTWays = 2
	mk := func(prot core.Config, sched [][]int) error {
		_, err := NewSystem(SystemConfig{
			Platform:   pcfg,
			Protection: prot,
			Domains: []core.DomainSpec{
				{Name: "A", SliceCycles: 1000, Colors: mem.ColorRange(1, 2), CodePages: 1, HeapPages: 1},
				{Name: "B", SliceCycles: 1000, Colors: mem.ColorRange(2, 3), CodePages: 1, HeapPages: 1},
			},
			Schedule: sched,
		})
		return err
	}
	// Policy armed: different sibling schedules rejected.
	if err := mk(core.FullProtection(), [][]int{{0}, {1}}); err == nil {
		t.Error("cross-domain SMT schedule accepted under DisallowSMTSharing")
	}
	// Identical schedules fine.
	if err := mk(core.FullProtection(), [][]int{{0, 1}, {0, 1}}); err != nil {
		t.Errorf("co-scheduled siblings rejected: %v", err)
	}
	// Policy disarmed: insecure placement allowed (the T7 attack).
	insecure := core.NoProtection()
	if err := mk(insecure, [][]int{{0}, {1}}); err != nil {
		t.Errorf("insecure SMT placement rejected without policy: %v", err)
	}
}

func TestKernelEntryTouchesKernelText(t *testing.T) {
	// Syscall latency must depend on kernel-text cache state: a first
	// syscall (cold kernel text) is slower than an immediately
	// repeated one (warm).
	s := uniSys(t, core.NoProtection(), []EndpointSpec{{ID: 0}})
	var ts []uint64
	mustSpawn(t, s, 0, "a", 0, loop(6, func(m *Machine, k int) Status {
		switch k {
		case 0, 2, 4:
			return m.Now()
		case 1, 3:
			ts = append(ts, m.Time())
			return m.StartIO(0, 1_000_000_000) // harmless far-future IO as a syscall probe
		}
		ts = append(ts, m.Time())
		return Done
	}))
	mustRun(t, s)
	first, second := ts[1]-ts[0], ts[2]-ts[1]
	if second >= first {
		t.Fatalf("kernel text caching invisible: first=%d second=%d", first, second)
	}
}

func TestThreadCyclesAccounted(t *testing.T) {
	s := uniSys(t, core.FullProtection(), nil)
	mustSpawn(t, s, 0, "big", 0, computes(100, 1000))
	mustSpawn(t, s, 0, "small", 0, computes(1, 10))
	rep := mustRun(t, s)
	if rep.ThreadCycles["big"] <= rep.ThreadCycles["small"] {
		t.Fatalf("cycle accounting wrong: %v", rep.ThreadCycles)
	}
}
