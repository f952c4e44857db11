package kernel

import (
	"testing"

	"timeprot/internal/core"
	"timeprot/internal/hw/mem"
	"timeprot/internal/hw/platform"
	"timeprot/internal/trace"
)

// orderHash folds the event loop's visible order into one FNV-1a
// digest: every Program.Step mixes the stepping thread and the
// Machine.Time() it observes, and the run's final CPU clocks and op
// count close the digest.
type orderHash struct {
	h     uint64
	steps int
}

func newOrderHash() *orderHash { return &orderHash{h: 1469598103934665603} }

func (o *orderHash) mix(v uint64) {
	o.h ^= v
	o.h *= 1099511628211
}

// wrap returns p with every Step recorded under thread id.
func (o *orderHash) wrap(id uint64, p Program) ProgramFunc {
	return func(m *Machine) Status {
		o.mix(id)
		o.mix(m.Time())
		o.steps++
		return p.Step(m)
	}
}

func (o *orderHash) finish(rep Report) {
	for _, c := range rep.CPUCycles {
		o.mix(c)
	}
	o.mix(rep.Ops)
	o.mix(uint64(len(rep.Errors)))
}

// orderCrossCore: two cores with different domain schedules and
// clocks, a cross-core IPC stream gated by a minimum delivery time,
// and device interrupts on both cores.
func orderCrossCore(t *testing.T, o *orderHash) {
	pcfg := platform.DefaultConfig()
	pcfg.Cores = 2
	sys, err := NewSystem(SystemConfig{
		Platform:   pcfg,
		Protection: core.FullProtection(),
		Domains: []core.DomainSpec{
			{Name: "Hi", SliceCycles: 30_000, PadCycles: 10_000, Colors: mem.ColorRange(1, 20), IRQLines: []int{0}, CodePages: 2, HeapPages: 4},
			{Name: "Lo", SliceCycles: 25_000, PadCycles: 10_000, Colors: mem.ColorRange(20, 40), IRQLines: []int{1}, CodePages: 2, HeapPages: 4},
			{Name: "Aux", SliceCycles: 12_000, PadCycles: 6_000, Colors: mem.ColorRange(40, 64), CodePages: 2, HeapPages: 4},
		},
		Schedule:    [][]int{{0, 2}, {1}},
		Endpoints:   []EndpointSpec{{ID: 0, MinDelivery: 40_000}},
		EnableTrace: true,
		MaxCycles:   60_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustSpawn(t, sys, 0, "sender", 0, o.wrap(1, loop(40, func(m *Machine, k int) Status {
		switch {
		case k == 3:
			return m.StartIO(0, 20_000)
		case k%4 == 1:
			return m.Send(0, uint64(k))
		case k%4 == 2:
			return m.WriteHeap(uint64(k) * 192 % m.HeapBytes())
		}
		return m.Compute(700 + uint64(k)*13)
	})))
	mustSpawn(t, sys, 2, "aux", 0, o.wrap(2, loop(60, func(m *Machine, k int) Status {
		if k%3 == 0 {
			return m.ReadHeap(uint64(k) * 64 % m.HeapBytes())
		}
		return m.Compute(900)
	})))
	mustSpawn(t, sys, 1, "receiver", 1, o.wrap(3, loop(30, func(m *Machine, k int) Status {
		switch {
		case k == 2:
			return m.StartIO(1, 5_000)
		case k%3 == 0:
			return m.Recv(0)
		case k%3 == 1:
			return m.Now()
		}
		return m.ReadHeap(uint64(k) * 320 % m.HeapBytes())
	})))
	mustSpawn(t, sys, 1, "lo2", 1, o.wrap(4, loop(40, func(m *Machine, k int) Status {
		if k%5 == 4 {
			return m.Yield()
		}
		return m.Compute(400)
	})))
	rep := mustRun(t, sys)
	if rep.Deadlocked || rep.HitMaxCycles {
		t.Fatalf("bad termination: %+v", rep)
	}
	if irqs, ipcs := len(sys.Trace().Filter(trace.IRQDeliver)), len(sys.Trace().Filter(trace.IPCDeliver)); irqs != 2 || ipcs != 10 {
		t.Fatalf("%d IRQ and %d IPC deliveries, want 2 and 10", irqs, ipcs)
	}
	o.finish(rep)
}

// orderSMT: two cores of 2-way SMT siblings, each sibling pair sharing
// one clock and one domain schedule.
func orderSMT(t *testing.T, o *orderHash) {
	pcfg := platform.DefaultConfig()
	pcfg.Cores = 2
	pcfg.SMTWays = 2
	sys, err := NewSystem(SystemConfig{
		Platform:   pcfg,
		Protection: core.FullProtection(),
		Domains: []core.DomainSpec{
			{Name: "Hi", SliceCycles: 20_000, PadCycles: 12_000, Colors: mem.ColorRange(1, 32), CodePages: 2, HeapPages: 8},
			{Name: "Lo", SliceCycles: 20_000, PadCycles: 12_000, Colors: mem.ColorRange(32, 64), CodePages: 2, HeapPages: 8},
		},
		Schedule:  [][]int{{0, 1}, {0, 1}, {1, 0}, {1, 0}},
		MaxCycles: 120_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	id := uint64(1)
	for cpu := 0; cpu < 4; cpu++ {
		for d := 0; d < 2; d++ {
			stride := uint64(64 * (cpu + d + 1))
			mustSpawn(t, sys, d, string(rune('a'+d))+string(rune('0'+cpu)), cpu, o.wrap(id, loop(80+10*cpu, func(m *Machine, i int) Status {
				if i%7 == 6 {
					return m.Compute(300)
				}
				return m.ReadHeap((uint64(i) * stride) % m.HeapBytes())
			})))
			id++
		}
	}
	rep := mustRun(t, sys)
	if rep.Deadlocked || rep.HitMaxCycles {
		t.Fatalf("bad termination: %+v", rep)
	}
	o.finish(rep)
}

// orderPanic: a program that panics mid-run beside a healthy thread on
// the same CPU and another on a second core; the run must fault only
// the panicking thread and carry on.
func orderPanic(t *testing.T, o *orderHash) {
	pcfg := platform.DefaultConfig()
	pcfg.Cores = 2
	sys, err := NewSystem(SystemConfig{
		Platform:   pcfg,
		Protection: core.FullProtection(),
		Domains: []core.DomainSpec{
			{Name: "Hi", SliceCycles: 20_000, PadCycles: 8_000, Colors: mem.ColorRange(1, 32), CodePages: 2, HeapPages: 4},
			{Name: "Lo", SliceCycles: 20_000, PadCycles: 8_000, Colors: mem.ColorRange(32, 64), CodePages: 2, HeapPages: 4},
		},
		Schedule:  [][]int{{0, 1}, {1}},
		MaxCycles: 20_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustSpawn(t, sys, 0, "bad", 0, o.wrap(1, loop(50, func(m *Machine, k int) Status {
		if k == 17 {
			panic("boom")
		}
		return m.WriteHeap(uint64(k) * 64 % m.HeapBytes())
	})))
	mustSpawn(t, sys, 0, "good", 0, o.wrap(2, computes(60, 350)))
	mustSpawn(t, sys, 1, "other", 1, o.wrap(3, loop(70, func(m *Machine, k int) Status {
		return m.ReadHeap(uint64(k) * 128 % m.HeapBytes())
	})))
	rep, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors) != 1 || rep.Errors[0].Error() != "kernel: thread bad panicked: boom" {
		t.Fatalf("errors = %q, want only bad's panic", rep.Errors)
	}
	if rep.Deadlocked || rep.HitMaxCycles {
		t.Fatalf("bad termination: %+v", rep)
	}
	o.finish(rep)
}

// TestEventLoopOrderPinned pins the order in which the event loop
// steps threads, and the time each observes, across the loop's
// scheduling shortcuts: CPU selection over unequal clocks, SMT sibling
// alternation, and recovery from a panicking program. The constants
// were captured from the plain pick-the-lowest-clock-every-step loop;
// any change to them is a change to the simulation.
func TestEventLoopOrderPinned(t *testing.T) {
	for _, tc := range []struct {
		name  string
		run   func(*testing.T, *orderHash)
		steps int
		hash  uint64
	}{
		{"cross-core-ipc", orderCrossCore, 174, 0x4ff2577e291e6d44},
		{"smt-siblings", orderSMT, 768, 0x2e3759798389a9db},
		{"panic-beside-healthy", orderPanic, 150, 0xe15acc3b740799d8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := newOrderHash()
			tc.run(t, o)
			if o.steps != tc.steps || o.h != tc.hash {
				t.Errorf("event-loop order: %d steps, hash %#x; want %d steps, hash %#x", o.steps, o.h, tc.steps, tc.hash)
			}
		})
	}
}
