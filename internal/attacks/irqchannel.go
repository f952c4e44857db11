package attacks

import (
	"fmt"

	"timeprot/internal/core"
	"timeprot/internal/hw/mem"
	"timeprot/internal/hw/platform"
	"timeprot/internal/kernel"
)

// This file implements T6, the interrupt channel of §4.2: "interrupts
// could also be used as a channel, if the Trojan triggers an I/O such
// that its completion interrupt fires during Lo's execution. We prevent
// this by partitioning interrupts (other than the preemption timer)
// between domains, and keep all interrupts masked that are not
// associated with the presently-executing domain."
//
// The Trojan either programs its device's completion interrupt to fire in
// the middle of the spy's next slice (sym=1) or stays quiet (sym=0). The
// spy watches for unexplained gaps in its own execution — the footprint
// of the kernel's interrupt handling. With partitioning, the interrupt
// stays masked until the Trojan's domain runs again, and the spy's
// execution is gap-free.

const (
	t6Slice  = 60_000
	t6Pad    = 20_000
	t6FireIn = 100_000 // from Trojan slice start: mid spy slice
	t6GapLo  = 350     // below: ordinary op jitter
	t6GapHi  = 9_000   // above: a domain switch, not an IRQ
)

// t6Trojan programs its completion interrupt when the symbol is 1.
type t6Trojan struct {
	rounds int
	seq    []int
	syms   *SymLog

	phase int
	r     int
	epoch uint64
	spin  epochSpin
}

func (t *t6Trojan) beginRound(m *kernel.Machine) kernel.Status {
	if t.seq[t.r] == 1 {
		t.phase = 2
		return m.StartIO(0, t6FireIn)
	}
	t.phase = 3
	return m.Now()
}

func (t *t6Trojan) Step(m *kernel.Machine) kernel.Status {
	switch t.phase {
	case 0:
		t.phase = 1
		return m.Epoch()
	case 1:
		t.epoch = m.Value()
		return t.beginRound(m)
	case 2: // the StartIO completed
		t.phase = 3
		return m.Now()
	case 3:
		t.syms.Commit(m.Time(), t.seq[t.r])
		t.phase = 4
		return t.spin.start(t.epoch, m)
	default: // 4: spinning to the next slice
		e, done, st := t.spin.step(m)
		if !done {
			return st
		}
		t.epoch = e
		t.r++
		if t.r == t.rounds+4 {
			return kernel.Done
		}
		return t.beginRound(m)
	}
}

// t6Spy continuously reads the cycle counter; per slice it records the
// largest mid-slice gap in the IRQ-footprint range.
type t6Spy struct {
	rounds int
	obs    *ObsLog

	phase  int
	epoch  uint64
	prev   uint64
	t      uint64
	maxGap float64
}

func (s *t6Spy) Step(m *kernel.Machine) kernel.Status {
	switch s.phase {
	case 0:
		s.phase = 1
		return m.Epoch()
	case 1:
		s.epoch = m.Value()
		s.phase = 2
		return m.Now()
	case 2: // first timestamp; enter the sampling loop
		s.prev = m.Time()
		if s.obs.Len() >= s.rounds+6 {
			return kernel.Done
		}
		s.phase = 3
		return m.Now()
	case 3: // the sample's timestamp arrived; check the slice
		s.t = m.Time()
		s.phase = 4
		return m.Epoch()
	case 4:
		if ne := m.Value(); ne != s.epoch {
			s.obs.Record(s.prev, s.maxGap)
			s.maxGap = 0
			s.epoch = ne
			s.phase = 5
			return m.Now()
		}
		if g := float64(s.t - s.prev); g > t6GapLo && g < t6GapHi && g > s.maxGap {
			s.maxGap = g
		}
		s.prev = s.t
		if s.obs.Len() >= s.rounds+6 {
			return kernel.Done
		}
		s.phase = 3
		return m.Now()
	default: // 5: re-anchor after a slice boundary
		s.prev = m.Time()
		if s.obs.Len() >= s.rounds+6 {
			return kernel.Done
		}
		s.phase = 3
		return m.Now()
	}
}

// runIRQChannel runs one T6 configuration.
func runIRQChannel(cc *CellContext, label string, prot core.Config, rounds int, seed uint64) Row {
	pcfg := platform.DefaultConfig()
	pcfg.Cores = 1

	sys, err := kernel.NewSystem(kernel.SystemConfig{
		Platform:   pcfg,
		Pool:       cc.pool,
		Protection: prot,
		Domains: []core.DomainSpec{
			{Name: "Hi", SliceCycles: t6Slice, PadCycles: t6Pad, Colors: mem.ColorRange(1, 32), IRQLines: []int{0}, CodePages: 4, HeapPages: 16},
			{Name: "Lo", SliceCycles: t6Slice, PadCycles: t6Pad, Colors: mem.ColorRange(32, 64), IRQLines: []int{1}, CodePages: 4, HeapPages: 16},
		},
		Schedule:  [][]int{{0, 1}},
		MaxCycles: uint64(rounds+16) * (t6Slice + t6Pad + 60_000) * 2,
	})
	if err != nil {
		panic(fmt.Sprintf("attacks: T6 %s: %v", label, err))
	}

	seq := cc.symbolSeq(rounds+8, 2, seed)

	spawn(sys, 0, "trojan", 0, &t6Trojan{
		rounds: rounds, seq: seq, syms: &cc.syms, spin: epochSpin{burn: 180},
	})
	spawn(sys, 1, "spy", 0, &t6Spy{rounds: rounds, obs: &cc.obs})

	return cc.scalarRow(label, mustRun(sys).Ops, 3, 12, seed^0x6666)
}
