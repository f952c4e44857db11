package attacks

import (
	"fmt"

	"timeprot/internal/core"
	"timeprot/internal/hw/mem"
	"timeprot/internal/hw/platform"
	"timeprot/internal/kernel"
)

// This file implements T13, the branch-predictor channel — one of the
// stateful resources §3.1 lists explicitly ("caches, TLBs, branch
// predictors and pre-fetcher state machines"). The predictor's pattern
// history table is indexed by virtual program-counter bits, and both
// domains' code segments share the same virtual base, so a Trojan's
// training of a branch aliases exactly onto the spy's branch at the same
// code offset. The spy reads the secret out of its own misprediction
// latency. Like all core-local time-shared state, the predictor is
// closed by resetting it to a defined state on domain switches (§4.1).

const (
	t13Slice     = 60_000
	t13Pad       = 20_000
	t13TrainPC   = 2048 // code offset of the aliased branch
	t13Trainings = 40
)

// t13Trojan trains the branch at trainPC towards the symbol's
// direction, hard (the 2-bit counters saturate), once per slice.
type t13Trojan struct {
	rounds int
	seq    []int
	syms   *SymLog

	phase int
	r, i  int
	epoch uint64
	spin  epochSpin
}

func (t *t13Trojan) Step(m *kernel.Machine) kernel.Status {
	switch t.phase {
	case 0:
		t.phase = 1
		return m.Epoch()
	case 1: // begin round 0's training burst
		t.epoch = m.Value()
		t.i = 0
		t.phase = 2
		return m.Branch(t13TrainPC, t.seq[t.r] == 1)
	case 2: // advance the burst
		t.i++
		if t.i < t13Trainings {
			return m.Branch(t13TrainPC, t.seq[t.r] == 1)
		}
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
		t.i = 0
		t.phase = 2
		return m.Branch(t13TrainPC, t.seq[t.r] == 1)
	}
}

// t13Spy executes the aliased branch not-taken once at its slice start
// and observes the latency: a misprediction means the Trojan trained it
// taken. The probe itself re-biases the counter, so the spy reads
// before any retraining.
type t13Spy struct {
	rounds int
	obs    *ObsLog

	phase int
	r     int
	dec   int
	epoch uint64
	spin  epochSpin
}

func (s *t13Spy) Step(m *kernel.Machine) kernel.Status {
	switch s.phase {
	case 0:
		s.phase = 1
		return m.Epoch()
	case 1:
		s.epoch = m.Value()
		s.phase = 2
		return s.spin.start(s.epoch, m)
	case 2: // aligning spin before the first round
		e, done, st := s.spin.step(m)
		if !done {
			return st
		}
		s.epoch = e
		s.phase = 3
		return m.Branch(t13TrainPC, false)
	case 3: // probe latency arrived
		s.dec = 0
		if m.Latency() > 1 { // misprediction penalty
			s.dec = 1
		}
		s.phase = 4
		return m.Now()
	case 4:
		s.obs.Record(m.Time(), float64(s.dec))
		s.phase = 5
		return s.spin.start(s.epoch, m)
	default: // 5: spinning between rounds
		e, done, st := s.spin.step(m)
		if !done {
			return st
		}
		s.epoch = e
		s.r++
		if s.r == s.rounds+4 {
			return kernel.Done
		}
		s.phase = 3
		return m.Branch(t13TrainPC, false)
	}
}

// runBPChannel runs one T13 configuration.
func runBPChannel(cc *CellContext, label string, prot core.Config, rounds int, seed uint64) Row {
	pcfg := platform.DefaultConfig()
	pcfg.Cores = 1

	sys, err := kernel.NewSystem(kernel.SystemConfig{
		Platform:   pcfg,
		Pool:       cc.pool,
		Protection: prot,
		Domains: []core.DomainSpec{
			{Name: "Hi", SliceCycles: t13Slice, PadCycles: t13Pad, Colors: mem.ColorRange(1, 32), CodePages: 4, HeapPages: 8},
			{Name: "Lo", SliceCycles: t13Slice, PadCycles: t13Pad, Colors: mem.ColorRange(32, 64), CodePages: 4, HeapPages: 8},
		},
		Schedule:  [][]int{{0, 1}},
		MaxCycles: uint64(rounds+16) * (t13Slice + t13Pad + 60_000) * 2,
	})
	if err != nil {
		panic(fmt.Sprintf("attacks: T13 %s: %v", label, err))
	}

	seq := cc.symbolSeq(rounds+8, 2, seed)

	spawn(sys, 0, "trojan", 0, &t13Trojan{
		rounds: rounds, seq: seq, syms: &cc.syms, spin: epochSpin{burn: 180},
	})
	spawn(sys, 1, "spy", 0, &t13Spy{
		rounds: rounds, obs: &cc.obs, spin: epochSpin{burn: 180},
	})

	return cc.decodedRow(label, mustRun(sys).Ops, 3, seed^0xBB13)
}
