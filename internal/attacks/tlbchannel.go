package attacks

import (
	"fmt"

	"timeprot/internal/core"
	"timeprot/internal/hw"
	"timeprot/internal/hw/mem"
	"timeprot/internal/hw/platform"
	"timeprot/internal/kernel"
)

// This file implements T14, the TLB capacity channel — the timing side
// of the §5.3 story. The functional theorem says one ASID's operations
// never corrupt another's translations; but the TLB is still a FINITE
// shared structure, so the NUMBER of entries a Trojan touches evicts a
// measurable number of the spy's translations — page-walk latencies
// reveal the Trojan's working-set size. Exactly why the TLB appears in
// the paper's flushable-state list (§4.1): consistency partitioning by
// ASID is not timing partitioning.

const (
	t14Slice  = 100_000
	t14Pad    = 25_000
	t14Arity  = 4
	t14PerSym = 16 // pages touched per symbol step (TLB has 64 entries)
	t14SpySet = 12 // spy's resident translations
)

// t14Trojan touches (sym+1)*perSym distinct pages per slice — its TLB
// footprint is the symbol.
type t14Trojan struct {
	rounds int
	seq    []int
	syms   *SymLog

	phase int
	r     int
	p, n  int
	epoch uint64
	spin  epochSpin
}

func (t *t14Trojan) Step(m *kernel.Machine) kernel.Status {
	switch t.phase {
	case 0:
		t.phase = 1
		return m.Epoch()
	case 1: // begin round 0's page walk
		t.epoch = m.Value()
		t.n = (t.seq[t.r] + 1) * t14PerSym
		t.p = 0
		t.phase = 2
		return m.ReadHeap(uint64(t.p) * hw.PageSize)
	case 2: // advance the footprint sweep
		t.p++
		if t.p < t.n {
			return m.ReadHeap(uint64(t.p) * hw.PageSize)
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
		t.n = (t.seq[t.r] + 1) * t14PerSym
		t.p = 0
		t.phase = 2
		return m.ReadHeap(uint64(t.p) * hw.PageSize)
	}
}

// t14Spy keeps a fixed set of translations resident; at slice start it
// re-touches them and totals the latency — every evicted entry costs a
// page walk.
type t14Spy struct {
	rounds int
	obs    *ObsLog

	phase int
	r, p  int
	lat   uint64
	ts    uint64
	epoch uint64
	spin  epochSpin
}

func (s *t14Spy) Step(m *kernel.Machine) kernel.Status {
	switch s.phase {
	case 0: // initial warming touch, latencies discarded
		s.p = 0
		s.phase = 1
		return m.ReadHeap(uint64(s.p) * hw.PageSize)
	case 1:
		s.p++
		if s.p < t14SpySet {
			return m.ReadHeap(uint64(s.p) * hw.PageSize)
		}
		s.phase = 2
		return m.Epoch()
	case 2:
		s.epoch = m.Value()
		s.phase = 3
		return s.spin.start(s.epoch, m)
	case 3: // aligning spin before the first round
		e, done, st := s.spin.step(m)
		if !done {
			return st
		}
		s.epoch = e
		s.phase = 4
		return m.Now() // observation timestamp, taken before the touch
	case 4:
		s.ts = m.Time()
		s.p, s.lat = 0, 0
		s.phase = 5
		return m.ReadHeap(uint64(s.p) * hw.PageSize)
	case 5: // timed re-touch of the resident set
		s.lat += m.Latency()
		s.p++
		if s.p < t14SpySet {
			return m.ReadHeap(uint64(s.p) * hw.PageSize)
		}
		s.obs.Record(s.ts, float64(s.lat))
		s.phase = 6
		return s.spin.start(s.epoch, m)
	default: // 6: spinning between rounds
		e, done, st := s.spin.step(m)
		if !done {
			return st
		}
		s.epoch = e
		s.r++
		if s.r == s.rounds+4 {
			return kernel.Done
		}
		s.phase = 4
		return m.Now()
	}
}

// runTLBChannel runs one T14 configuration.
func runTLBChannel(cc *CellContext, label string, prot core.Config, rounds int, seed uint64) Row {
	pcfg := platform.DefaultConfig()
	pcfg.Cores = 1

	sys, err := kernel.NewSystem(kernel.SystemConfig{
		Platform:   pcfg,
		Pool:       cc.pool,
		Protection: prot,
		Domains: []core.DomainSpec{
			{Name: "Hi", SliceCycles: t14Slice, PadCycles: t14Pad, Colors: mem.ColorRange(1, 32), CodePages: 4, HeapPages: 80},
			{Name: "Lo", SliceCycles: t14Slice, PadCycles: t14Pad, Colors: mem.ColorRange(32, 64), CodePages: 4, HeapPages: 16},
		},
		Schedule:  [][]int{{0, 1}},
		MaxCycles: uint64(rounds+16) * (t14Slice + t14Pad + 60_000) * 2,
	})
	if err != nil {
		panic(fmt.Sprintf("attacks: T14 %s: %v", label, err))
	}

	seq := cc.symbolSeq(rounds+8, t14Arity, seed)

	spawn(sys, 0, "trojan", 0, &t14Trojan{
		rounds: rounds, seq: seq, syms: &cc.syms, spin: epochSpin{burn: 180},
	})
	spawn(sys, 1, "spy", 0, &t14Spy{
		rounds: rounds, obs: &cc.obs, spin: epochSpin{burn: 180},
	})

	return cc.scalarRow(label, mustRun(sys).Ops, 3, 16, seed^0x71B)
}
