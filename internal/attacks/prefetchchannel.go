package attacks

import (
	"fmt"

	"timeprot/internal/core"
	"timeprot/internal/hw"
	"timeprot/internal/hw/mem"
	"timeprot/internal/hw/platform"
	"timeprot/internal/kernel"
)

// This file implements T15, the stride-prefetcher channel — the
// residual core-local channel of the §4.1 taxonomy that neither
// colouring nor padding touches. The prefetcher watches DEMAND access
// strides and issues speculative fills the demand stream never asked
// for; those fills are ordinary cache insertions, so they evict. The
// Trojan touches the SAME five heap lines every round but orders them
// by its secret: one order ends on a confirmed stride whose next
// speculative fill lands in a cache set the Trojan never demand-touches
// (the probe set), the other order's final confirmations stay inside
// the demand footprint. The spy keeps the probe set fully primed and
// times its re-touch: a speculative fill evicted one spy way exactly
// when the Trojan's secret said so. Only the switch-time flush of the
// prefetcher AND the caches (§4.1) closes this; the demand footprint is
// identical across symbols, so footprint-based defences see nothing.

const (
	t15Slice = 100_000
	t15Pad   = 25_000
	// t15Base is the first demand line (L1 set) of the Trojan's fixed
	// five-line footprint. Sets 0..7 are avoided: the kernel's own
	// entry/exit text and data lines live there, and keeping the
	// protocol clear of them keeps the probe set kernel-quiet.
	t15Base = 8
	// t15Lines is the demand footprint size: lines t15Base..t15Base+4,
	// identical for both symbols.
	t15Lines = 5
	// t15Probe is the probe line (= L1 set): the speculative fill
	// target base+5 that only the symbol-1 access order produces.
	t15Probe = t15Base + t15Lines
	// t15Ways primes every way of the probe set (L1 associativity).
	t15Ways = 8
)

// t15Order returns the Trojan's access order over its fixed footprint
// for one symbol. Both orders touch exactly lines base..base+4; they
// differ only in which line is LAST and therefore in where the final
// confirmed stride points the prefetcher:
//
//	sym 0: 12, 8, 9, 10, 11 — the stride-1 run ends at 11; the last
//	       speculative fill is line 12, already inside the footprint.
//	sym 1:  8, 9, 10, 11, 12 — the run ends at 12; the last speculative
//	       fill is line 13 (t15Probe), OUTSIDE the demand footprint.
func t15Order(sym int) []int {
	if sym == 0 {
		return []int{t15Base + 4, t15Base, t15Base + 1, t15Base + 2, t15Base + 3}
	}
	return []int{t15Base, t15Base + 1, t15Base + 2, t15Base + 3, t15Base + 4}
}

// t15Trojan walks its fixed five-line footprint in the symbol's order
// each slice, training the prefetcher without varying the demand set.
type t15Trojan struct {
	rounds int
	seq    []int
	syms   *SymLog

	phase int
	r, i  int
	order []int
	epoch uint64
	spin  epochSpin
}

func (t *t15Trojan) read(m *kernel.Machine) kernel.Status {
	return m.ReadHeap(uint64(t.order[t.i]) * hw.LineSize)
}

func (t *t15Trojan) Step(m *kernel.Machine) kernel.Status {
	switch t.phase {
	case 0:
		t.phase = 1
		return m.Epoch()
	case 1: // starting epoch arrived; begin round 0's walk
		t.epoch = m.Value()
		t.order = t15Order(t.seq[t.r])
		t.i = 0
		t.phase = 2
		return t.read(m)
	case 2: // advance the ordered walk
		t.i++
		if t.i < len(t.order) {
			return t.read(m)
		}
		t.phase = 3
		return m.Now()
	case 3: // commit, then spin to the next slice
		t.syms.Commit(m.Time(), t.seq[t.r])
		t.phase = 4
		return t.spin.start(t.epoch, m)
	default: // 4: spinning between rounds
		e, done, st := t.spin.step(m)
		if !done {
			return st
		}
		t.epoch = e
		t.r++
		if t.r == t.rounds+4 {
			return kernel.Done
		}
		t.order = t15Order(t.seq[t.r])
		t.i = 0
		t.phase = 2
		return t.read(m)
	}
}

// t15Spy keeps all eight ways of the probe set primed (one line per
// heap page, all at page offset t15Probe, so every one of them maps to
// L1 set t15Probe) and times the re-touch each slice. Pages are visited
// in a shuffled order so the spy's own sweep never confirms a stride.
type t15Spy struct {
	rounds    int
	pageOrder []int
	obs       *ObsLog

	phase int
	r, p  int
	lat   uint64
	ts    uint64
	epoch uint64
	spin  epochSpin
}

func (s *t15Spy) read(m *kernel.Machine) kernel.Status {
	pg := s.pageOrder[s.p]
	return m.ReadHeap(uint64(pg)*hw.PageSize + uint64(t15Probe)*hw.LineSize)
}

func (s *t15Spy) Step(m *kernel.Machine) kernel.Status {
	switch s.phase {
	case 0: // initial prime, latencies discarded
		s.p = 0
		s.phase = 1
		return s.read(m)
	case 1:
		s.p++
		if s.p < t15Ways {
			return s.read(m)
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
		return s.read(m)
	case 5: // timed re-touch of the probe set (which also re-primes it)
		s.lat += m.Latency()
		s.p++
		if s.p < t15Ways {
			return s.read(m)
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

// runPrefetchChannel runs one T15 configuration.
func runPrefetchChannel(cc *CellContext, label string, prot core.Config, rounds int, seed uint64) Row {
	pcfg := platform.DefaultConfig()
	pcfg.Cores = 1

	sys, err := kernel.NewSystem(kernel.SystemConfig{
		Platform:   pcfg,
		Pool:       cc.pool,
		Protection: prot,
		Domains: []core.DomainSpec{
			{Name: "Hi", SliceCycles: t15Slice, PadCycles: t15Pad, Colors: mem.ColorRange(1, 32), CodePages: 4, HeapPages: 4},
			{Name: "Lo", SliceCycles: t15Slice, PadCycles: t15Pad, Colors: mem.ColorRange(32, 64), CodePages: 4, HeapPages: t15Ways},
		},
		Schedule:  [][]int{{0, 1}},
		MaxCycles: uint64(rounds+16) * (t15Slice + t15Pad + 60_000) * 2,
	})
	if err != nil {
		panic(fmt.Sprintf("attacks: T15 %s: %v", label, err))
	}

	seq := cc.symbolSeq(rounds+8, 2, seed)

	spawn(sys, 0, "trojan", 0, &t15Trojan{
		rounds: rounds, seq: seq, syms: &cc.syms, spin: epochSpin{burn: 180},
	})
	spawn(sys, 1, "spy", 0, &t15Spy{
		rounds: rounds, pageOrder: cc.shuffledOffsets(t15Ways, 1, seed^0xF3), obs: &cc.obs,
		spin: epochSpin{burn: 180},
	})

	return cc.scalarRow(label, mustRun(sys).Ops, 3, 16, seed^0x15F)
}
