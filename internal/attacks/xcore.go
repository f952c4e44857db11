package attacks

import (
	"fmt"

	"timeprot/internal/core"
	"timeprot/internal/hw"
	"timeprot/internal/hw/mem"
	"timeprot/internal/hw/platform"
	"timeprot/internal/kernel"
)

// This file implements T17, the concurrent cross-core LLC covert
// channel with a multi-bit symbol alphabet. T3 demonstrates the
// cross-core channel at one bit per window; T17 transmits over a
// 4-symbol alphabet — the Trojan picks WHICH of four single-colour
// eviction groups to thrash, the spy probes all four and decodes the
// slowest — so a single window carries up to two bits and the capacity
// estimator is exercised well beyond binary channel matrices (4x4
// confusion matrices with asymmetric error structure). The defence
// story is T3's: flushing and padding are structurally irrelevant to a
// concurrent observer, and only a disjoint colour partition (under
// which the Trojan owns no pages of the spy's probe colours and falls
// back to thrashing its own partition) closes the channel.

const (
	t17Arity     = 4
	t17WindowLen = 150_000
	t17PrimeWays = 2  // spy pages per probe group
	t17ThrashPgs = 10 // Trojan pages per symbol group
)

// T17's Trojan is the shared windowedThrasher with one page group per
// symbol: the symbol selects WHICH single-colour group to thrash.

// t17Spy probes its four single-colour eviction groups in turn; after a
// full cycle the group with the highest total latency is the decoded
// symbol.
type t17Spy struct {
	windows   int
	windowLen uint64
	groups    [t17Arity][]int
	lineOrder []int
	obs       *ObsLog

	phase        int
	grp, pi, li  int
	lat, bestLat uint64
	best         int
	dec          int
	deadline     uint64
}

func (s *t17Spy) read(m *kernel.Machine) kernel.Status {
	pg := s.groups[s.grp][s.pi]
	return m.ReadHeap(uint64(pg)*hw.PageSize + uint64(s.lineOrder[s.li])*hw.LineSize)
}

// advance moves to the next (page, line) of the current group; done
// when the group's sweep is complete.
func (s *t17Spy) advance() (groupDone bool) {
	s.li++
	if s.li == len(s.lineOrder) {
		s.li = 0
		s.pi++
	}
	return s.pi == len(s.groups[s.grp])
}

func (s *t17Spy) Step(m *kernel.Machine) kernel.Status {
	switch s.phase {
	case 0: // initial prime of every group, latencies discarded
		s.deadline = uint64(s.windows+4) * s.windowLen
		s.grp, s.pi, s.li = 0, 0, 0
		s.phase = 1
		return s.read(m)
	case 1:
		if !s.advance() {
			return s.read(m)
		}
		if s.grp+1 < t17Arity {
			s.grp, s.pi, s.li = s.grp+1, 0, 0
			return s.read(m)
		}
		s.phase = 2
		return m.Now() // loop deadline check
	case 2:
		if m.Time() >= s.deadline {
			return kernel.Done
		}
		s.grp, s.pi, s.li = 0, 0, 0
		s.lat, s.bestLat, s.best = 0, 0, 0
		s.phase = 3
		return s.read(m)
	default: // 3: timed probe cycle over the four groups
		s.lat += m.Latency()
		if !s.advance() {
			return s.read(m)
		}
		if s.lat > s.bestLat {
			s.bestLat, s.best = s.lat, s.grp
		}
		if s.grp+1 < t17Arity {
			s.grp, s.pi, s.li = s.grp+1, 0, 0
			s.lat = 0
			return s.read(m)
		}
		s.dec = s.best
		s.phase = 4
		return m.Now() // observation timestamp
	case 4:
		s.obs.Record(m.Time(), float64(s.dec))
		s.phase = 2
		return m.Now()
	}
}

// t17Groups builds the per-colour page groups: the spy's four probe
// groups from its own pages, and the Trojan's four thrash groups from
// whatever pages it owns of the SAME colours — falling back, colour by
// colour, to its own partition when colouring denies it matching pages
// (same memory volume, no set conflicts).
func t17Groups(sys *kernel.System) (spyG, trojG [t17Arity][]int) {
	spyPages := pagesByColor(sys, 1)
	trojPages := pagesByColor(sys, 0)
	spyColors := sortedKeys(spyPages)
	if len(spyColors) < t17Arity {
		panic("attacks: T17: spy needs four colours")
	}
	trojOwn := sortedKeys(trojPages)
	for g := 0; g < t17Arity; g++ {
		c := spyColors[g]
		spyG[g] = firstN(spyPages[c], t17PrimeWays)
		trojG[g] = firstN(trojPages[c], t17ThrashPgs)
		if len(trojG[g]) == 0 {
			own := trojOwn[g%len(trojOwn)]
			trojG[g] = firstN(trojPages[own], t17ThrashPgs)
		}
	}
	return spyG, trojG
}

// runXCore runs one T17 configuration: Trojan and spy co-resident
// forever on separate cores.
func runXCore(cc *CellContext, label string, prot core.Config, rounds int, seed uint64) Row {
	pcfg := platform.DefaultConfig()
	pcfg.Cores = 2
	pcfg.LLCSets = 512 // 256 KiB, 8 colours
	pcfg.LLCWays = 8
	pcfg.Frames = 4096

	sys, err := kernel.NewSystem(kernel.SystemConfig{
		Platform:   pcfg,
		Pool:       cc.pool,
		Protection: prot,
		Domains: []core.DomainSpec{
			{Name: "Hi", SliceCycles: 400_000, PadCycles: 20_000, Colors: mem.ColorRange(1, 4), CodePages: 4, HeapPages: 128},
			{Name: "Lo", SliceCycles: 400_000, PadCycles: 20_000, Colors: mem.ColorRange(4, 8), CodePages: 4, HeapPages: 64},
		},
		Schedule:  [][]int{{1}, {0}}, // Lo on core 0, Hi on core 1
		MaxCycles: uint64(rounds+8)*t17WindowLen + 8_000_000,
	})
	if err != nil {
		panic(fmt.Sprintf("attacks: T17 %s: %v", label, err))
	}

	spyG, trojG := t17Groups(sys)
	seq := cc.symbolSeq(rounds+8, t17Arity, seed)
	lineOrder := cc.shuffledOffsets(hw.LinesPerPage, 2, seed^0x17B)

	spawn(sys, 0, "trojan", 1, &windowedThrasher{
		windows: rounds, windowLen: t17WindowLen,
		seq: seq, groups: trojG[:], lineOrder: lineOrder, syms: &cc.syms,
	})
	spawn(sys, 1, "spy", 0, &t17Spy{
		windows: rounds, windowLen: t17WindowLen,
		groups: spyG, lineOrder: lineOrder, obs: &cc.obs,
	})

	return cc.decodedRow(label, mustRun(sys).Ops, 6, seed^0x1717)
}
