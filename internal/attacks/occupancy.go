package attacks

import (
	"fmt"

	"timeprot/internal/core"
	"timeprot/internal/hw"
	"timeprot/internal/hw/mem"
	"timeprot/internal/hw/platform"
	"timeprot/internal/kernel"
)

// This file implements T16, the whole-LLC occupancy channel: a
// concurrent cross-core channel carried not by WHICH sets the Trojan
// touches (T3's address channel) but by HOW MUCH of the shared LLC it
// occupies. The Trojan modulates its total footprint per window; the
// inclusive LLC back-invalidates the spy's private copies as occupancy
// pressure evicts the spy's lines, so the spy's re-touch latency over a
// resident set spanning its whole partition integrates the Trojan's
// volume.
//
// The canonical sweep walks the COLOUR-PARTITION WIDTH of the platform:
// the number of page colours the LLC geometry induces (LLC sets × line
// / page), which is the granularity at which the OS can partition it at
// all. The designer arms colouring whenever a disjoint user split
// exists. At 8 colours a 3+4 split closes the channel; at 4 colours a
// minimal 1+2 split still closes it; at 2 colours the kernel-reserved
// colour (core.KernelReservedColor) leaves a single user colour, no
// disjoint split exists, colouring is structurally unarmable, and the
// occupancy channel stays open — colouring alone cannot close the
// channel once the platform's colour granularity is this coarse, the
// residual-channel observation of Buckley et al. [2023]. Flushing and
// padding are structurally irrelevant throughout: no domain switch ever
// happens on either core.

const (
	t16WindowLen = 150_000
	t16SpyPages  = 2  // resident pages per spy colour
	t16LowPages  = 2  // Trojan footprint, symbol 0
	t16HighPages = 56 // Trojan footprint, symbol 1
)

// T16's Trojan is the shared windowedThrasher with two volume groups:
// the symbol is the occupancy volume, not an address.

// t16Spy re-touches a resident set spanning every colour it owns and
// records the total latency per sweep — an occupancy integral, not a
// per-set probe.
type t16Spy struct {
	windows   int
	windowLen uint64
	pages     []int
	lineOrder []int
	obs       *ObsLog

	phase    int
	pi, li   int
	lat      uint64
	ts       uint64
	deadline uint64
}

func (s *t16Spy) read(m *kernel.Machine) kernel.Status {
	pg := s.pages[s.pi]
	return m.ReadHeap(uint64(pg)*hw.PageSize + uint64(s.lineOrder[s.li])*hw.LineSize)
}

// advance moves to the next (page, line); done when the sweep is over.
func (s *t16Spy) advance() (done bool) {
	s.li++
	if s.li == len(s.lineOrder) {
		s.li = 0
		s.pi++
	}
	return s.pi == len(s.pages)
}

func (s *t16Spy) Step(m *kernel.Machine) kernel.Status {
	switch s.phase {
	case 0: // initial prime, latencies discarded
		s.deadline = uint64(s.windows+4) * s.windowLen
		s.pi, s.li = 0, 0
		s.phase = 1
		return s.read(m)
	case 1:
		if !s.advance() {
			return s.read(m)
		}
		s.phase = 2
		return m.Now() // loop deadline check
	case 2:
		if m.Time() >= s.deadline {
			return kernel.Done
		}
		s.phase = 3
		return m.Now() // observation timestamp
	case 3:
		s.ts = m.Time()
		s.pi, s.li, s.lat = 0, 0, 0
		s.phase = 4
		return s.read(m)
	default: // 4: timed re-touch of the whole resident set
		s.lat += m.Latency()
		if !s.advance() {
			return s.read(m)
		}
		s.obs.Record(s.ts, float64(s.lat))
		s.phase = 2
		return m.Now()
	}
}

// t16Layout is one variant's platform-and-partition layout: the LLC
// geometry (which fixes the colour count at llcSets/64) and the domain
// colour sets. Nil colour sets mean no disjoint user split exists at
// this width and colouring stays off.
type t16Layout struct {
	llcSets int
	hi, lo  mem.ColorSet
}

// t16ResidentPages picks up to per pages of each colour the domain
// owns, in colour order — a resident set spanning the whole partition.
func t16ResidentPages(byColor map[int][]int, per int) []int {
	var out []int
	for _, c := range sortedKeys(byColor) {
		out = append(out, firstN(byColor[c], per)...)
	}
	return out
}

// t16VolumePages returns n pages spread round-robin across the domain's
// colours, so occupancy grows evenly over the whole footprint.
func t16VolumePages(byColor map[int][]int, n int) []int {
	colors := sortedKeys(byColor)
	var out []int
	for i := 0; len(out) < n; i++ {
		any := false
		for _, c := range colors {
			if i < len(byColor[c]) {
				out = append(out, byColor[c][i])
				any = true
				if len(out) == n {
					break
				}
			}
		}
		if !any {
			break
		}
	}
	return out
}

// runOccupancy runs one T16 configuration: Trojan and spy on separate
// cores, concurrent forever, with the variant's colour layout.
func runOccupancy(cc *CellContext, label string, prot core.Config, layout t16Layout, rounds int, seed uint64) Row {
	pcfg := platform.DefaultConfig()
	pcfg.Cores = 2
	pcfg.LLCSets = layout.llcSets // the swept knob: colours = sets/64
	pcfg.LLCWays = 8
	pcfg.Frames = 4096

	sys, err := kernel.NewSystem(kernel.SystemConfig{
		Platform:   pcfg,
		Pool:       cc.pool,
		Protection: prot,
		Domains: []core.DomainSpec{
			{Name: "Hi", SliceCycles: 400_000, PadCycles: 20_000, Colors: layout.hi, CodePages: 4, HeapPages: 64},
			{Name: "Lo", SliceCycles: 400_000, PadCycles: 20_000, Colors: layout.lo, CodePages: 4, HeapPages: 16},
		},
		Schedule:  [][]int{{1}, {0}}, // Lo on core 0, Hi on core 1
		MaxCycles: uint64(rounds+8)*t16WindowLen + 8_000_000,
	})
	if err != nil {
		panic(fmt.Sprintf("attacks: T16 %s: %v", label, err))
	}

	trojPages := pagesByColor(sys, 0)
	spyPages := pagesByColor(sys, 1)

	seq := cc.symbolSeq(rounds+8, 2, seed)
	lineOrder := cc.shuffledOffsets(hw.LinesPerPage, 2, seed^0x16C)

	spawn(sys, 0, "trojan", 1, &windowedThrasher{
		windows: rounds, windowLen: t16WindowLen,
		seq: seq,
		groups: [][]int{
			t16VolumePages(trojPages, t16LowPages),
			t16VolumePages(trojPages, t16HighPages),
		},
		lineOrder: lineOrder, syms: &cc.syms,
	})
	spawn(sys, 1, "spy", 0, &t16Spy{
		windows: rounds, windowLen: t16WindowLen,
		pages:     t16ResidentPages(spyPages, t16SpyPages),
		lineOrder: lineOrder, obs: &cc.obs,
	})

	return cc.scalarRow(label, mustRun(sys).Ops, 6, 16, seed^0x16F)
}
