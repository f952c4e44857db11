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
	prot    core.Config
	llcSets int
	hi, lo  mem.ColorSet
}

// t16Spec returns the canonical colour-partition-width sweep. Colour 0
// stays reserved for the kernel throughout, which is exactly what makes
// the 2-colour platform unsplittable.
func t16Spec(label string) t16Layout {
	switch label {
	case "no colouring (8 colours)":
		// The baseline ablation: the platform could be split 3+4 but
		// the designer left colouring off.
		return t16Layout{prot: flushPadConfig(), llcSets: 512}
	case "coarse: 2 colours, no split":
		// 128-set LLC -> colours {0,1}; 0 is the kernel's, so no
		// disjoint user split exists and colouring cannot be armed.
		return t16Layout{prot: flushPadConfig(), llcSets: 128}
	case "split: 4 colours (1+2)":
		return t16Layout{
			prot: core.FullProtection(), llcSets: 256,
			hi: mem.ColorRange(1, 2), // {1}
			lo: mem.ColorRange(2, 4), // {2,3}
		}
	case "split: 8 colours (full)":
		return t16Layout{
			prot: core.FullProtection(), llcSets: 512,
			hi: mem.ColorRange(1, 4), // {1,2,3}
			lo: mem.ColorRange(4, 8), // {4..7}
		}
	}
	panic("attacks: T16: unknown variant " + label)
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

// buildOccupancy constructs one T16 configuration: Trojan and spy on
// separate cores, concurrent forever, with the variant's colour layout.
func buildOccupancy(label string, rounds int, seed uint64, cc *CellContext) (*kernel.System, func(kernel.Report) Row) {
	layout := t16Spec(label)
	pcfg := platform.DefaultConfig()
	pcfg.Cores = 2
	pcfg.LLCSets = layout.llcSets // the swept knob: colours = sets/64
	pcfg.LLCWays = 8
	pcfg.Frames = 4096

	sys, err := kernel.NewSystem(kernel.SystemConfig{
		Platform:   pcfg,
		Pool:       cc.pool,
		Protection: layout.prot,
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
	syms := &cc.syms
	obs := &cc.obs
	lineOrder := cc.shuffledOffsets(hw.LinesPerPage, 2, seed^0x16C)

	spawn(sys, 0, "trojan", 1, &windowedThrasher{
		windows: rounds, windowLen: t16WindowLen,
		seq: seq,
		groups: [][]int{
			t16VolumePages(trojPages, t16LowPages),
			t16VolumePages(trojPages, t16HighPages),
		},
		lineOrder: lineOrder, syms: syms,
	})
	spawn(sys, 1, "spy", 0, &t16Spy{
		windows: rounds, windowLen: t16WindowLen,
		pages:     t16ResidentPages(spyPages, t16SpyPages),
		lineOrder: lineOrder, obs: obs,
	})

	return sys, func(rep kernel.Report) Row {
		labels, vals := cc.label(syms, obs, 6)
		est, err := cc.estimateLabelled(labels, vals, 16, seed^0x16F)
		if err != nil {
			panic(err)
		}
		return Row{Label: label, Est: est, ErrRate: nan(), SimOps: rep.Ops}
	}
}

// runOccupancy runs one T16 configuration.
func runOccupancy(cc *CellContext, label string, rounds int, seed uint64) Row {
	sys, finish := buildOccupancy(label, rounds, seed, cc)
	return finish(mustRun(sys))
}

// T16Occupancy reproduces experiment T16: the whole-LLC occupancy
// channel across the colour-partition-width sweep — open with colouring
// off and on the unsplittable 2-colour platform, closed by a disjoint
// split at 4 or 8 colours.
func T16Occupancy(rounds int, seed uint64) Experiment {
	return mustScenario("T16").Experiment(rounds, seed)
}
