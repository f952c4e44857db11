package attacks

import (
	"fmt"

	"timeprot/internal/core"
	"timeprot/internal/hw"
	"timeprot/internal/hw/interconn"
	"timeprot/internal/hw/mem"
	"timeprot/internal/hw/platform"
	"timeprot/internal/kernel"
)

// This file implements T8, the stateless-interconnect channel that the
// paper explicitly EXCLUDES from time protection's scope (§2): a Trojan
// modulates its memory-bus usage; a spy on another core measures its own
// achieved bandwidth. Three claims are checked empirically:
//
//  1. Full time protection (flush+pad+colour+clone+IRQ partitioning)
//     does not close the channel — it is a bandwidth channel, not a
//     state channel.
//  2. An Intel-MBA-style approximate bandwidth limiter reduces but does
//     not eliminate it (footnote 1: "the approximate enforcement is not
//     sufficient for preventing covert channels").
//  3. Stateless interconnects reveal no ADDRESS information: a Trojan
//     modulating only WHICH addresses it streams (same volume) is
//     invisible, supporting the paper's "no such side channels have been
//     demonstrated ... and they are likely impossible".

type busMode int

const (
	busVolume  busMode = iota // Trojan modulates traffic volume
	busAddress                // Trojan modulates addresses at constant volume
)

const (
	t8WindowLen = 80_000
	t8SpyReads  = 48
)

// t8Trojan streams (or idles) against the bus according to the window's
// symbol.
type t8Trojan struct {
	windows   int
	mode      busMode
	seq       []int
	trojOrder []int
	syms      *SymLog

	phase      int
	w          int
	start, end uint64
	pos        int
}

// payload issues the window's next unit of traffic: a streaming miss, a
// quiet burn, or (address mode) a constant-volume read whose buffer
// half is the symbol.
func (t *t8Trojan) payload(m *kernel.Machine) kernel.Status {
	heap := m.HeapBytes()
	sym := t.seq[t.w]
	switch {
	case t.mode == busVolume && sym == 1:
		off := uint64(t.trojOrder[t.pos%len(t.trojOrder)]*hw.LineSize) % heap
		t.pos++
		return m.ReadHeap(off)
	case t.mode == busVolume:
		return m.Compute(300)
	default:
		off := uint64(t.trojOrder[t.pos%len(t.trojOrder)]*hw.LineSize) % (heap / 2)
		if sym == 1 {
			off += heap / 2
		}
		t.pos++
		return m.ReadHeap(off)
	}
}

func (t *t8Trojan) Step(m *kernel.Machine) kernel.Status {
	switch t.phase {
	case 0: // sample the stream's start time
		t.phase = 1
		return m.Now()
	case 1:
		t.start = m.Time()
		t.phase = 2
		return m.Now() // commit timestamp for window 0
	case 2:
		t.syms.Commit(m.Time(), t.seq[t.w])
		t.end = t.start + uint64(t.w+1)*t8WindowLen
		t.phase = 3
		return m.Now() // window deadline check
	case 3:
		if m.Time() < t.end {
			t.phase = 4
			return t.payload(m)
		}
		t.w++
		if t.w == t.windows+4 {
			return kernel.Done
		}
		t.phase = 2
		return m.Now()
	default: // 4: the payload op completed; re-check the window
		t.phase = 3
		return m.Now()
	}
}

// t8Spy streams its own buffer and times a fixed number of misses — a
// bandwidth probe.
type t8Spy struct {
	windows  int
	spyOrder []int
	obs      *ObsLog

	phase    int
	deadline uint64
	pos, i   int
	lat      uint64
}

func (s *t8Spy) read(m *kernel.Machine) kernel.Status {
	off := uint64(s.spyOrder[s.pos%len(s.spyOrder)]*hw.LineSize) % m.HeapBytes()
	s.pos++
	return m.ReadHeap(off)
}

func (s *t8Spy) Step(m *kernel.Machine) kernel.Status {
	switch s.phase {
	case 0: // loop deadline check
		s.deadline = uint64(s.windows+4) * t8WindowLen
		s.phase = 1
		return m.Now()
	case 1:
		if m.Time() >= s.deadline {
			return kernel.Done
		}
		s.i, s.lat = 0, 0
		s.phase = 2
		return s.read(m)
	case 2: // timed probe burst
		s.lat += m.Latency()
		s.i++
		if s.i < t8SpyReads {
			return s.read(m)
		}
		s.phase = 3
		return m.Now() // observation timestamp
	default: // 3
		s.obs.Record(m.Time(), float64(s.lat))
		s.phase = 1
		return m.Now()
	}
}

// runBus runs one T8 configuration.
func runBus(cc *CellContext, label string, prot core.Config, limiter *interconn.MBALimiter, tdm bool, mode busMode, windows int, seed uint64) Row {
	pcfg := platform.DefaultConfig()
	pcfg.Cores = 2
	pcfg.LLCSets = 512 // small LLC so streams miss continuously
	pcfg.LLCWays = 8
	pcfg.Frames = 4096
	// Bandwidth-bound regime: most of the miss latency is bus
	// occupancy, as on a saturated memory system. A single in-order
	// core can then load the bus to ~60% duty and contention becomes
	// the dominant latency term — the premise of the §2 channel.
	pcfg.Lat.BusBeat = 150
	pcfg.Lat.Mem = 60

	sys, err := kernel.NewSystem(kernel.SystemConfig{
		Platform:   pcfg,
		Pool:       cc.pool,
		Protection: prot,
		Domains: []core.DomainSpec{
			// 126 heap pages = 42 full colour-rotation cycles, so the
			// two buffer halves used by the address-encoding mode have
			// exactly equal colour composition (21 pages per colour each).
			{Name: "Hi", SliceCycles: 400_000, PadCycles: 20_000, Colors: mem.NewColorSet(1, 2, 3), CodePages: 4, HeapPages: 126},
			{Name: "Lo", SliceCycles: 400_000, PadCycles: 20_000, Colors: mem.NewColorSet(4, 5, 6, 7), CodePages: 4, HeapPages: 128},
		},
		Schedule:  [][]int{{1}, {0}}, // Lo on core 0, Hi on core 1
		MaxCycles: uint64(windows+8)*t8WindowLen + 8_000_000,
	})
	if err != nil {
		panic(fmt.Sprintf("attacks: T8 %s: %v", label, err))
	}
	if limiter != nil {
		sys.Machine().Bus.SetLimiter(limiter)
	}
	if tdm {
		// The hypothetical hardware support of §2: strict
		// time-division arbitration. Each core waits for its own
		// fixed slot — a pure function of its own clock, so other
		// cores' traffic is invisible by construction.
		sys.Machine().Bus.SetTDM(interconn.NewTDMSchedule(pcfg.Cores, pcfg.Lat.BusBeat*2, pcfg.Lat.BusBeat))
	}

	seq := cc.symbolSeq(windows+8, 2, seed)
	// Shuffled full-buffer orders: each stream is several times larger
	// than its LLC partition, so misses are sustained, and the
	// shuffling defeats the prefetcher.
	trojOrder := cc.shuffledOffsets(126*hw.LinesPerPage, 1, seed^0xF1)
	spyOrder := cc.shuffledOffsets(128*hw.LinesPerPage, 1, seed^0xF2)

	spawn(sys, 0, "trojan", 1, &t8Trojan{
		windows: windows, mode: mode, seq: seq, trojOrder: trojOrder, syms: &cc.syms,
	})
	spawn(sys, 1, "spy", 0, &t8Spy{
		windows: windows, spyOrder: spyOrder, obs: &cc.obs,
	})

	rep := mustRun(sys)
	labels, vals := cc.label(15)
	est, err := cc.estimateLabelled(labels, vals, 16, seed^0x8888)
	if err != nil {
		panic(err)
	}
	// Amplitude: how much the Trojan slows the spy's probe — the
	// raw signal the MBA limiter attenuates even where capacity
	// survives.
	var sum [2]float64
	var n [2]int
	for i, l := range labels {
		if l == 0 || l == 1 {
			sum[l] += vals[i]
			n[l]++
		}
	}
	amp := 0.0
	if n[0] > 0 && n[1] > 0 {
		amp = sum[1]/float64(n[1]) - sum[0]/float64(n[0])
	}
	return Row{Label: label, Est: est, ErrRate: nan(), SimOps: rep.Ops,
		Extra: []KV{{K: "amplitude_cyc", V: amp}}}
}
