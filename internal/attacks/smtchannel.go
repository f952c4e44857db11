package attacks

import (
	"fmt"

	"timeprot/internal/core"
	"timeprot/internal/hw"
	"timeprot/internal/hw/mem"
	"timeprot/internal/hw/platform"
	"timeprot/internal/kernel"
)

// This file implements T7, the hyperthreading channel of §4.1: SMT
// siblings share all core-local state (L1 caches, TLB, branch predictor,
// prefetcher) *concurrently*, so neither flushing (there is no switch)
// nor colouring (the L1 is virtually indexed) can separate them. The
// paper's conclusion: "hyperthreading is fundamentally insecure, and
// multiple hardware threads must never be allocated to different
// security domains" — a scheduler policy, not a hardware mechanism.
//
// The Trojan on one hardware thread modulates its L1-D footprint; the spy
// on the sibling measures the latency of re-reading its own small
// resident buffer. The defence row co-schedules both domains (identical
// sibling schedules under DisallowSMTSharing), so no cross-domain
// co-residency ever occurs.

const (
	t7WindowLen = 60_000
	t7Slice     = 60_000
	t7Pad       = 20_000
	t7SpyLines  = 48 // spy's resident buffer: 48 lines in distinct sets
	t7TrojWays  = 8  // trojan fills all 8 ways of the shared L1 sets
)

// t7Trojan hammers every way of the L1 sets the spy lives in while the
// window's symbol is 1, and computes otherwise. On SMT siblings this
// evicts the spy's lines *while the spy runs*.
type t7Trojan struct {
	windows  int
	seq      []int
	setOrder []int
	syms     *SymLog

	phase      int
	w          int
	start, end uint64
	pg, si     int
}

func (t *t7Trojan) read(m *kernel.Machine) kernel.Status {
	return m.ReadHeap(uint64(t.pg)*hw.PageSize + uint64(t.setOrder[t.si])*hw.LineSize)
}

func (t *t7Trojan) Step(m *kernel.Machine) kernel.Status {
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
		t.end = t.start + uint64(t.w+1)*t7WindowLen
		t.phase = 3
		return m.Now() // window deadline check
	case 3:
		if m.Time() < t.end {
			if t.seq[t.w] == 1 {
				t.pg, t.si = 0, 0
				t.phase = 4
				return t.read(m)
			}
			t.phase = 5
			return m.Compute(500)
		}
		t.w++
		if t.w == t.windows+4 {
			return kernel.Done
		}
		t.phase = 2
		return m.Now()
	case 4: // hammering sweep
		t.si++
		if t.si == len(t.setOrder) {
			t.si = 0
			t.pg++
		}
		if t.pg < t7TrojWays {
			return t.read(m)
		}
		t.phase = 3
		return m.Now()
	default: // 5: quiet burn finished
		t.phase = 3
		return m.Now()
	}
}

// t7Spy probes once per window, late in the window, then stays off the
// data cache until the next one. Probing continuously would keep the
// spy's own lines most-recently-used, and LRU would then deflect every
// trojan fill onto the trojan's own stale lines — the probe cadence
// must give the eviction set time to win.
type t7Spy struct {
	windows  int
	setOrder []int
	obs      *ObsLog

	phase  int
	w      int
	start  uint64
	target uint64
	si     int
	lat    uint64
}

func (s *t7Spy) Step(m *kernel.Machine) kernel.Status {
	switch s.phase {
	case 0:
		s.phase = 1
		return m.Now()
	case 1:
		s.start = m.Time()
		s.target = s.start + t7WindowLen*3/4
		s.phase = 2
		return m.Now() // wait-loop check
	case 2:
		if m.Time() < s.target {
			s.phase = 3
			return m.Compute(150)
		}
		s.si, s.lat = 0, 0
		s.phase = 4
		return m.ReadHeap(uint64(s.setOrder[s.si]) * hw.LineSize)
	case 3:
		s.phase = 2
		return m.Now()
	case 4: // timed probe of the resident buffer
		s.lat += m.Latency()
		s.si++
		if s.si < len(s.setOrder) {
			return m.ReadHeap(uint64(s.setOrder[s.si]) * hw.LineSize)
		}
		s.phase = 5
		return m.Now()
	default: // 5: observation timestamp
		s.obs.Record(m.Time(), float64(s.lat))
		s.w++
		if s.w == s.windows+4 {
			return kernel.Done
		}
		s.target = s.start + uint64(s.w)*t7WindowLen + t7WindowLen*3/4
		s.phase = 2
		return m.Now()
	}
}

// runSMT runs one T7 configuration. coResident selects the
// insecure placement (Hi and Lo pinned to sibling hardware threads)
// versus the policy-compliant time-shared placement.
func runSMT(cc *CellContext, label string, prot core.Config, coResident bool, windows int, seed uint64) Row {
	pcfg := platform.DefaultConfig()
	pcfg.Cores = 1
	pcfg.SMTWays = 2

	schedule := [][]int{{0, 1}, {0, 1}} // co-scheduled time sharing
	spyCPU, trojCPU := 0, 1
	if coResident {
		schedule = [][]int{{1}, {0}} // Lo on thread 0, Hi on thread 1
	}

	sys, err := kernel.NewSystem(kernel.SystemConfig{
		Platform:   pcfg,
		Pool:       cc.pool,
		Protection: prot,
		Domains: []core.DomainSpec{
			{Name: "Hi", SliceCycles: t7Slice, PadCycles: t7Pad, Colors: mem.ColorRange(1, 32), CodePages: 4, HeapPages: 16},
			{Name: "Lo", SliceCycles: t7Slice, PadCycles: t7Pad, Colors: mem.ColorRange(32, 64), CodePages: 4, HeapPages: 16},
		},
		Schedule:  schedule,
		MaxCycles: uint64(windows+16)*t7WindowLen*4 + 8_000_000,
	})
	if err != nil {
		panic(fmt.Sprintf("attacks: T7 %s: %v", label, err))
	}

	seq := cc.symbolSeq(windows+8, 2, seed)
	setOrder := cc.shuffledOffsets(t7SpyLines, 1, seed^0xE1)

	spawn(sys, 0, "trojan", trojCPU, &t7Trojan{
		windows: windows, seq: seq, setOrder: setOrder, syms: &cc.syms,
	})
	spawn(sys, 1, "spy", spyCPU, &t7Spy{
		windows: windows, setOrder: setOrder, obs: &cc.obs,
	})

	return cc.scalarRow(label, mustRun(sys).Ops, 6, 16, seed^0x7777)
}
