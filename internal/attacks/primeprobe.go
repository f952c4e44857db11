package attacks

import (
	"fmt"

	"timeprot/internal/core"
	"timeprot/internal/hw"
	"timeprot/internal/hw/mem"
	"timeprot/internal/hw/platform"
	"timeprot/internal/kernel"
)

// This file implements the cache prime-and-probe attacks (Osvik et al.
// 2006; Percival 2005), the paper's canonical example of exploiting
// competition for stateful shared hardware (§3.1):
//
//   - T2: the time-shared core-private L1-D cache. The spy primes the
//     cache during its slice; the Trojan encodes a symbol in WHICH cache
//     sets it touches; the spy's probe latencies reveal the set group —
//     address information, the basis of high-bandwidth channels. Flushing
//     on domain switch resets the L1 to a defined state and closes it.
//   - T3: the concurrently shared LLC across cores, where flushing
//     cannot help and partitioning by page colouring is the only defence
//     (§4.1).
//
// Probe loops visit lines in a shuffled order: a sequential sweep would
// train the stride prefetcher, which then hides the very misses the probe
// measures. Real attacks do the same.
//
// Both scenarios run as direct kernel.Program state machines — the
// simulator's hot path — with each closure-era loop nest flattened into
// explicit per-thread state.

// l1Params sizes the T2 scenario.
type l1Params struct {
	groups       int
	setsPerGroup int
	primeWays    int
	trojanWays   int
	rounds       int
	slice, pad   uint64
}

func defaultL1Params(rounds int) l1Params {
	return l1Params{
		groups:       4,
		setsPerGroup: 16, // 64 L1 sets / 4 groups
		primeWays:    2,
		trojanWays:   8,
		rounds:       rounds,
		slice:        100_000,
		pad:          25_000,
	}
}

// t2Trojan transmits the symbol sequence through the L1: in its k-th
// slice it touches every way of every set in group seq[k], commits the
// symbol, then spins to its next slice. The line offset within a page
// equals the L1 set index (64-set VIPT L1, 64 lines per page), so page
// pg at offset set*64 fills way pg of set `set`.
type t2Trojan struct {
	p        l1Params
	seq      []int
	setOrder []int
	syms     *SymLog

	phase  int
	r      int
	pg, si int
	epoch  uint64
	spin   epochSpin
}

func (t *t2Trojan) read(m *kernel.Machine) kernel.Status {
	set := t.seq[t.r]*t.p.setsPerGroup + t.setOrder[t.si]
	return m.ReadHeap(uint64(t.pg)*hw.PageSize + uint64(set)*hw.LineSize)
}

func (t *t2Trojan) Step(m *kernel.Machine) kernel.Status {
	switch t.phase {
	case 0: // read the starting epoch
		t.phase = 1
		return m.Epoch()
	case 1: // starting epoch arrived; begin round 0's sweep
		t.epoch = m.Value()
		t.pg, t.si = 0, 0
		t.phase = 2
		return t.read(m)
	case 2: // one touch returned; advance the sweep
		t.si++
		if t.si == len(t.setOrder) {
			t.si = 0
			t.pg++
		}
		if t.pg < t.p.trojanWays {
			return t.read(m)
		}
		t.phase = 3
		return m.Now() // commit timestamp
	case 3: // commit the symbol, then spin to the next slice
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
		if t.r == t.p.rounds+4 {
			return kernel.Done
		}
		t.pg, t.si = 0, 0
		t.phase = 2
		return t.read(m)
	}
}

// l1Probe is the spy's probe sweep as a program fragment: visit every
// prime way of every set group in shuffled order, accumulating latency
// per group; the slowest group is the decoded symbol.
type l1Probe struct {
	p        l1Params
	setOrder []int

	g, pg, si    int
	lat, bestLat uint64
	best         int
}

// start resets the sweep and issues its first read.
func (pr *l1Probe) start(m *kernel.Machine) kernel.Status {
	pr.g, pr.pg, pr.si = 0, 0, 0
	pr.lat, pr.bestLat, pr.best = 0, 0, 0
	return pr.read(m)
}

func (pr *l1Probe) read(m *kernel.Machine) kernel.Status {
	set := pr.g*pr.p.setsPerGroup + pr.setOrder[pr.si]
	return m.ReadHeap(uint64(pr.pg)*hw.PageSize + uint64(set)*hw.LineSize)
}

// step consumes the previous read's latency and issues the next one;
// done with the decoded group when the sweep completes.
func (pr *l1Probe) step(m *kernel.Machine) (dec int, done bool, st kernel.Status) {
	pr.lat += m.Latency()
	pr.si++
	if pr.si == len(pr.setOrder) {
		pr.si = 0
		pr.pg++
		if pr.pg == pr.p.primeWays {
			pr.pg = 0
			if pr.lat > pr.bestLat {
				pr.bestLat, pr.best = pr.lat, pr.g
			}
			pr.lat = 0
			pr.g++
			if pr.g == pr.p.groups {
				return pr.best, true, 0
			}
		}
	}
	return 0, false, pr.read(m)
}

// t2Spy probes (and thereby re-primes) its resident lines at the top of
// each slice; the group with the highest total latency is the decoded
// symbol.
type t2Spy struct {
	p    l1Params
	obs  *ObsLog
	prb  l1Probe
	spin epochSpin

	phase int
	r     int
	epoch uint64
	dec   int
}

func (s *t2Spy) Step(m *kernel.Machine) kernel.Status {
	switch s.phase {
	case 0: // initial prime
		s.phase = 1
		return s.prb.start(m)
	case 1:
		if _, done, st := s.prb.step(m); !done {
			return st
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
		return s.prb.start(m)
	case 4: // per-round probe
		dec, done, st := s.prb.step(m)
		if !done {
			return st
		}
		s.dec = dec
		s.phase = 5
		return m.Now()
	case 5: // record the decode, then spin to the next slice
		s.obs.Record(m.Time(), float64(s.dec))
		s.phase = 6
		return s.spin.start(s.epoch, m)
	default: // 6: spinning between rounds
		e, done, st := s.spin.step(m)
		if !done {
			return st
		}
		s.epoch = e
		s.r++
		if s.r == s.p.rounds+4 {
			return kernel.Done
		}
		s.phase = 4
		return s.prb.start(m)
	}
}

// runL1PrimeProbe runs one T2 configuration and returns its row.
func runL1PrimeProbe(cc *CellContext, label string, prot core.Config, rounds int, seed uint64) Row {
	p := defaultL1Params(rounds)
	pcfg := platform.DefaultConfig()
	pcfg.Cores = 1
	seq := cc.symbolSeq(p.rounds+8, p.groups, seed)

	sys, err := kernel.NewSystem(kernel.SystemConfig{
		Platform:   pcfg,
		Pool:       cc.pool,
		Protection: prot,
		Domains: []core.DomainSpec{
			{Name: "Hi", SliceCycles: p.slice, PadCycles: p.pad, Colors: mem.ColorRange(1, 32), CodePages: 4, HeapPages: 16},
			{Name: "Lo", SliceCycles: p.slice, PadCycles: p.pad, Colors: mem.ColorRange(32, 64), CodePages: 4, HeapPages: 16},
		},
		Schedule:  [][]int{{0, 1}},
		MaxCycles: uint64(p.rounds+16) * (p.slice + p.pad + 60_000) * 2,
	})
	if err != nil {
		panic(fmt.Sprintf("attacks: T2 %s: %v", label, err))
	}

	setOrder := cc.shuffledOffsets(p.setsPerGroup, 1, seed^0xA0)

	spawn(sys, 0, "trojan", 0, &t2Trojan{
		p: p, seq: seq, setOrder: setOrder, syms: &cc.syms, spin: epochSpin{burn: 180},
	})
	spawn(sys, 1, "spy", 0, &t2Spy{
		p: p, obs: &cc.obs,
		prb:  l1Probe{p: p, setOrder: setOrder},
		spin: epochSpin{burn: 180},
	})

	return cc.decodedRow(label, mustRun(sys).Ops, 4, seed^0x5151)
}

// llcParams sizes the T3 scenario.
type llcParams struct {
	windows   int
	windowLen uint64
	primeWays int
}

func defaultLLCParams(windows int) llcParams {
	return llcParams{windows: windows, windowLen: 150_000, primeWays: 2}
}

// pagesByColor maps LLC page colour to the domain's heap page indices of
// that colour. This introspection stands in for eviction-set construction
// by timing, a well-established attacker capability (Osvik et al. 2006).
func pagesByColor(sys *kernel.System, domainIdx int) map[int][]int {
	d := sys.Domains()[domainIdx]
	m := sys.Machine()
	out := make(map[int][]int)
	for p := 0; ; p++ {
		pte, ok := d.PT.Lookup(kernel.UserHeapVPN + uint64(p))
		if !ok {
			break
		}
		c := m.Mem.Color(pte.PFN)
		out[c] = append(out[c], p)
	}
	return out
}

func firstN(xs []int, n int) []int {
	if len(xs) <= n {
		return xs
	}
	return xs[:n]
}

// t3Trojan thrashes the pages matching the window's symbol for the
// window's whole duration, checking the clock between sweeps.
type t3Trojan struct {
	windows   int
	windowLen uint64
	seq       []int
	trojG     [2][]int
	lineOrder []int
	syms      *SymLog

	phase      int
	w          int
	start, end uint64
	gi, li     int
}

func (t *t3Trojan) read(m *kernel.Machine) kernel.Status {
	pg := t.trojG[t.seq[t.w]][t.gi]
	return m.ReadHeap(uint64(pg)*hw.PageSize + uint64(t.lineOrder[t.li])*hw.LineSize)
}

func (t *t3Trojan) Step(m *kernel.Machine) kernel.Status {
	switch t.phase {
	case 0: // sample the stream's start time
		t.phase = 1
		return m.Now()
	case 1:
		t.start = m.Time()
		t.phase = 2
		return m.Now() // commit timestamp for window 0
	case 2: // commit the window's symbol
		t.syms.Commit(m.Time(), t.seq[t.w])
		t.end = t.start + uint64(t.w+1)*t.windowLen
		t.phase = 3
		return m.Now() // window deadline check
	case 3:
		if m.Time() < t.end {
			t.gi, t.li = 0, 0
			t.phase = 4
			return t.read(m)
		}
		t.w++
		if t.w == t.windows+4 {
			return kernel.Done
		}
		t.phase = 2
		return m.Now()
	default: // 4: sweeping the symbol's page group
		t.li++
		if t.li == len(t.lineOrder) {
			t.li = 0
			t.gi++
		}
		if t.gi < len(t.trojG[t.seq[t.w]]) {
			return t.read(m)
		}
		t.phase = 3
		return m.Now()
	}
}

// t3Spy alternately probes its two single-colour eviction groups until
// the deadline; whichever group probed slower is the decoded symbol.
type t3Spy struct {
	windowLen uint64
	windows   int
	spyG      [2][]int
	lineOrder []int
	obs       *ObsLog

	phase    int
	grp      int
	pi, li   int
	lat, l0  uint64
	dec      int
	deadline uint64
}

func (s *t3Spy) read(m *kernel.Machine) kernel.Status {
	pg := s.spyG[s.grp][s.pi]
	return m.ReadHeap(uint64(pg)*hw.PageSize + uint64(s.lineOrder[s.li])*hw.LineSize)
}

// advance moves to the next (page, line) of the current group; done
// when the group's sweep is complete.
func (s *t3Spy) advance() (groupDone bool) {
	s.li++
	if s.li == len(s.lineOrder) {
		s.li = 0
		s.pi++
	}
	return s.pi == len(s.spyG[s.grp])
}

func (s *t3Spy) Step(m *kernel.Machine) kernel.Status {
	switch s.phase {
	case 0: // initial prime of both groups, latencies discarded
		s.deadline = uint64(s.windows+4) * s.windowLen
		s.grp, s.pi, s.li = 0, 0, 0
		s.phase = 1
		return s.read(m)
	case 1:
		if !s.advance() {
			return s.read(m)
		}
		if s.grp == 0 {
			s.grp, s.pi, s.li = 1, 0, 0
			return s.read(m)
		}
		s.phase = 2
		return m.Now() // loop deadline check
	case 2:
		if m.Time() >= s.deadline {
			return kernel.Done
		}
		s.grp, s.pi, s.li, s.lat = 0, 0, 0, 0
		s.phase = 3
		return s.read(m)
	default: // 3: timed probe of group 0 then group 1
		s.lat += m.Latency()
		if !s.advance() {
			return s.read(m)
		}
		if s.grp == 0 {
			s.l0 = s.lat
			s.grp, s.pi, s.li, s.lat = 1, 0, 0, 0
			return s.read(m)
		}
		s.dec = 0
		if s.lat > s.l0 {
			s.dec = 1
		}
		s.phase = 4
		return m.Now() // observation timestamp
	case 4:
		s.obs.Record(m.Time(), float64(s.dec))
		s.phase = 2
		return m.Now()
	}
}

// runLLCPrimeProbe runs one T3 configuration: Trojan and spy on
// separate cores, running concurrently; no domain switch ever happens,
// so flushing and padding are structurally irrelevant and only colouring
// can help.
func runLLCPrimeProbe(cc *CellContext, label string, prot core.Config, windows int, seed uint64) Row {
	p := defaultLLCParams(windows)
	pcfg := platform.DefaultConfig()
	pcfg.Cores = 2
	pcfg.LLCSets = 512 // 256 KiB, 8 colours: small enough to thrash
	pcfg.LLCWays = 8
	pcfg.Frames = 4096

	sys, err := kernel.NewSystem(kernel.SystemConfig{
		Platform:   pcfg,
		Pool:       cc.pool,
		Protection: prot,
		Domains: []core.DomainSpec{
			{Name: "Hi", SliceCycles: 400_000, PadCycles: 20_000, Colors: mem.NewColorSet(1, 2, 3), CodePages: 4, HeapPages: 128},
			{Name: "Lo", SliceCycles: 400_000, PadCycles: 20_000, Colors: mem.NewColorSet(4, 5, 6, 7), CodePages: 4, HeapPages: 64},
		},
		Schedule:  [][]int{{1}, {0}}, // Lo on core 0, Hi on core 1: co-resident forever
		MaxCycles: uint64(p.windows+8)*p.windowLen + 8_000_000,
	})
	if err != nil {
		panic(fmt.Sprintf("attacks: T3 %s: %v", label, err))
	}

	// The spy builds two single-colour eviction groups from its own
	// pages; the Trojan transmits by thrashing pages of the matching
	// colours. Under colouring the partitions are disjoint, so the
	// Trojan owns no matching pages and falls back to thrashing its
	// own partition — same memory volume, no set conflicts.
	spyPages := pagesByColor(sys, 1)
	trojPages := pagesByColor(sys, 0)
	spyColors := sortedKeys(spyPages)
	if len(spyColors) < 2 {
		panic("attacks: T3: spy needs two colours")
	}
	c0, c1 := spyColors[0], spyColors[1]
	spyG := [2][]int{firstN(spyPages[c0], p.primeWays), firstN(spyPages[c1], p.primeWays)}
	trojG := [2][]int{firstN(trojPages[c0], 10), firstN(trojPages[c1], 10)}
	trojOwn := sortedKeys(trojPages)
	if len(trojG[0]) == 0 {
		trojG[0] = firstN(trojPages[trojOwn[0]], 10)
	}
	if len(trojG[1]) == 0 {
		trojG[1] = firstN(trojPages[trojOwn[len(trojOwn)-1]], 10)
	}

	seq := cc.symbolSeq(p.windows+8, 2, seed)
	lineOrder := cc.shuffledOffsets(hw.LinesPerPage, 2, seed^0xB7)

	spawn(sys, 0, "trojan", 1, &t3Trojan{
		windows: p.windows, windowLen: p.windowLen,
		seq: seq, trojG: trojG, lineOrder: lineOrder, syms: &cc.syms,
	})
	spawn(sys, 1, "spy", 0, &t3Spy{
		windowLen: p.windowLen, windows: p.windows,
		spyG: spyG, lineOrder: lineOrder, obs: &cc.obs,
	})

	return cc.decodedRow(label, mustRun(sys).Ops, 6, seed^0x1313)
}

func sortedKeys(m map[int][]int) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}
