package conform

import (
	"fmt"

	"timeprot/internal/attacks"
	"timeprot/internal/channel"
	"timeprot/internal/core"
	"timeprot/internal/hw"
	"timeprot/internal/hw/cover"
	"timeprot/internal/hw/mem"
	"timeprot/internal/hw/platform"
	"timeprot/internal/kernel"
	"timeprot/internal/prove/absmodel"
	"timeprot/internal/rng"
)

// This file is the concrete side of the conformance cell: a two-domain
// transmission run on the kernel simulator in which a Hi Trojan
// executes, each round, the concrete compilation of whichever of the
// pair's two programs the round's symbol selects, and a Lo spy measures
// its own timing through every channel family the simulator models:
//
//   - probe-dec / probe-lat: an L1 prime-and-probe sweep at the top of
//     each Lo slice (the T2 construction) — the decoded hottest set
//     group and the raw total probe latency;
//   - slice-start: the arrival time of Lo's slice relative to the
//     previous one, the footprint of unpadded symbol-dependent switch
//     work (the T4 flush-latency channel);
//   - irq-gap: the largest mid-slice execution gap in the interrupt
//     footprint range (the T6 channel), fed by the Trojan's ActStartIO
//     actions programming its device's completion interrupt.
//
// Each abstract action compiles to a fixed op sequence: user input a
// sweeps the L1 sets of group a%Groups across enough ways to evict the
// spy's primed lines and dirties a few heap lines (so flush work is
// action-dependent); ActSyscall performs a null syscall; ActStartIO
// programs device line 0 to fire FireIn cycles later, mid Lo's slice
// when interrupts are unpartitioned.
//
// The Hi and Lo slices are sized so a compiled program's ops fit well
// inside Hi's slice and the interrupt lands inside Lo's: with ops
// issued in the first ~60k cycles of Hi's 120k slice, fire time
// x+FireIn spans [155k, 215k], inside Lo's slice [145k, 225k].

// Params sizes the concrete conformance run.
type Params struct {
	// Rounds is the number of labelled transmission rounds.
	Rounds int
	// HiSlice, LoSlice and Pad are the domains' slice and pad budgets.
	HiSlice, LoSlice, Pad uint64
	// Groups and SetsPerGroup partition the L1 sets; user action a
	// signals group a%Groups.
	Groups, SetsPerGroup int
	// PrimeWays and TrojanWays are the spy's primed ways and the
	// Trojan's filled ways per set (TrojanWays+PrimeWays must exceed
	// the L1 associativity for eviction).
	PrimeWays, TrojanWays int
	// ActionSets is the number of sets per group one user action
	// touches; DirtyLines the heap lines it dirties.
	ActionSets, DirtyLines int
	// FireIn is the ActStartIO completion delay.
	FireIn uint64
	// Warmup observations are discarded per stream; Bins is the
	// estimator's discretisation width.
	Warmup, Bins int
}

// DefaultParams returns the standard conformance sizing at the given
// round count (floored at 8 so every stream survives warmup).
func DefaultParams(rounds int) Params {
	if rounds < 8 {
		rounds = 8
	}
	return Params{
		Rounds:       rounds,
		HiSlice:      120_000,
		LoSlice:      80_000,
		Pad:          25_000,
		Groups:       4,
		SetsPerGroup: 16, // 64 L1 sets / 4 groups
		PrimeWays:    2,
		TrojanWays:   8,
		ActionSets:   4,
		DirtyLines:   4,
		FireIn:       155_000,
		Warmup:       4,
		Bins:         6,
	}
}

// Spy gap-sampling thresholds, following the T6 construction: below
// gapLo is ordinary op jitter, above gapHi a domain switch.
const (
	gapLo = 350
	gapHi = 9_000
	// gapBurn is the Compute length between gap polls; it coarsens the
	// baseline gap (~tens of cycles, still far below gapLo) while
	// cutting the op count of the sampling loop.
	gapBurn = 40
	// spinBurn is the Compute length of the inter-round epoch spins.
	spinBurn = 180
)

// opKind discriminates compiled concrete ops.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opSyscall
	opIO
)

// cop is one compiled concrete op.
type cop struct {
	kind opKind
	addr uint64
}

// compile lowers an abstract Hi program to the concrete op sequence the
// Trojan executes each round the program's symbol is selected.
func compile(p Params, prog []absmodel.Action, setOrder []int) []cop {
	var out []cop
	for _, a := range prog {
		switch a {
		case absmodel.ActSyscall:
			out = append(out, cop{kind: opSyscall})
		case absmodel.ActStartIO:
			out = append(out, cop{kind: opIO})
		default:
			g := int(a) % p.Groups
			for pg := 0; pg < p.TrojanWays; pg++ {
				for _, j := range setOrder[:p.ActionSets] {
					set := g*p.SetsPerGroup + j
					out = append(out, cop{
						kind: opRead,
						addr: uint64(pg)*hw.PageSize + uint64(set)*hw.LineSize,
					})
				}
			}
			// Dirty a few lines on a page past the sweep ways, so the
			// flush work on the next switch is action-dependent.
			for j := 0; j < p.DirtyLines; j++ {
				set := g*p.SetsPerGroup + setOrder[j%len(setOrder)]
				out = append(out, cop{
					kind: opWrite,
					addr: uint64(p.TrojanWays)*hw.PageSize + uint64(set)*hw.LineSize,
				})
			}
		}
	}
	return out
}

// spin is the waitEpoch idiom as a step fragment (the attacks package
// keeps its copy unexported): poll Epoch until it leaves the armed
// value, burning Compute cycles between polls.
type spin struct {
	burn uint64
	cur  uint64
	st   int // 0 idle, 1 awaiting Epoch, 2 awaiting Compute
}

func (sp *spin) start(cur uint64, m *kernel.Machine) kernel.Status {
	sp.cur = cur
	sp.st = 1
	return m.Epoch()
}

func (sp *spin) step(m *kernel.Machine) (next uint64, done bool, st kernel.Status) {
	switch sp.st {
	case 1:
		if e := m.Value(); e != sp.cur {
			sp.st = 0
			return e, true, 0
		}
		if sp.burn > 0 {
			sp.st = 2
			return 0, false, m.Compute(sp.burn)
		}
		return 0, false, m.Epoch()
	case 2:
		sp.st = 1
		return 0, false, m.Epoch()
	default:
		panic("conform: spin.step while idle")
	}
}

// trojan executes the round symbol's compiled program, commits the
// symbol, and spins to its next slice.
type trojan struct {
	p     Params
	seq   []int
	progs [2][]cop
	syms  *attacks.SymLog
	// ioLine is the IRQ line ActStartIO programs: the running domain
	// must own it (0 for Hi, 2 for the Noise domain).
	ioLine int

	phase int
	r, i  int
	epoch uint64
	spin  spin
}

func (t *trojan) exec(m *kernel.Machine) kernel.Status {
	op := t.progs[t.seq[t.r]][t.i]
	switch op.kind {
	case opRead:
		return m.ReadHeap(op.addr)
	case opWrite:
		return m.WriteHeap(op.addr)
	case opSyscall:
		return m.NullSyscall()
	default:
		return m.StartIO(t.ioLine, t.p.FireIn)
	}
}

func (t *trojan) begin(m *kernel.Machine) kernel.Status {
	t.i = 0
	if len(t.progs[t.seq[t.r]]) == 0 {
		t.phase = 3
		return m.Now()
	}
	t.phase = 2
	return t.exec(m)
}

func (t *trojan) Step(m *kernel.Machine) kernel.Status {
	switch t.phase {
	case 0: // read the starting epoch
		t.phase = 1
		return m.Epoch()
	case 1:
		t.epoch = m.Value()
		return t.begin(m)
	case 2: // one op returned; advance the program
		t.i++
		if t.i < len(t.progs[t.seq[t.r]]) {
			return t.exec(m)
		}
		t.phase = 3
		return m.Now() // commit timestamp
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
		if t.r == t.p.Rounds+4 {
			return kernel.Done
		}
		return t.begin(m)
	}
}

// probe is the spy's L1 probe sweep: every prime way of every set group
// in shuffled order, accumulating latency per group and in total; the
// slowest group is the decoded symbol.
type probe struct {
	p        Params
	setOrder []int

	g, pg, si    int
	lat, bestLat uint64
	total        uint64
	best         int
}

func (pr *probe) start(m *kernel.Machine) kernel.Status {
	pr.g, pr.pg, pr.si = 0, 0, 0
	pr.lat, pr.bestLat, pr.total, pr.best = 0, 0, 0, 0
	return pr.read(m)
}

func (pr *probe) read(m *kernel.Machine) kernel.Status {
	set := pr.g*pr.p.SetsPerGroup + pr.setOrder[pr.si]
	return m.ReadHeap(uint64(pr.pg)*hw.PageSize + uint64(set)*hw.LineSize)
}

func (pr *probe) step(m *kernel.Machine) (dec int, total uint64, done bool, st kernel.Status) {
	l := m.Latency()
	pr.lat += l
	pr.total += l
	pr.si++
	if pr.si == len(pr.setOrder) {
		pr.si = 0
		pr.pg++
		if pr.pg == pr.p.PrimeWays {
			pr.pg = 0
			if pr.lat > pr.bestLat {
				pr.bestLat, pr.best = pr.lat, pr.g
			}
			pr.lat = 0
			pr.g++
			if pr.g == pr.p.Groups {
				return pr.best, pr.total, true, 0
			}
		}
	}
	return 0, 0, false, pr.read(m)
}

// spy probes (and re-primes) at the top of each of its slices, then
// gap-samples its own execution until the slice ends, recording all
// four observation streams at the slice-start timestamp — which falls
// strictly between the round's commit and the next, so labelling
// attributes every stream to the right symbol.
type spy struct {
	p                    Params
	dec, lat, start, gap *attacks.ObsLog
	prb                  probe
	spin                 spin

	phase             int
	r                 int
	epoch             uint64
	sliceT, prevSlice uint64
	prev, t           uint64
	maxGap            float64
}

func (s *spy) Step(m *kernel.Machine) kernel.Status {
	switch s.phase {
	case 0: // initial prime, latencies discarded
		s.phase = 1
		return s.prb.start(m)
	case 1:
		if _, _, done, st := s.prb.step(m); !done {
			return st
		}
		s.phase = 2
		return m.Epoch()
	case 2:
		s.epoch = m.Value()
		s.phase = 3
		return s.spin.start(s.epoch, m)
	case 3: // aligning spin to a fresh slice
		e, done, st := s.spin.step(m)
		if !done {
			return st
		}
		s.epoch = e
		s.phase = 4
		return m.Now()
	case 4: // slice start: timestamp, arrival delta, then probe
		s.sliceT = m.Time()
		if s.prevSlice != 0 {
			s.start.Record(s.sliceT, float64(s.sliceT-s.prevSlice))
		}
		s.prevSlice = s.sliceT
		s.phase = 5
		return s.prb.start(m)
	case 5: // per-round probe
		dec, total, done, st := s.prb.step(m)
		if !done {
			return st
		}
		s.dec.Record(s.sliceT, float64(dec))
		s.lat.Record(s.sliceT, float64(total))
		s.maxGap = 0
		s.phase = 6
		return m.Now()
	case 6: // anchor the gap sampler
		s.prev = m.Time()
		s.phase = 7
		return m.Now()
	case 7: // a sample's timestamp arrived; check the slice
		s.t = m.Time()
		s.phase = 8
		return m.Epoch()
	case 8:
		if e := m.Value(); e != s.epoch {
			s.gap.Record(s.sliceT, s.maxGap)
			s.epoch = e
			s.r++
			if s.r == s.p.Rounds+4 {
				return kernel.Done
			}
			s.phase = 4
			return m.Now()
		}
		if g := float64(s.t - s.prev); g > gapLo && g < gapHi && g > s.maxGap {
			s.maxGap = g
		}
		s.prev = s.t
		s.phase = 9
		return m.Compute(gapBurn)
	default: // 9: the burn finished; next sample
		s.phase = 7
		return m.Now()
	}
}

// NamedEstimate is one spy observation stream's capacity estimate.
type NamedEstimate struct {
	// Name identifies the stream: "probe-dec", "probe-lat",
	// "slice-start" or "irq-gap".
	Name string
	// Est is the stream's capacity estimate.
	Est channel.Estimate
}

// leakCertain is the conformance leak predicate: capacity above floor
// by the standard margin AND the entire bootstrap confidence interval
// above the floor — a leak the estimator is confident in, so a
// soundness violation is never declared on sampling noise alone.
func leakCertain(e channel.Estimate) bool {
	return e.Leaks(attacks.LeakMargin) && e.CILow > e.FloorBits
}

// LeakCertain exposes the conformance leak predicate to the discovery
// fuzzer, whose fitness function must be the same CI-backed floor test
// so a "discovery" means exactly what a conformance leak means.
func LeakCertain(e channel.Estimate) bool { return leakCertain(e) }

// ConcreteResult is the simulator side of one conformance cell.
type ConcreteResult struct {
	// Channels are the per-stream capacity estimates, in fixed order.
	Channels []NamedEstimate
	// Best indexes the stream with the highest capacity.
	Best int
	// Leak is true when any stream leaks with CI-backed certainty —
	// the simulator distinguishes the pair's two programs.
	Leak bool
	// SimOps is the number of simulated thread operations executed.
	SimOps uint64
}

// spawn adds a harness program to sys; a layout that cannot host it is
// a construction bug.
func spawn(sys *kernel.System, domain int, name string, cpu int, p kernel.Program) {
	if _, err := sys.SpawnProgram(domain, name, cpu, p); err != nil {
		panic(err)
	}
}

// MeasureConcreteIn runs the concrete transmission of a pair under a
// protection configuration on a per-worker arena: machine construction
// comes from the context's pool and, when cov is non-nil, the run's
// microarchitectural transitions are recorded into it. Both are
// invisible to the measurement — the result is bit-identical to a run
// on a fresh context (attacks.NewCellContext()) without coverage.
func MeasureConcreteIn(cc *attacks.CellContext, prot core.Config, pair Pair, p Params, seed uint64, cov *cover.Map) ConcreteResult {
	cc.BeginRun()
	defer cc.EndRun()
	pcfg := platform.DefaultConfig()
	pcfg.Cores = 1

	// The two-domain layout is frozen (conform/1 cells key on it). A
	// pair with a Noise program gets a third domain scheduled between
	// Hi and Lo, with the colour space re-split three ways.
	domains := []core.DomainSpec{
		{Name: "Hi", SliceCycles: p.HiSlice, PadCycles: p.Pad, Colors: mem.ColorRange(1, 32), IRQLines: []int{0}, CodePages: 4, HeapPages: 16},
		{Name: "Lo", SliceCycles: p.LoSlice, PadCycles: p.Pad, Colors: mem.ColorRange(32, 64), IRQLines: []int{1}, CodePages: 4, HeapPages: 16},
	}
	schedule := [][]int{{0, 1}}
	perRound := p.HiSlice + p.LoSlice + 2*p.Pad + 60_000
	if len(pair.Noise) > 0 {
		domains[0].Colors = mem.ColorRange(1, 22)
		domains[1].Colors = mem.ColorRange(22, 43)
		domains = append(domains, core.DomainSpec{
			Name: "Noise", SliceCycles: p.LoSlice, PadCycles: p.Pad,
			Colors: mem.ColorRange(43, 64), IRQLines: []int{2}, CodePages: 4, HeapPages: 16,
		})
		schedule = [][]int{{0, 2, 1}}
		perRound += p.LoSlice + p.Pad
	}

	sys, err := kernel.NewSystem(kernel.SystemConfig{
		Platform:   pcfg,
		Protection: prot,
		Domains:    domains,
		Schedule:   schedule,
		MaxCycles:  uint64(p.Rounds+16) * perRound * 2,
		Pool:       cc.Pool(),
	})
	if err != nil {
		panic(fmt.Sprintf("conform: %v", err))
	}
	if cov != nil {
		sys.Machine().SetCoverage(cov)
	}

	seq := attacks.SymbolSeq(p.Rounds+8, 2, seed)
	syms := &attacks.SymLog{}
	decL, latL, startL, gapL := &attacks.ObsLog{}, &attacks.ObsLog{}, &attacks.ObsLog{}, &attacks.ObsLog{}
	setOrder := shuffledSets(p.SetsPerGroup, seed^0xA0)

	spawn(sys, 0, "trojan", 0, &trojan{
		p: p, seq: seq,
		progs: [2][]cop{compile(p, pair.HiA, setOrder), compile(p, pair.HiB, setOrder)},
		syms:  syms,
		spin:  spin{burn: spinBurn},
	})
	spawn(sys, 1, "spy", 0, &spy{
		p: p, dec: decL, lat: latL, start: startL, gap: gapL,
		prb:  probe{p: p, setOrder: setOrder},
		spin: spin{burn: spinBurn},
	})
	if len(pair.Noise) > 0 {
		// The noise domain is a trojan with the SAME compiled program
		// for both symbols (so it cannot carry the secret) and a
		// throwaway symbol log the estimators never see.
		nprog := compile(p, pair.Noise, setOrder)
		spawn(sys, 2, "noise", 0, &trojan{
			p: p, seq: make([]int, p.Rounds+8),
			progs:  [2][]cop{nprog, nprog},
			syms:   &attacks.SymLog{},
			ioLine: 2,
			spin:   spin{burn: spinBurn},
		})
	}

	rep, err := sys.Run()
	if err != nil {
		panic(fmt.Sprintf("conform: %v", err))
	}
	if len(rep.Errors) > 0 {
		panic(fmt.Sprintf("conform: thread errors: %v", rep.Errors))
	}
	res := ConcreteResult{SimOps: rep.Ops}
	streams := []struct {
		name string
		log  *attacks.ObsLog
	}{
		{"probe-dec", decL},
		{"probe-lat", latL},
		{"slice-start", startL},
		{"irq-gap", gapL},
	}
	for i, st := range streams {
		labels, vals := attacks.Label(syms, st.log, p.Warmup)
		est, err := attacks.EstimateLabelled(labels, vals, p.Bins, seed^0x51^uint64(i)<<8)
		if err != nil {
			panic(fmt.Sprintf("conform: stream %s: %v", st.name, err))
		}
		res.Channels = append(res.Channels, NamedEstimate{Name: st.name, Est: est})
		if est.CapacityBits > res.Channels[res.Best].Est.CapacityBits {
			res.Best = i
		}
		if leakCertain(est) {
			res.Leak = true
		}
	}
	return res
}

// shuffledSets returns a deterministic shuffled order of the per-group
// set indices, defeating the stride prefetcher like the attack probes.
func shuffledSets(n int, seed uint64) []int {
	return rng.New(seed).Perm(n)
}
