package attacks

import (
	"fmt"

	"timeprot/internal/channel"
	"timeprot/internal/core"
	"timeprot/internal/hw/mem"
	"timeprot/internal/hw/platform"
	"timeprot/internal/kernel"
	"timeprot/internal/trace"
)

// This file implements T4, the flush-latency channel of §4.2: "For
// writable micro-architectural state (e.g. the L1 data cache), the
// latency of the flush is itself dependent on execution history (number
// of dirty lines), which would create a channel. We avoid this channel by
// padding the domain-switch latency to a fixed value."
//
// The Trojan modulates how many lines it dirties per slice; the spy
// measures the scheduling gap between its own slices (the time it was
// off-CPU), which includes the flush of the Trojan's dirty lines. Without
// padding the gap tracks the dirty count; with padding it is constant.
//
// T11 (padding sufficiency) shares this file. Like every scenario it
// runs as a Program state machine on a CellContext.

// t4Params sizes the T4 scenario.
const (
	t4Slice  = 60_000
	t4Pad    = 20_000
	t4Arity  = 4
	t4PerSym = 150 // dirty lines per symbol step
	t4BigGap = 10_000
)

// t4Trojan dirties (sym+1)*perSym lines, then waits for its next
// slice. The dirty lines lengthen the flush on the switch away from Hi.
type t4Trojan struct {
	rounds int
	seq    []int
	syms   *SymLog

	phase int
	r     int
	i, n  int
	epoch uint64
	spin  epochSpin
}

func (t *t4Trojan) write(m *kernel.Machine) kernel.Status {
	return m.WriteHeap(uint64(t.i*64) % m.HeapBytes())
}

func (t *t4Trojan) Step(m *kernel.Machine) kernel.Status {
	switch t.phase {
	case 0: // read the starting epoch
		t.phase = 1
		return m.Epoch()
	case 1: // begin round 0's dirtying sweep
		t.epoch = m.Value()
		t.n = (t.seq[t.r] + 1) * t4PerSym
		t.i = 0
		t.phase = 2
		return t.write(m)
	case 2: // advance the sweep
		t.i++
		if t.i < t.n {
			return t.write(m)
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
		if t.r == t.rounds+4 {
			return kernel.Done
		}
		t.n = (t.seq[t.r] + 1) * t4PerSym
		t.i = 0
		t.phase = 2
		return t.write(m)
	}
}

// t4Spy samples the cycle counter continuously; a large jump means it
// was preempted for the Trojan's slice plus both switches. The jump
// length is the observation.
type t4Spy struct {
	rounds int
	obs    *ObsLog

	phase int
	prev  uint64
}

func (s *t4Spy) Step(m *kernel.Machine) kernel.Status {
	switch s.phase {
	case 0: // first timestamp
		s.phase = 1
		return m.Now()
	case 1:
		s.prev = m.Time()
		if s.obs.Len() >= s.rounds+6 {
			return kernel.Done
		}
		s.phase = 2
		return m.Now()
	case 2: // gap check
		t := m.Time()
		if t-s.prev > t4BigGap {
			s.obs.Record(t, float64(t-s.prev))
		}
		s.prev = t
		s.phase = 3
		return m.Compute(40)
	default: // 3: burn finished; loop condition
		if s.obs.Len() >= s.rounds+6 {
			return kernel.Done
		}
		s.phase = 2
		return m.Now()
	}
}

// runFlushLatency runs one T4 configuration.
func runFlushLatency(cc *CellContext, label string, prot core.Config, rounds int, seed uint64) Row {
	pcfg := platform.DefaultConfig()
	pcfg.Cores = 1

	sys, err := kernel.NewSystem(kernel.SystemConfig{
		Platform:   pcfg,
		Pool:       cc.pool,
		Protection: prot,
		Domains: []core.DomainSpec{
			{Name: "Hi", SliceCycles: t4Slice, PadCycles: t4Pad, Colors: mem.ColorRange(1, 32), CodePages: 4, HeapPages: 16},
			{Name: "Lo", SliceCycles: t4Slice, PadCycles: t4Pad, Colors: mem.ColorRange(32, 64), CodePages: 4, HeapPages: 16},
		},
		Schedule:  [][]int{{0, 1}},
		MaxCycles: uint64(rounds+16) * (t4Slice + t4Pad + 60_000) * 2,
	})
	if err != nil {
		panic(fmt.Sprintf("attacks: T4 %s: %v", label, err))
	}

	seq := cc.symbolSeq(rounds+8, t4Arity, seed)

	spawn(sys, 0, "trojan", 0, &t4Trojan{
		rounds: rounds, seq: seq, syms: &cc.syms, spin: epochSpin{burn: 180},
	})
	spawn(sys, 1, "spy", 0, &t4Spy{rounds: rounds, obs: &cc.obs})

	return cc.scalarRow(label, mustRun(sys).Ops, 3, 16, seed^0x4444)
}

// t11Dirtier is the adversarial T11 workload as a direct-execution
// Program: dirty as many lines as each slice allows, for `rounds`
// slices, re-reading the epoch on each slice boundary.
type t11Dirtier struct {
	rounds int

	e     uint64
	r     int
	i     uint64
	phase int
}

func (d *t11Dirtier) Step(m *kernel.Machine) kernel.Status {
	switch d.phase {
	case 0: // read the starting epoch
		d.phase = 1
		return m.Epoch()
	case 1: // starting epoch arrived; begin round 0
		d.e = m.Value()
		if d.r == d.rounds {
			return kernel.Done
		}
		d.i = 0
		d.phase = 2
		return m.Epoch()
	case 2: // boundary poll arrived
		if m.Value() != d.e {
			d.phase = 3
			return m.Epoch() // the original loop re-reads on break
		}
		d.phase = 4
		return m.WriteHeap((d.i * 64) % m.HeapBytes())
	case 3: // re-read arrived; the slice rolled over
		d.e = m.Value()
		d.r++
		if d.r == d.rounds {
			return kernel.Done
		}
		d.i = 0
		d.phase = 2
		return m.Epoch()
	default: // 4: a dirtying write completed
		d.i++
		d.phase = 2
		return m.Epoch()
	}
}

// computeLoop is a Program that issues n Compute(burn) operations.
type computeLoop struct {
	n    int
	burn uint64
	i    int
}

func (p *computeLoop) Step(m *kernel.Machine) kernel.Status {
	if p.i == p.n {
		return kernel.Done
	}
	p.i++
	return m.Compute(p.burn)
}

// runPaddingSufficiency runs one T11 configuration: padding verified
// by timestamp comparison (§5). It measures the worst-case switch work
// (entry + flush + exit) under an adversarial dirtying workload and
// compares it to the pad budget; an insufficient pad is detected as an
// overrun rather than silently accepted. Tracing is always enabled —
// the measurement itself reads the switch trace.
func runPaddingSufficiency(cc *CellContext, label string, prot core.Config, pad uint64, rounds int) Row {
	pcfg := platform.DefaultConfig()
	pcfg.Cores = 1
	sys, err := kernel.NewSystem(kernel.SystemConfig{
		Platform:   pcfg,
		Pool:       cc.pool,
		Protection: prot,
		Domains: []core.DomainSpec{
			{Name: "Hi", SliceCycles: 60_000, PadCycles: pad, Colors: mem.ColorRange(1, 32), CodePages: 4, HeapPages: 16},
			{Name: "Lo", SliceCycles: 60_000, PadCycles: pad, Colors: mem.ColorRange(32, 64), CodePages: 4, HeapPages: 16},
		},
		Schedule:    [][]int{{0, 1}},
		EnableTrace: true,
		TraceLog:    cc.tlog,
		MaxCycles:   uint64(rounds+16) * 400_000,
	})
	if err != nil {
		panic(err)
	}
	spawn(sys, 0, "dirtier", 0, &t11Dirtier{rounds: rounds})
	spawn(sys, 1, "other", 0, &computeLoop{n: rounds * 400, burn: 150})

	rep := mustRun(sys)
	// Worst-case switch work observed: SwitchStart -> pre-pad
	// time is entry+flush; compare against the pad budget.
	var maxWork uint64
	starts := sys.Trace().Filter(trace.SwitchStart)
	ends := sys.Trace().Filter(trace.SwitchEnd)
	flushes := sys.Trace().Filter(trace.Flush)
	for i := 0; i < len(flushes) && i < len(starts); i++ {
		work := flushes[i].Cycle - starts[i].Cycle
		if work > maxWork {
			maxWork = work
		}
	}
	overruns := len(sys.Trace().Filter(trace.PadOverrun))
	// Dispatch delta variability: a sufficient pad gives a
	// single steady-state value.
	deltas := make(map[uint64]int)
	for i, e := range ends {
		if i == 0 {
			continue // cold start
		}
		deltas[e.Cycle-e.AuxCycle]++
	}
	return Row{
		Label:   label,
		Est:     channel.Estimate{}, // no capacity measured here
		ErrRate: nan(),
		SimOps:  rep.Ops,
		Extra: []KV{
			{K: "max_switch_work", V: float64(maxWork)},
			{K: "pad", V: float64(pad)},
			{K: "overruns", V: float64(overruns)},
			{K: "distinct_deltas", V: float64(len(deltas))},
		},
	}
}
