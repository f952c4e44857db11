package attacks

import (
	"fmt"

	"timeprot/internal/channel"
	"timeprot/internal/core"
	"timeprot/internal/hw/mem"
	"timeprot/internal/hw/platform"
	"timeprot/internal/kernel"
)

// This file implements T12, the cost side of time protection: the same
// mixed workload (memory sweeps, compute, syscalls) run to completion
// under progressively stronger protection. Time protection is not free —
// flushing destroys cache state each switch, padding burns the gap
// between actual and worst-case switch work, and colouring shrinks each
// domain's effective LLC. The experiment quantifies each step so the
// security/performance trade-off the paper implies is visible.

// t12Worker is the per-domain workload as a direct-execution Program:
// per round, a sweep over the domain's working set (every other line),
// a burst of compute, and a syscall — a stand-in for a cache-sensitive
// service. Both domains run their own instance but share the ops
// counter, the denominator of the cycles-per-op metric.
type t12Worker struct {
	rounds int
	ops    *int

	lines uint64
	r     int
	i     uint64
	j     int
	phase int
}

// startRound begins one workload round with its first operation.
func (w *t12Worker) startRound(m *kernel.Machine) kernel.Status {
	w.i = 0
	if w.i < w.lines {
		w.phase = 1
		*w.ops++
		return m.ReadHeap(0)
	}
	w.j = 0
	w.phase = 2
	*w.ops++
	return m.Compute(100)
}

func (w *t12Worker) Step(m *kernel.Machine) kernel.Status {
	switch w.phase {
	case 0: // first dispatch
		w.lines = m.HeapBytes() / 64
		if w.rounds == 0 {
			return kernel.Done
		}
		return w.startRound(m)
	case 1: // a sweep read completed
		w.i += 2
		if w.i < w.lines {
			*w.ops++
			return m.ReadHeap(w.i * 64)
		}
		w.j = 0
		w.phase = 2
		*w.ops++
		return m.Compute(100)
	case 2: // the compute burst
		w.j++
		if w.j < 50 {
			*w.ops++
			return m.Compute(100)
		}
		w.phase = 3
		*w.ops++
		return m.NullSyscall()
	default: // 3: syscall done; next round
		w.r++
		if w.r == w.rounds {
			return kernel.Done
		}
		return w.startRound(m)
	}
}

// runOverhead measures one T12 configuration: total cycles for both
// domains to finish a fixed workload on one core. The workload is
// deterministic, so the seed is unused; it runs at least 4 rounds.
func runOverhead(cc *CellContext, label string, prot core.Config, workRounds int, _ uint64) Row {
	workRounds = max(workRounds, 4)
	const (
		slice = 60_000
		pad   = 20_000
	)
	pcfg := platform.DefaultConfig()
	pcfg.Cores = 1
	pcfg.LLCSets = 1024 // 512 KiB, 16 colours: small enough that
	pcfg.LLCWays = 8    // colouring visibly shrinks the working space
	pcfg.Frames = 8192

	sys, err := kernel.NewSystem(kernel.SystemConfig{
		Platform:   pcfg,
		Pool:       cc.pool,
		Protection: prot,
		Domains: []core.DomainSpec{
			{Name: "A", SliceCycles: slice, PadCycles: pad, Colors: mem.ColorRange(1, 8), CodePages: 4, HeapPages: 60},
			{Name: "B", SliceCycles: slice, PadCycles: pad, Colors: mem.ColorRange(8, 16), CodePages: 4, HeapPages: 60},
		},
		Schedule:  [][]int{{0, 1}},
		MaxCycles: uint64(workRounds)*3_000_000 + 100_000_000,
	})
	if err != nil {
		panic(fmt.Sprintf("attacks: T12 %s: %v", label, err))
	}

	ops := new(int)
	spawn(sys, 0, "a", 0, &t12Worker{rounds: workRounds, ops: ops})
	spawn(sys, 1, "b", 0, &t12Worker{rounds: workRounds, ops: ops})

	rep := mustRun(sys)
	total := float64(rep.CPUCycles[0])
	cpo := total / float64(*ops)
	return Row{
		Label:   label,
		Est:     channel.Estimate{},
		ErrRate: nan(),
		SimOps:  rep.Ops,
		Extra: []KV{
			{K: "cycles_per_op", V: cpo},
			{K: "total_Mcycles", V: total / 1e6},
		},
	}
}
