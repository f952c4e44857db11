package invariant

import (
	"fmt"

	"timeprot/internal/core"
	"timeprot/internal/hw/mem"
	"timeprot/internal/hw/platform"
	"timeprot/internal/kernel"
)

// This file lifts the noninterference statement from the abstract model
// to the CONCRETE simulator: run the same Lo program twice against two
// different Hi programs on two identically-built systems, and compare
// every timing observation Lo makes — each operation's completion-time
// reading. The simulator is deterministic, so under full protection the
// two observation sequences must be bit-identical; any divergence is a
// concrete timing channel, found without statistics.

// NIResult is the outcome of a two-run comparison.
type NIResult struct {
	// Equal is true when Lo's observation sequences are identical.
	Equal bool
	// DivergeIndex is the first differing observation when !Equal.
	DivergeIndex int
	// A and B are the diverging observations.
	A, B uint64
	// Observations is the sequence length compared.
	Observations int
}

// String renders the result.
func (r NIResult) String() string {
	if r.Equal {
		return fmt.Sprintf("NONINTERFERENT (%d observations identical)", r.Observations)
	}
	return fmt.Sprintf("INTERFERENCE at observation %d: %d vs %d", r.DivergeIndex, r.A, r.B)
}

// TwoRunNI builds two identical uniprocessor systems under prot, runs a
// program from hiA in one and from hiB in the other alongside the same Lo
// observer program, and compares Lo's complete timing view. The Lo
// observer mixes user reads, branches, syscalls and clock reads, so
// every §5.2 case is exercised. hiA and hiB are program factories,
// called once per run: a Program carries its own state, so each run
// needs a fresh one (and hiA may be passed as both sides).
func TwoRunNI(prot core.Config, hiA, hiB func() kernel.Program, loOps int) (NIResult, error) {
	run := func(hi kernel.Program) ([]uint64, error) {
		pcfg := platform.DefaultConfig()
		pcfg.Cores = 1
		// A tiny LLC (64 KiB, 4 colours, 4 ways) so that a domain's
		// working set genuinely thrashes it within a few slices:
		// without colouring, Hi's sweeps then evict Lo's lines and
		// the shared kernel image — the channels the ablation tests
		// must be able to exhibit.
		pcfg.LLCSets = 256
		pcfg.LLCWays = 4
		pcfg.Frames = 8192
		sys, err := kernel.NewSystem(kernel.SystemConfig{
			Platform:   pcfg,
			Protection: prot,
			Domains: []core.DomainSpec{
				{Name: "Hi", SliceCycles: 50_000, PadCycles: 20_000, Colors: mem.NewColorSet(1, 2), IRQLines: []int{0}, CodePages: 4, HeapPages: 80},
				{Name: "Lo", SliceCycles: 50_000, PadCycles: 20_000, Colors: mem.NewColorSet(3), IRQLines: []int{1}, CodePages: 4, HeapPages: 80},
			},
			Schedule:  [][]int{{0, 1}},
			MaxCycles: uint64(loOps)*800_000 + 80_000_000,
		})
		if err != nil {
			return nil, err
		}
		var obs []uint64
		if _, err := sys.SpawnProgram(0, "hi", 0, hi); err != nil {
			return nil, err
		}
		if _, err := sys.SpawnProgram(1, "lo", 0, loObserver(loOps, &obs)); err != nil {
			return nil, err
		}
		rep, err := sys.Run()
		if err != nil {
			return nil, err
		}
		if len(rep.Errors) > 0 {
			return nil, fmt.Errorf("invariant: thread errors: %v", rep.Errors)
		}
		return obs, nil
	}

	a, err := run(hiA())
	if err != nil {
		return NIResult{}, err
	}
	b, err := run(hiB())
	if err != nil {
		return NIResult{}, err
	}
	res := NIResult{Equal: true, Observations: len(a)}
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return NIResult{DivergeIndex: i, A: a[i], B: b[i], Observations: len(a)}, nil
		}
	}
	if len(a) != len(b) {
		return NIResult{DivergeIndex: n, Observations: len(a)}, nil
	}
	return res, nil
}

// loObserver is the Lo program: loOps rounds of 13 steps each, every
// timing reading appended to obs. A round times a user memory access
// (case 1) and reads the clock, takes a branch (the predictor path),
// times a kernel entry (case 2a) and reads the clock again, then
// computes for eight steps, spreading the observations over many slices
// so that Hi's pressure has time to build between them.
func loObserver(loOps int, obs *[]uint64) kernel.Program {
	k := 0
	return kernel.ProgramFunc(func(m *kernel.Machine) kernel.Status {
		i, j := k/13, k%13
		k++
		switch j { // record the previous operation's reading
		case 1, 3, 4: // read, branch and syscall latencies
			*obs = append(*obs, m.Latency())
		case 2, 5: // clock reads
			*obs = append(*obs, m.Time())
		}
		if i == loOps {
			return kernel.Done
		}
		switch j {
		case 0:
			return m.ReadHeap(uint64(i*192) % (16 * 4096))
		case 1, 4:
			return m.Now()
		case 2:
			return m.Branch(uint64(i%64), i%3 == 0)
		case 3:
			return m.NullSyscall()
		}
		return m.Compute(2_000)
	})
}

// HiVariantPair returns factories for two Hi programs whose hardware
// footprints differ in every §4 dimension: cache-set usage, dirty-line
// counts, syscall pattern, early-versus-late slice completion, and
// interrupt programming. Under full protection TwoRunNI must not tell
// them apart.
func HiVariantPair() (hiA, hiB func() kernel.Program) {
	// hiA runs 8 rounds of: ten staggered completion interrupts,
	// programmed FIRST so they fire while the observer still runs
	// (whatever the slice phase, several land inside Lo slices when
	// partitioning is off); a full-heap write sweep that dirties
	// thousands of lines and, absent colouring, overfills every LLC
	// set its pages reach (20 same-colour pages vs 4 ways); a syscall;
	// and 60 compute steps.
	hiA = func() kernel.Program {
		k := 0
		return kernel.ProgramFunc(func(m *kernel.Machine) kernel.Status {
			lines := int(m.HeapBytes() / 64)
			per := 10 + lines + 1 + 60
			if k == 8*per {
				return kernel.Done
			}
			j := k % per
			k++
			switch {
			case j < 10:
				return m.StartIO(0, uint64(j+1)*40_000)
			case j < 10+lines:
				return m.WriteHeap(uint64(j-10) * 64)
			case j == 10+lines:
				return m.NullSyscall()
			}
			return m.Compute(300)
		})
	}
	// hiB runs 5 rounds of 7 strided reads and 900 branches, then exits
	// early: the rest of Hi's slices are empty.
	hiB = func() kernel.Program {
		k := 0
		return kernel.ProgramFunc(func(m *kernel.Machine) kernel.Status {
			if k == 5*907 {
				return kernel.Done
			}
			j := k % 907
			k++
			if j < 7 {
				return m.ReadHeap((uint64(j) * 8192) % m.HeapBytes())
			}
			i := j - 7
			return m.Branch(uint64(i%32), i%2 == 0)
		})
	}
	return hiA, hiB
}
