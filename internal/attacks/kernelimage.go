package attacks

import (
	"fmt"

	"timeprot/internal/core"
	"timeprot/internal/hw"
	"timeprot/internal/hw/mem"
	"timeprot/internal/hw/platform"
	"timeprot/internal/kernel"
)

// This file implements T5, the kernel-image channel of §4.2: "As even
// read-only sharing of code is sufficient for creating a channel, we
// also colour the kernel image. This is achieved by a policy-free kernel
// clone mechanism, which allows setting up a domain-private kernel image
// in coloured memory."
//
// With a shared kernel image, its text occupies LLC sets inside the user
// domains' colour partitions, so a Trojan can evict the very lines the
// spy's syscall path fetches — user-memory colouring notwithstanding.
// The spy observes its own null-syscall latency. Cloning gives each
// domain a private image inside its own partition and closes the channel.

const (
	t5Slice  = 200_000
	t5Pad    = 30_000
	t5Passes = 2
)

// t5Trojan evicts the syscall-path sets of the target colour when the
// symbol is 1, and computes quietly otherwise. Two passes with two
// extra ways of overpressure: under LRU, a victim line that is fresher
// than the eviction set's stale lines survives a single in-capacity
// pass (misses evict the stale lines first), so the set must be
// overfilled and swept again. The thrash touches only the twelve
// syscall-path line offsets so a full round fits comfortably within one
// time slice — stretching a round across slices would let the spy
// re-warm its lines mid-thrash.
type t5Trojan struct {
	rounds    int
	seq       []int
	trojPages []int
	pathLines []int
	syms      *SymLog

	phase        int
	r            int
	pass, pi, li int
	epoch        uint64
	spin         epochSpin
}

func (t *t5Trojan) read(m *kernel.Machine) kernel.Status {
	pg := t.trojPages[t.pi]
	return m.ReadHeap(uint64(pg)*hw.PageSize + uint64(t.pathLines[t.li])*hw.LineSize)
}

// beginRound starts round r: an eviction thrash for symbol 1, straight
// to the commit timestamp for symbol 0.
func (t *t5Trojan) beginRound(m *kernel.Machine) kernel.Status {
	if t.seq[t.r] == 1 {
		t.pass, t.pi, t.li = 0, 0, 0
		t.phase = 2
		return t.read(m)
	}
	t.phase = 3
	return m.Now()
}

func (t *t5Trojan) Step(m *kernel.Machine) kernel.Status {
	switch t.phase {
	case 0:
		t.phase = 1
		return m.Epoch()
	case 1:
		t.epoch = m.Value()
		return t.beginRound(m)
	case 2: // advance the thrash sweep
		t.li++
		if t.li == len(t.pathLines) {
			t.li = 0
			t.pi++
			if t.pi == len(t.trojPages) {
				t.pi = 0
				t.pass++
			}
		}
		if t.pass < t5Passes {
			return t.read(m)
		}
		t.phase = 3
		return m.Now()
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
		return t.beginRound(m)
	}
}

// t5Spy times the first null syscall at the top of each slice — its
// latency reflects whether the kernel text survived in the LLC.
type t5Spy struct {
	rounds int
	obs    *ObsLog

	phase int
	r     int
	lat   uint64
	epoch uint64
	spin  epochSpin
}

func (s *t5Spy) Step(m *kernel.Machine) kernel.Status {
	switch s.phase {
	case 0:
		s.phase = 1
		return m.Epoch()
	case 1:
		s.epoch = m.Value()
		s.phase = 2
		return s.spin.start(s.epoch, m)
	case 2: // aligning spin before the first round
		e, done, st := s.spin.step(m)
		if !done {
			return st
		}
		s.epoch = e
		s.phase = 3
		return m.NullSyscall()
	case 3:
		s.lat = m.Latency()
		s.phase = 4
		return m.Now()
	case 4:
		s.obs.Record(m.Time(), float64(s.lat))
		s.phase = 5
		return s.spin.start(s.epoch, m)
	default: // 5: spinning between rounds
		e, done, st := s.spin.step(m)
		if !done {
			return st
		}
		s.epoch = e
		s.r++
		if s.r == s.rounds+4 {
			return kernel.Done
		}
		s.phase = 3
		return m.NullSyscall()
	}
}

// runKernelImage runs one T5 configuration.
func runKernelImage(cc *CellContext, label string, prot core.Config, rounds int, seed uint64) Row {
	pcfg := platform.DefaultConfig()
	pcfg.Cores = 1

	sys, err := kernel.NewSystem(kernel.SystemConfig{
		Platform:   pcfg,
		Pool:       cc.pool,
		Protection: prot,
		Domains: []core.DomainSpec{
			{Name: "Hi", SliceCycles: t5Slice, PadCycles: t5Pad, Colors: mem.ColorRange(1, 32), CodePages: 4, HeapPages: 512},
			{Name: "Lo", SliceCycles: t5Slice, PadCycles: t5Pad, Colors: mem.ColorRange(32, 64), CodePages: 4, HeapPages: 16},
		},
		Schedule:  [][]int{{0, 1}},
		MaxCycles: uint64(rounds+16) * (t5Slice + t5Pad + 60_000) * 2,
	})
	if err != nil {
		panic(fmt.Sprintf("attacks: T5 %s: %v", label, err))
	}

	// The Trojan targets the LLC sets of the spy's syscall path: the
	// entry/exit stubs and the TrapNull vector, all in image page 0.
	// With a shared image that page's colour lies inside the Trojan's
	// own partition; with clones it does not, and the Trojan can only
	// thrash its own partition.
	spyImage := sys.Domains()[1].Image
	target := sys.Machine().Mem.Color(spyImage.TextPFNs[0])
	trojPages := firstN(pagesByColor(sys, 0)[target], pcfg.LLCWays+2)
	if len(trojPages) == 0 {
		own := pagesByColor(sys, 0)
		trojPages = firstN(own[sortedKeys(own)[0]], pcfg.LLCWays+2)
	}
	pathLines := kernel.SyscallPathLines()

	seq := cc.symbolSeq(rounds+8, 2, seed)

	spawn(sys, 0, "trojan", 0, &t5Trojan{
		rounds: rounds, seq: seq, trojPages: trojPages, pathLines: pathLines,
		syms: &cc.syms, spin: epochSpin{burn: 180},
	})
	spawn(sys, 1, "spy", 0, &t5Spy{
		rounds: rounds, obs: &cc.obs, spin: epochSpin{burn: 180},
	})

	return cc.scalarRow(label, mustRun(sys).Ops, 4, 16, seed^0x55AA)
}
