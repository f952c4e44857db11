package kernel

import (
	"timeprot/internal/hw"
	"timeprot/internal/hw/cpu"
	"timeprot/internal/trace"
)

// kernelEnter charges the cost of a trap into the kernel on behalf of
// domain d: the fixed entry cost plus the cache-mediated cost of fetching
// the entry stub and the trap vector's text, and the deterministic access
// to kernel global data and the domain's kernel data.
//
// The text is fetched from d's kernel image — the shared image or the
// domain's clone — through the ordinary cache hierarchy, so kernel-text
// cache state is honestly modelled: with a shared image, one domain's
// syscall pattern warms (or evicts) the lines another domain's syscalls
// will fetch, which is the kernel-image channel of §4.2; with clones in
// disjoint colours it cannot.
//
// The global-data access pattern is fixed (same lines, same order, every
// entry): the §5.2 Case 2a requirement that global kernel data "is
// accessed deterministically".
func (s *System) kernelEnter(st *cpuState, d *Domain, trap int) uint64 {
	core := st.lcpu.Core
	cycles := s.lat.KernelEntry
	for i := 0; i < kernelEntryLines; i++ {
		cycles += s.kaccess(core, d, kernelTextVA(i), cpu.InstrFetch)
	}
	base := trapTextLine(trap)
	for i := 0; i < kernelTrapLines; i++ {
		cycles += s.kaccess(core, d, kernelTextVA(base+i), cpu.InstrFetch)
	}
	for i := 0; i < kernelGlobalDataLines; i++ {
		kind := cpu.DataRead
		if i == 0 {
			kind = cpu.DataWrite // e.g. a global entry counter
		}
		cycles += s.kaccessOwner(core, d, kernelGlobalVA(i), kind, hw.KernelOwner)
	}
	for i := 0; i < kernelDomainDataLines; i++ {
		kind := cpu.DataRead
		if i == 0 {
			kind = cpu.DataWrite // per-domain scheduling state
		}
		cycles += s.kaccess(core, d, kernelDomainDataVA(i), kind)
	}
	s.log.Append(trace.Event{Kind: trace.KernelEntry, CPU: st.lcpu.Index, Cycle: st.clk().Now(), From: d.ID, Aux: trap})
	return cycles
}

// kernelExit charges the return-to-user path through d's kernel image.
func (s *System) kernelExit(st *cpuState, d *Domain) uint64 {
	core := st.lcpu.Core
	cycles := s.lat.KernelExit
	for i := 0; i < kernelExitLines; i++ {
		cycles += s.kaccess(core, d, kernelTextVA(kernelEntryLines+i), cpu.InstrFetch)
	}
	return cycles
}

// kaccess performs a kernel access within domain d's address space,
// attributing cache fills to the image/domain owner.
func (s *System) kaccess(core *cpu.Core, d *Domain, va hw.Addr, kind cpu.AccessKind) uint64 {
	owner := d.ID
	if hw.VPN(va) >= KernelTextVPN && hw.VPN(va) < KernelTextVPN+KernelTextPages {
		owner = d.Image.Owner
	}
	return s.kaccessOwner(core, d, va, kind, owner)
}

func (s *System) kaccessOwner(core *cpu.Core, d *Domain, va hw.Addr, kind cpu.AccessKind, owner hw.DomainID) uint64 {
	cycles, err := core.Access(d.ASID, d.PT, va, kind, owner)
	if err != nil {
		// Kernel mappings are installed at construction; a fault here
		// is a simulator bug, not a modelled condition.
		panic(err)
	}
	return cycles
}

// applyIRQMasks programs the interrupt controller for domain d running on
// st: with partitioning armed, only d's own lines are unmasked (§4.2);
// otherwise every line is unmasked, as on a conventional OS.
func (s *System) applyIRQMasks(st *cpuState, d *Domain) {
	coreID := st.lcpu.Core.ID()
	for line := 0; line < s.machine.IRQ.Lines(); line++ {
		if s.cfg.PartitionIRQs {
			s.machine.IRQ.SetMask(coreID, line, !d.ownsIRQ(line))
		} else {
			s.machine.IRQ.SetMask(coreID, line, false)
		}
	}
}

// domainSwitch performs the §4.2 switch protocol on st: kernel entry,
// flush of all core-local flushable state, interrupt re-masking, padding
// to the previous domain's deadline, kernel exit, and dispatch of the
// next domain. The padding rule is the paper's, verbatim: "the next
// domain will not start executing earlier than the previous domain's
// time slice plus the padding time" — measured from the previous slice's
// start, so entry jitter and flush latency are hidden beneath the pad.
func (s *System) domainSwitch(st *cpuState) {
	clk := st.clk()
	from := s.domains[st.curDomain]
	oldSliceStart := st.sliceStart
	tEntry := clk.Now()
	s.log.Append(trace.Event{
		Kind: trace.SwitchStart, CPU: st.lcpu.Index, Cycle: tEntry,
		From: from.ID, AuxCycle: oldSliceStart,
	})

	// Preempt the running thread, if any.
	if st.cur != nil {
		if st.cur.state == threadRunning {
			st.cur.state = threadReady
			st.cur.wakeAt = 0
			st.enqueue(st.cur)
		}
		st.cur = nil
	}

	// Trap into the kernel via the old domain's image.
	clk.Advance(s.kernelEnter(st, from, TrapTimer))

	// Flush all time-shared microarchitectural state. The latency
	// depends on the number of dirty lines — execution history — and
	// is charged to the clock; only padding hides it.
	if s.cfg.FlushOnSwitch {
		rep := st.lcpu.Core.FlushCoreState()
		clk.Advance(rep.Cycles)
		s.log.Append(trace.Event{
			Kind: trace.Flush, CPU: st.lcpu.Index, Cycle: clk.Now(),
			From: from.ID, Dirty: rep.DirtyL1D, Latency: rep.Cycles,
		})
	}
	if s.switchInspector != nil {
		s.switchInspector(st.lcpu.Index, st.lcpu.Core)
	}

	// Select the next domain and re-program the interrupt masks.
	st.schedIdx = st.nextDomainIdx()
	to := s.domains[st.schedule[st.schedIdx]]
	s.applyIRQMasks(st, to)

	// Pre-warm the return-to-user path through the incoming domain's
	// image BEFORE the pad point: its cost depends on the incoming
	// domain's cache state, so it must fall under the pad. After the
	// pad only the fixed dispatch sequence runs — nothing
	// state-dependent may execute past the pad, or its latency would
	// shift the next domain's start time (found by the prover's
	// Case-2b check).
	clk.Advance(s.kernelExit(st, to))

	// Pad: the switched-from domain's deadline is its slice start plus
	// its slice length plus its pad attribute.
	var padded uint64
	if s.cfg.PadSwitch {
		target := oldSliceStart + from.Spec.SliceCycles + from.Spec.PadCycles
		var overrun bool
		padded, overrun = clk.PadUntil(target)
		if overrun {
			s.log.Append(trace.Event{
				Kind: trace.PadOverrun, CPU: st.lcpu.Index, Cycle: clk.Now(),
				From: from.ID, To: to.ID, AuxCycle: target,
			})
		}
	}

	clk.Advance(s.lat.DispatchCost)

	st.curDomain = to.ID
	st.sliceStart = clk.Now()
	st.sliceEnd = st.sliceStart + to.Spec.SliceCycles
	st.bumpEpoch(to.ID)
	st.cur = nil // dispatched lazily by the run loop

	s.log.Append2(trace.Event{
		Kind: trace.SwitchEnd, CPU: st.lcpu.Index, Cycle: clk.Now(),
		From: from.ID, To: to.ID, AuxCycle: oldSliceStart, Latency: padded,
	}, trace.Event{
		Kind: trace.SliceStart, CPU: st.lcpu.Index, Cycle: st.sliceStart, To: to.ID,
	})
}
