package kernel

import (
	"fmt"
	"math"

	"timeprot/internal/core"
	"timeprot/internal/hw"
	"timeprot/internal/hw/cpu"
	"timeprot/internal/hw/mem"
	"timeprot/internal/hw/platform"
	"timeprot/internal/trace"
)

// SystemConfig assembles a complete simulated system.
type SystemConfig struct {
	// Platform sizes the hardware.
	Platform platform.Config
	// Protection selects the armed time-protection mechanisms.
	Protection core.Config
	// Domains are the security domains, identified by index.
	Domains []core.DomainSpec
	// Schedule is the per-logical-CPU round-robin domain sequence,
	// given as indices into Domains. CPUs without an entry (or with an
	// empty one) never run threads.
	Schedule [][]int
	// Endpoints declares the IPC endpoints.
	Endpoints []EndpointSpec
	// EnableTrace turns on event recording (required by the invariant
	// checkers).
	EnableTrace bool
	// MaxCycles aborts the run when any CPU clock passes it;
	// 0 means DefaultMaxCycles.
	MaxCycles uint64
	// Pool, when non-nil, supplies the hardware machine: construction
	// is served from the pool (reusing a Reset machine of the same
	// platform configuration when one is available) instead of building
	// from scratch. Pooling is invisible to the simulation — a pooled
	// machine starts in exactly the freshly constructed state — so it
	// never appears in any fingerprint. The pool is not synchronised;
	// use one per worker.
	Pool *platform.Pool
	// TraceLog, when non-nil and EnableTrace is set, is the event log
	// to record into (Reset first) instead of allocating a fresh one —
	// the reuse hook for trace-enabled scenarios on the sweep's hot
	// path. The caller must not run two live systems against the same
	// log.
	TraceLog *trace.Log
}

// DefaultMaxCycles caps runaway simulations.
const DefaultMaxCycles = 500_000_000

// Report summarises a completed run.
type Report struct {
	// CPUCycles is each logical CPU's final clock. SMT siblings share
	// a core clock and thus report the same value.
	CPUCycles []uint64
	// ThreadCycles maps thread name to cycles consumed, for the
	// utilisation accounting of §4.3.
	ThreadCycles map[string]uint64
	// Switches counts domain-switch protocol executions.
	Switches int
	// Ops counts thread operations executed (instructions of the
	// synthetic programs, exits excluded) — the sweep engine's per-cell
	// throughput denominator.
	Ops uint64
	// Deadlocked is set when every thread was blocked with no pending
	// device activity.
	Deadlocked bool
	// HitMaxCycles is set when the MaxCycles cap stopped the run.
	HitMaxCycles bool
	// Errors collects thread faults/panics.
	Errors []error
}

// System is an assembled machine + kernel + workload, ready to Run once.
type System struct {
	scfg    SystemConfig
	cfg     core.Config
	lat     hw.Latency
	machine *platform.Machine

	domains    map[hw.DomainID]*Domain
	domainList []*Domain
	cpus       []*cpuState
	threads    []*Thread
	endpoints  map[int]*endpoint

	log *trace.Log

	// switchInspector, when set, is invoked during every domain switch
	// right after the flush with the switching logical CPU's core; the
	// invariant checkers use it to verify the flushable state reached
	// its defined reset state.
	switchInspector func(cpuIndex int, core *cpu.Core)

	seq      uint64
	live     int
	switches int
	ops      uint64
	ran      bool

	// stepping is the thread whose Program.Step is executing, nil
	// outside user code: the one thread a panic may fault.
	stepping *Thread
}

// NewSystem validates the configuration and builds the system: machine,
// kernel images (shared or per-domain clones), domain address spaces with
// (optionally) coloured frames, endpoints and schedules.
func NewSystem(scfg SystemConfig) (*System, error) {
	if err := scfg.Platform.Validate(); err != nil {
		return nil, err
	}
	m := scfg.Pool.Get(scfg.Platform)
	if err := validateSpecs(scfg.Protection, scfg.Domains, m.Colors(), scfg.Platform.IRQLines); err != nil {
		return nil, err
	}
	if len(scfg.Schedule) > len(m.CPUs) {
		return nil, fmt.Errorf("kernel: schedule for %d CPUs but machine has %d", len(scfg.Schedule), len(m.CPUs))
	}
	s := &System{
		scfg:      scfg,
		cfg:       scfg.Protection,
		lat:       scfg.Platform.Lat,
		machine:   m,
		domains:   make(map[hw.DomainID]*Domain),
		endpoints: make(map[int]*endpoint),
	}
	if scfg.EnableTrace {
		if scfg.TraceLog != nil {
			scfg.TraceLog.Reset()
			s.log = scfg.TraceLog
		} else {
			s.log = trace.NewLog()
		}
	}
	if s.scfg.MaxCycles == 0 {
		s.scfg.MaxCycles = DefaultMaxCycles
	}

	// Kernel global data page: from the reserved colour when colouring
	// is armed so it never contends with user partitions.
	var globalColors mem.ColorSet
	if scfg.Protection.ColorUserMemory {
		globalColors = mem.NewColorSet(core.KernelReservedColor)
	}
	globalPFN, err := m.Alloc.Alloc(hw.KernelOwner, globalColors)
	if err != nil {
		return nil, fmt.Errorf("kernel: global data: %w", err)
	}

	// Shared kernel image, used by all domains unless cloning is
	// armed. Its frames come from anywhere — with colouring on but
	// cloning off, kernel text still collides with user partitions,
	// which is the T5 ablation.
	var shared *KernelImage
	if !scfg.Protection.CloneKernel {
		shared, err = buildKernelImage(m.Alloc, hw.KernelOwner, nil)
		if err != nil {
			return nil, err
		}
	}

	for i, spec := range scfg.Domains {
		d, err := buildDomain(hw.DomainID(i), spec, scfg.Protection, m.Alloc, shared, globalPFN)
		if err != nil {
			return nil, err
		}
		s.domains[d.ID] = d
		s.domainList = append(s.domainList, d)
	}

	for _, es := range scfg.Endpoints {
		if _, dup := s.endpoints[es.ID]; dup {
			return nil, fmt.Errorf("kernel: duplicate endpoint %d", es.ID)
		}
		s.endpoints[es.ID] = &endpoint{spec: es}
	}

	// CPU scheduling state.
	for i, lcpu := range m.CPUs {
		st := &cpuState{
			lcpu:   lcpu,
			runQ:   make(map[hw.DomainID][]*Thread),
			epochs: make(map[hw.DomainID]uint64),
		}
		if i < len(scfg.Schedule) {
			for _, di := range scfg.Schedule[i] {
				if di < 0 || di >= len(s.domainList) {
					return nil, fmt.Errorf("kernel: schedule for CPU %d references unknown domain %d", i, di)
				}
				st.schedule = append(st.schedule, hw.DomainID(di))
			}
		}
		if len(st.schedule) == 0 {
			st.done = true
		}
		s.cpus = append(s.cpus, st)
	}

	// The no-cross-domain-SMT policy (§4.1): with SMT enabled and the
	// policy armed, sibling hardware threads must follow identical
	// domain schedules so that no two domains are ever co-resident.
	if scfg.Platform.SMTWays > 1 && scfg.Protection.DisallowSMTSharing {
		for _, st := range s.cpus {
			for _, other := range s.cpus {
				if st.lcpu.Sibling(other.lcpu) && !sameSchedule(st.schedule, other.schedule) {
					return nil, fmt.Errorf("kernel: DisallowSMTSharing: CPUs %d and %d are SMT siblings with different schedules",
						st.lcpu.Index, other.lcpu.Index)
				}
			}
		}
	}
	return s, nil
}

func sameSchedule(a, b []hw.DomainID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SpawnProgram adds a thread running the direct-execution program p in
// domain domainIdx, pinned to logical CPU cpuIdx. It must be called
// before Run. The event loop steps p inline — no goroutine is created.
func (s *System) SpawnProgram(domainIdx int, name string, cpuIdx int, p Program) (*Thread, error) {
	if s.ran {
		return nil, fmt.Errorf("kernel: Spawn after Run")
	}
	if domainIdx < 0 || domainIdx >= len(s.domainList) {
		return nil, fmt.Errorf("kernel: Spawn %s: unknown domain %d", name, domainIdx)
	}
	if cpuIdx < 0 || cpuIdx >= len(s.cpus) {
		return nil, fmt.Errorf("kernel: Spawn %s: unknown CPU %d", name, cpuIdx)
	}
	st := s.cpus[cpuIdx]
	d := s.domainList[domainIdx]
	inSched := false
	for _, sd := range st.schedule {
		if sd == d.ID {
			inSched = true
			break
		}
	}
	if !inSched {
		return nil, fmt.Errorf("kernel: Spawn %s: domain %s not in CPU %d schedule", name, d.Spec.Name, cpuIdx)
	}
	t := &Thread{
		ID:     ThreadID(len(s.threads)),
		Name:   name,
		Domain: d,
		CPU:    cpuIdx,
		prog:   p,
		state:  threadReady,
		pc:     d.CodeBase(),
	}
	t.m.t = t
	s.threads = append(s.threads, t)
	d.Threads = append(d.Threads, t)
	st.enqueue(t)
	return t, nil
}

// SetSwitchInspector installs a hook called during every domain switch
// immediately after the flush step, with the switching logical CPU's
// index and core. It must be installed before Run. The hook must not
// mutate hardware state; it exists for the flush-invariant checker.
func (s *System) SetSwitchInspector(fn func(cpuIndex int, core *cpu.Core)) {
	s.switchInspector = fn
}

// Machine exposes the hardware platform for introspection by the
// invariant checkers and tests.
func (s *System) Machine() *platform.Machine { return s.machine }

// Trace returns the event log (nil when tracing is disabled).
func (s *System) Trace() *trace.Log { return s.log }

// Domains returns the domains in ID order.
func (s *System) Domains() []*Domain { return s.domainList }

// Protection returns the armed protection configuration.
func (s *System) Protection() core.Config { return s.cfg }

// Run executes the workload to completion (all threads exited), global
// block, or the cycle cap, and returns the report. A System can run only
// once.
func (s *System) Run() (Report, error) {
	if s.ran {
		return Report{}, fmt.Errorf("kernel: system already ran")
	}
	s.ran = true
	s.live = len(s.threads)

	var rep Report
	for !s.loop(&rep) {
	}
	rep.Deadlocked = s.live > 0 && !rep.HitMaxCycles && s.noRunnableAnywhere()

	rep.CPUCycles = make([]uint64, len(s.cpus))
	rep.ThreadCycles = make(map[string]uint64, len(s.threads))
	for i, st := range s.cpus {
		rep.CPUCycles[i] = st.clk().Now()
	}
	for _, t := range s.threads {
		rep.ThreadCycles[t.Name] = t.Cycles
		if t.Err != nil {
			rep.Errors = append(rep.Errors, t.Err)
		}
	}
	rep.Switches = s.switches
	rep.Ops = s.ops
	return rep, nil
}

// loop is the event loop. It runs until the workload completes, blocks
// or hits the cycle cap, and then returns true. A panic in a program's
// Step unwinds to loop's one deferred handler, which faults the
// stepping thread and returns false so Run resumes the loop; any other
// panic is a simulator bug and propagates.
func (s *System) loop(rep *Report) (finished bool) {
	defer func() {
		r := recover()
		if r == nil {
			return // a normal return, or runtime.Goexit
		}
		t := s.stepping
		if t == nil {
			panic(r)
		}
		s.stepping = nil
		s.fault(t, r)
	}()
	for s.live > 0 {
		st, bound := s.pickCPU()
		if st == nil {
			break
		}
		// Stay on st while pickCPU would pick it again: st is still
		// live and its clock is strictly below every other live CPU's
		// clock (on a tie the other, less recently stepped CPU wins).
		// Stepping st moves no other core's clock, and SMT siblings
		// share st's clock, so a sibling bounds the stay at one step.
		for {
			if st.clk().Now() >= s.scfg.MaxCycles {
				rep.HitMaxCycles = true
				return true
			}
			s.step(st)
			if st.done || st.clk().Now() >= bound || !st.anyLive() {
				break
			}
		}
	}
	return true
}

// pickCPU selects the logical CPU to step: the lowest clock among live
// CPUs, ties broken by least-recently-stepped then index — deterministic,
// and fair between SMT siblings sharing one clock. bound is the lowest
// clock among the other live CPUs (MaxUint64 when there is none).
func (s *System) pickCPU() (best *cpuState, bound uint64) {
	bound = math.MaxUint64
	for _, st := range s.cpus {
		if st.done {
			continue
		}
		if !st.anyLive() {
			st.done = true
			continue
		}
		if best == nil {
			best = st
			continue
		}
		bc, sc := best.clk().Now(), st.clk().Now()
		if sc < bc || (sc == bc && st.lastSeq < best.lastSeq) {
			best, sc = st, bc
		}
		bound = min(bound, sc)
	}
	return best, bound
}

// noRunnableAnywhere reports whether no thread is Ready or Running and no
// device timer is pending — a global block.
func (s *System) noRunnableAnywhere() bool {
	for _, t := range s.threads {
		if t.state == threadReady || t.state == threadRunning {
			return false
		}
	}
	if _, ok := s.machine.IRQ.NextTimerAt(0); ok {
		return false
	}
	return true
}

// step advances one logical CPU by one scheduling decision or one thread
// operation.
func (s *System) step(st *cpuState) {
	s.seq++
	st.lastSeq = s.seq
	clk := st.clk()

	if !st.started {
		st.started = true
		d := s.domains[st.schedule[st.schedIdx]]
		st.curDomain = d.ID
		s.applyIRQMasks(st, d)
		st.sliceStart = clk.Now()
		st.sliceEnd = st.sliceStart + d.Spec.SliceCycles
		st.bumpEpoch(d.ID)
		s.log.Append(trace.Event{Kind: trace.SliceStart, CPU: st.lcpu.Index, Cycle: st.sliceStart, To: d.ID})
	}

	now := clk.Now()

	// Device interrupts: deliver the lowest pending unmasked line.
	s.machine.IRQ.Tick(now)
	if line := s.machine.IRQ.PendingUnmasked(st.lcpu.Core.ID()); line >= 0 {
		raised := s.machine.IRQ.RaisedAt(line)
		s.machine.IRQ.Ack(line)
		d := s.domains[st.curDomain]
		cycles := s.kernelEnter(st, d, TrapIRQ) + s.lat.IRQAck
		cycles += s.kernelExit(st, d)
		clk.Advance(cycles)
		s.log.Append(trace.Event{
			Kind: trace.IRQDeliver, CPU: st.lcpu.Index, Cycle: clk.Now(),
			To: st.curDomain, Aux: line, AuxCycle: raised, Latency: cycles,
		})
		return
	}

	// Preemption timer: end of slice.
	if now >= st.sliceEnd {
		s.switchOrRenew(st)
		return
	}

	// Need a running thread.
	if st.cur == nil {
		if t := st.nextReady(st.curDomain, now); t != nil {
			t.state = threadRunning
			st.cur = t
			clk.Advance(s.lat.ContextSwitch)
			if !t.begun {
				t.begun = true
				s.respondAndFetch(t, response{now: clk.Now()})
			} else if t.hasPending {
				r := t.pendingResp
				t.hasPending = false
				r.now = clk.Now()
				s.respondAndFetch(t, r)
			}
			return
		}
		// No eligible thread in the current domain. If one is merely
		// gated (IPC delivery time), idle up to the gate; otherwise
		// give up the rest of the slice.
		if wake, ok := st.earliestWake(st.curDomain); ok && wake < st.sliceEnd {
			target := wake
			if tmr, okT := s.machine.IRQ.NextTimerAt(now); okT && tmr < target {
				target = tmr
			}
			if target <= now {
				target = now + 1
			}
			clk.Advance(target - now)
			return
		}
		if s.noRunnableAnywhere() {
			st.done = true
			return
		}
		// Early yield of the remaining slice. The switch protocol's
		// padding rule makes this invisible under protection; without
		// padding the next domain starts early — a channel.
		s.switchOrRenew(st)
		return
	}

	// Execute one operation of the current thread. The operation was
	// fetched (by stepping the program) when the previous response was
	// delivered.
	st.cur.m.issued = false
	s.execOp(st, st.cur, &st.cur.m.op)
}

// respondAndFetch delivers a response to t's program and immediately
// fetches t's next operation by stepping the program inline. A Done
// status or a broken step contract becomes a synthetic exit operation,
// as does a panic in the program (through loop's handler), so the
// thread always makes progress towards opExit; only t's program runs in
// between — the lockstep that makes user code deterministic. Every
// caller calls it last, so a panic unwinding out of it skips no kernel
// work.
func (s *System) respondAndFetch(t *Thread, resp response) {
	t.m.res = resp
	t.m.issued = false
	s.stepping = t
	st := t.prog.Step(&t.m)
	s.stepping = nil
	switch {
	case st == Done && t.m.issued:
		s.fault(t, "program issued an operation and returned Done")
	case st == Done:
		t.m.op = request{kind: opExit}
		t.m.issued = true
	case !t.m.issued:
		s.fault(t, "program returned Running without issuing an operation")
	}
}

// fault ends t's program: it records why as the thread's error and
// replaces the pending operation with a synthetic exit. A faulted
// program is never stepped again, so it can neither observe nor
// recover from the fault.
func (s *System) fault(t *Thread, why any) {
	t.Err = fmt.Errorf("kernel: thread %s panicked: %v", t.Name, why)
	t.m.op = request{kind: opExit}
	t.m.issued = true
}

// switchOrRenew runs the domain-switch protocol, or just renews the slice
// when the schedule has a single domain (no domain switch, hence no flush
// and no padding — intra-domain scheduling is unrestricted).
func (s *System) switchOrRenew(st *cpuState) {
	next := s.domains[st.schedule[st.nextDomainIdx()]]
	if next.ID == st.curDomain {
		clk := st.clk()
		d := s.domains[st.curDomain]
		clk.Advance(s.kernelEnter(st, d, TrapTimer))
		clk.Advance(s.kernelExit(st, d))
		st.sliceStart = clk.Now()
		st.sliceEnd = st.sliceStart + d.Spec.SliceCycles
		st.bumpEpoch(d.ID)
		s.log.Append(trace.Event{Kind: trace.SliceStart, CPU: st.lcpu.Index, Cycle: st.sliceStart, To: d.ID})
		return
	}
	s.switches++
	s.domainSwitch(st)
}

// execOp performs one thread operation. An operation that completes
// delivers its response — and fetches the next operation — last; a
// faulting one ends the program instead (fault); a blocking one parks
// the thread until its pendingResp is delivered at the next dispatch.
func (s *System) execOp(st *cpuState, t *Thread, r *request) {
	if r.kind != opExit {
		s.ops++
	}
	clk := st.clk()
	d := t.Domain
	coreHW := st.lcpu.Core
	start := clk.Now()
	var resp response
	var err error

	switch r.kind {
	case opExit:
		t.state = threadExited
		st.cur = nil
		s.live--
		s.log.Append(trace.Event{Kind: trace.ThreadExit, CPU: st.lcpu.Index, Cycle: clk.Now(), From: d.ID})
		return

	case opRead, opWrite:
		kind := cpu.DataRead
		if r.kind == opWrite {
			kind = cpu.DataWrite
		}
		ifetch := s.userFetch(st, t)
		var cycles uint64
		cycles, err = coreHW.Access(d.ASID, d.PT, r.addr, kind, d.ID)
		clk.Advance(ifetch + cycles)
		resp.latency = cycles

	case opCompute:
		resp.latency = s.userFetch(st, t) + r.n
		clk.Advance(resp.latency)

	case opNow:
		resp.latency = s.userFetch(st, t) + 1
		clk.Advance(resp.latency)

	case opBranch:
		ifetch := s.userFetch(st, t)
		resp.latency, _ = coreHW.Branch(r.addr, r.taken)
		clk.Advance(ifetch + resp.latency)

	case opSend:
		if _, err = s.endpointByID(r.arg); err != nil {
			break
		}
		clk.Advance(s.kernelEnter(st, d, TrapSend))
		if s.ipcSend(st, t, r.arg, r.n, clk.Now()) {
			clk.Advance(s.kernelExit(st, d))
			break
		}
		// Sender blocked in the endpoint queue.
		t.Cycles += clk.Now() - start
		st.cur = nil
		st.enqueue(t)
		return

	case opRecv:
		if _, err = s.endpointByID(r.arg); err != nil {
			break
		}
		clk.Advance(s.kernelEnter(st, d, TrapRecv))
		s.ipcRecv(st, t, r.arg, clk.Now())
		t.Cycles += clk.Now() - start
		st.cur = nil
		st.enqueue(t)
		return

	case opStartIO:
		if !d.ownsIRQ(r.arg) {
			err = fmt.Errorf("kernel: domain %s does not own IRQ line %d", d.Spec.Name, r.arg)
			break
		}
		clk.Advance(s.kernelEnter(st, d, TrapStartIO))
		if err = s.machine.IRQ.Program(r.arg, clk.Now()+r.n); err != nil {
			break
		}
		clk.Advance(s.kernelExit(st, d))

	case opEpoch:
		resp.latency = s.userFetch(st, t) + 1
		resp.val = st.epochs[d.ID]
		clk.Advance(resp.latency)

	case opNull:
		resp.latency = s.kernelEnter(st, d, TrapNull) + s.kernelExit(st, d)
		clk.Advance(resp.latency)

	case opYield:
		clk.Advance(s.kernelEnter(st, d, TrapYield))
		clk.Advance(s.kernelExit(st, d))
		t.Cycles += clk.Now() - start
		t.state = threadReady
		t.wakeAt = 0
		t.pendingResp, t.hasPending = response{}, true
		st.cur = nil
		st.enqueue(t)
		return

	default:
		err = fmt.Errorf("kernel: unknown op %d", r.kind)
	}

	t.Cycles += clk.Now() - start
	if err != nil {
		s.fault(t, err)
		return
	}
	resp.now = clk.Now()
	s.respondAndFetch(t, resp)
}

// userFetch charges the instruction fetch for one user operation and
// advances the synthetic program counter by one line, wrapping over the
// domain's code region.
func (s *System) userFetch(st *cpuState, t *Thread) uint64 {
	d := t.Domain
	cycles, err := st.lcpu.Core.Access(d.ASID, d.PT, t.pc, cpu.InstrFetch, d.ID)
	if err != nil {
		panic(err) // code is always mapped at construction
	}
	off := uint64(t.pc-d.CodeBase()) + hw.LineSize
	t.pc = d.CodeAddr(off)
	return cycles
}
