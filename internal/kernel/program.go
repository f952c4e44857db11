package kernel

import (
	"fmt"

	"timeprot/internal/hw"
)

// This file is the program model, the simulator's one execution
// semantics: the event loop runs user programs by calling a step
// function inline — no goroutines, no channel handoffs, no parking.

// Status is a program's answer to the scheduler after one step.
type Status int

const (
	// Running means the program issued its next operation through the
	// Machine and wants to be resumed with its result. Blocking
	// operations (Send, Recv, Yield) are issued the same way: the
	// scheduler parks the thread's state — not a goroutine — and calls
	// Step again when the operation completes.
	Running Status = iota
	// Done means the program finished; the thread exits.
	Done
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Running:
		return "running"
	case Done:
		return "done"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Program is a user program: a resumable step function over explicit
// state of the implementer's choosing — a struct, or the locals a
// ProgramFunc closure captures. The
// event loop calls Step inline each time the thread may execute one
// operation; Step must either issue exactly one operation through the
// Machine and return Running, or issue none and return Done.
//
// The result of the issued operation is available from the Machine's
// accessors (Latency, Time, Value) at the NEXT Step call — programs are
// written as small state machines that consume the previous result and
// issue the next operation. The event loop runs one Step at a time, so
// programs may share plain Go state with each other and with the
// harness: all user code is serialised in a deterministic order.
//
// A panic in Step faults the thread (recorded in the run report's
// Errors), as does breaking the one-operation contract above.
type Program interface {
	Step(m *Machine) Status
}

// ProgramFunc adapts an ordinary function to the Program interface, in
// the style of http.HandlerFunc: a closure over local counters is a
// program. Such a closure carries its state, so build a fresh one for
// each thread.
type ProgramFunc func(m *Machine) Status

// Step implements Program by calling f(m).
func (f ProgramFunc) Step(m *Machine) Status { return f(m) }

// Machine is the per-thread execution context handed to Program.Step:
// the previous operation's result, the issue methods for the next
// operation, and the domain helpers programs need to form addresses.
// Every issue method records exactly one operation and returns Running,
// so the idiom is
//
//	return m.ReadHeap(off)
//
// Machine values are owned by the engine; programs must not retain them
// across Step calls.
type Machine struct {
	t   *Thread
	res response
	// op is the operation issued by the current step; issued doubles as
	// the thread's has-pending-operation flag between Step and the
	// event-loop iteration that executes the operation.
	op     request
	issued bool
}

// Latency returns the previous operation's cost in cycles as the thread
// observed it: for a Read, the access latency an attacker times.
func (m *Machine) Latency() uint64 { return m.res.latency }

// Time returns the core clock at completion of the previous operation —
// the sample a Now reads, and the timestamp a Recv delivery carries.
func (m *Machine) Time() uint64 { return m.res.now }

// Value returns the previous operation's result value: the payload for
// Recv, the slice count for Epoch.
func (m *Machine) Value() uint64 { return m.res.val }

// issue records the step's single operation.
func (m *Machine) issue(r request) Status {
	if m.issued {
		panic("kernel: program issued two operations in one step")
	}
	m.op = r
	m.issued = true
	return Running
}

// Read issues a load of the byte at virtual address va; the next step's
// Latency is the access cost — the prime-and-probe primitive.
func (m *Machine) Read(va hw.Addr) Status { return m.issue(request{kind: opRead, addr: va}) }

// Write issues a store to virtual address va. Writes dirty cache lines,
// lengthening a later flush (§4.2).
func (m *Machine) Write(va hw.Addr) Status { return m.issue(request{kind: opWrite, addr: va}) }

// ReadHeap is Read at byte offset off within the domain's heap.
func (m *Machine) ReadHeap(off uint64) Status { return m.Read(m.t.Domain.HeapAddr(off)) }

// WriteHeap is Write at byte offset off within the domain's heap.
func (m *Machine) WriteHeap(off uint64) Status { return m.Write(m.t.Domain.HeapAddr(off)) }

// Compute issues n cycles of pure computation.
func (m *Machine) Compute(n uint64) Status { return m.issue(request{kind: opCompute, n: n}) }

// Now issues a read of the core's cycle counter — the rdtsc analogue;
// the next step's Time is the sample.
func (m *Machine) Now() Status { return m.issue(request{kind: opNow}) }

// Branch issues a conditional branch at code offset pcOff with the
// given outcome; the next step's Latency reveals the prediction.
func (m *Machine) Branch(pcOff uint64, taken bool) Status {
	return m.issue(request{kind: opBranch, addr: m.t.Domain.CodeAddr(pcOff), taken: taken})
}

// Send issues a synchronous IPC send of val on endpoint ep. The thread
// blocks until a receiver rendezvouses; the scheduler resumes the
// program when the send completes.
func (m *Machine) Send(ep int, val uint64) Status {
	return m.issue(request{kind: opSend, arg: ep, n: val})
}

// Recv issues a synchronous IPC receive on endpoint ep. When the
// program resumes, Value is the payload and Time the delivery cycle —
// the receiver's timing observation of the sender.
func (m *Machine) Recv(ep int) Status { return m.issue(request{kind: opRecv, arg: ep}) }

// StartIO issues programming of the device on IRQ line to raise its
// completion interrupt delay cycles from now (§4.2).
func (m *Machine) StartIO(line int, delay uint64) Status {
	return m.issue(request{kind: opStartIO, arg: line, n: delay})
}

// Yield gives up the CPU to the next ready thread of the same domain.
func (m *Machine) Yield() Status { return m.issue(request{kind: opYield}) }

// Epoch issues a read of the number of time slices the thread's domain
// has begun on its CPU; the next step's Value is the count.
func (m *Machine) Epoch() Status { return m.issue(request{kind: opEpoch}) }

// NullSyscall issues a syscall that only enters and exits the kernel —
// the probe for the kernel-image channel (§4.2).
func (m *Machine) NullSyscall() Status { return m.issue(request{kind: opNull}) }

// HeapBytes returns the size of the domain's heap.
func (m *Machine) HeapBytes() uint64 { return m.t.Domain.HeapBytes() }

// HeapAddr resolves a heap offset to a virtual address.
func (m *Machine) HeapAddr(off uint64) hw.Addr { return m.t.Domain.HeapAddr(off) }

// DomainName returns the owning domain's name.
func (m *Machine) DomainName() string { return m.t.Domain.Spec.Name }
