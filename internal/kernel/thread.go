package kernel

import (
	"fmt"

	"timeprot/internal/hw"
)

// ThreadID identifies a thread within a System.
type ThreadID int

// threadState is a thread's scheduling state.
type threadState int

const (
	threadReady threadState = iota
	threadRunning
	threadBlocked // waiting in an endpoint queue or gated by wakeAt
	threadExited
)

func (s threadState) String() string {
	switch s {
	case threadReady:
		return "ready"
	case threadRunning:
		return "running"
	case threadBlocked:
		return "blocked"
	case threadExited:
		return "exited"
	default:
		return fmt.Sprintf("threadState(%d)", int(s))
	}
}

// opKind enumerates the operations a thread can request of the machine.
type opKind int

const (
	opRead opKind = iota
	opWrite
	opCompute
	opNow
	opBranch
	opSend
	opRecv
	opStartIO
	opYield
	opEpoch
	opNull
	opExit
)

// request is one operation a program asks the machine to perform.
type request struct {
	kind  opKind
	addr  hw.Addr // read/write target, branch pc
	n     uint64  // compute cycles / send payload / IO delay
	arg   int     // endpoint ID, IRQ line
	taken bool    // branch outcome
}

// response is the machine's reply: what the thread observes. It holds
// no pointers and no error — a faulting operation never produces a
// response, it ends the program (System.fault).
type response struct {
	// latency is the operation's cost in cycles as seen by the thread
	// (for blocking operations: from request to resumption).
	latency uint64
	// now is the core clock when the operation completed. This is the
	// thread's only view of time — the simulated cycle counter.
	now uint64
	// val is the received payload (Recv) or other result value.
	val uint64
}

// Thread is a schedulable execution context bound to a domain and a
// logical CPU. Its program is a Program stepped inline by the event
// loop.
type Thread struct {
	ID     ThreadID
	Name   string
	Domain *Domain
	// CPU is the logical CPU index the thread is pinned to.
	CPU int

	// prog is the thread's program; m is the execution context the
	// event loop passes to its Step calls. m.issued marks a fetched
	// operation awaiting execution.
	prog Program
	m    Machine

	state threadState
	// wakeAt gates a Ready thread: it may not be dispatched before the
	// core clock reaches wakeAt (deterministic IPC delivery, §3.2).
	wakeAt uint64
	// pendingResp, when hasPending is set, is delivered when the
	// thread is next dispatched (completion of a blocking operation).
	pendingResp response
	hasPending  bool
	// begun is set when the thread has been dispatched for the first
	// time; before that its program runs no user code.
	begun bool
	// sendTime and sendSliceStart record a blocked sender's context
	// for the delivery-time rule.
	sendTime       uint64
	sendSliceStart uint64
	sendPayload    uint64

	// pc is the synthetic program counter: each operation fetches one
	// code line and advances it (wrapping over the code region).
	pc hw.Addr

	// Cycles accumulates the cycles this thread consumed, for the
	// utilisation accounting of §4.3 (busy-loop versus interim-process
	// padding).
	Cycles uint64

	// Err records a panic raised by the thread's program.
	Err error
}

// State returns the thread's scheduling state (for tests and reports).
func (t *Thread) State() string { return t.state.String() }
