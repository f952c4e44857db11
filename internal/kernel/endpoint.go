package kernel

import (
	"fmt"
	"slices"

	"timeprot/internal/trace"
)

// endpoint is a synchronous IPC rendezvous point with an optional
// minimum-delivery-time attribute (§3.2; Cock et al. [2014]).
type endpoint struct {
	spec EndpointSpec
	// sendQ holds senders blocked waiting for a receiver; their
	// payload and timing context are recorded on the Thread. Both
	// queues pop in place (slices.Delete), keeping their capacity, so
	// a steady IPC stream allocates nothing.
	sendQ []*Thread
	// recvQ holds receivers blocked waiting for a message.
	recvQ []*Thread
	// lastDeliver is the previous cross-domain delivery time; with
	// MinDelivery armed, deliveries form a fixed cadence:
	// each at least MinDelivery after the previous one.
	lastDeliver uint64
	// delivered counts cross-domain deliveries.
	delivered uint64
}

// deliverAt computes when a message sent at sendTime (from a slice that
// started at sliceStart) becomes visible to a cross-domain receiver.
//
// With minimum-delivery armed, deliveries on the endpoint form a fixed
// cadence: the first is gated to the sender's slice start plus
// MinDelivery, and each subsequent one to the previous delivery plus
// MinDelivery. As long as the designer chose MinDelivery at or above the
// sender's worst-case inter-message computation time, delivery times are
// a deterministic schedule carrying no information about the sender's
// secret-dependent execution (§3.2; the Cock et al. [2014] model of a
// synchronous channel that "switches to the receiver only once the
// sender domain has executed for a pre-determined minimum amount of
// time"). A send arriving after its deadline is an overrun: the kernel
// cannot rewind time, so it delivers immediately, resynchronises the
// cadence, and reports the policy violation for the checker to flag.
func (e *endpoint) deliverAt(sys *System, sendTime, sliceStart uint64) (at uint64, overrun bool) {
	if !sys.cfg.MinDeliveryIPC || e.spec.MinDelivery == 0 {
		return sendTime, false
	}
	target := sliceStart + e.spec.MinDelivery
	if e.delivered > 0 {
		target = e.lastDeliver + e.spec.MinDelivery
	}
	if sendTime <= target {
		return target, false
	}
	return sendTime, true
}

// ipcSend processes a send of val on endpoint ep by thread t at time now.
// It returns done=true with the sender's completion handled if the
// rendezvous completed, or done=false if the sender blocked.
func (s *System) ipcSend(st *cpuState, t *Thread, ep int, val uint64, now uint64) (done bool) {
	e, err := s.endpointByID(ep)
	if err != nil {
		panic(err) // validated by execOp before kernel entry
	}
	if len(e.recvQ) > 0 {
		r := e.recvQ[0]
		e.recvQ = slices.Delete(e.recvQ, 0, 1)
		// The sender is the currently executing thread and completes
		// synchronously; only the receiver's wake-up is scheduled.
		s.completeDelivery(e, t, r, val, now, st.sliceStart)
		return true
	}
	// No receiver: block the sender, remembering the timing context
	// needed for the delivery rule when the receiver arrives.
	t.state = threadBlocked
	t.sendPayload = val
	t.sendTime = now
	t.sendSliceStart = st.sliceStart
	e.sendQ = append(e.sendQ, t)
	return false
}

// ipcRecv processes a receive on endpoint ep by thread t at time now.
func (s *System) ipcRecv(st *cpuState, t *Thread, ep int, now uint64) (done bool) {
	e, err := s.endpointByID(ep)
	if err != nil {
		panic(err) // validated by execOp before kernel entry
	}
	t.state = threadBlocked
	if len(e.sendQ) > 0 {
		snd := e.sendQ[0]
		e.sendQ = slices.Delete(e.sendQ, 0, 1)
		s.completeDelivery(e, snd, t, snd.sendPayload, snd.sendTime, snd.sendSliceStart)
		// The queued sender unblocks: its send completed back when it
		// was queued; it resumes when its own domain next runs.
		snd.state = threadReady
		snd.wakeAt = snd.sendTime
		snd.pendingResp, snd.hasPending = response{}, true
		return false // receiver still waits until its wakeAt
	}
	e.recvQ = append(e.recvQ, t)
	return false
}

// completeDelivery finishes a rendezvous: sender snd's message (sent at
// sendTime within a slice starting at sendSliceStart) is delivered to
// receiver rcv, who becomes Ready gated by the delivery time. The
// SENDER's scheduling state is the caller's responsibility: a sender
// completing its own Send synchronously must not be touched, while a
// queued sender must be woken by the caller.
func (s *System) completeDelivery(e *endpoint, snd, rcv *Thread, val uint64, sendTime, sendSliceStart uint64) {
	at, overrun := sendTime, false
	if snd.Domain.ID != rcv.Domain.ID {
		// The delivery rule protects cross-domain flows only;
		// intra-domain information flow is unrestricted (§2).
		at, overrun = e.deliverAt(s, sendTime, sendSliceStart)
		e.lastDeliver = at
		e.delivered++
	}
	if overrun {
		s.log.Append(trace.Event{
			Kind: trace.PadOverrun, CPU: rcv.CPU, Cycle: sendTime,
			From: snd.Domain.ID, To: rcv.Domain.ID, Aux: e.spec.ID,
			AuxCycle: sendSliceStart + e.spec.MinDelivery,
		})
	}
	s.log.Append(trace.Event{
		Kind: trace.IPCDeliver, CPU: rcv.CPU, Cycle: at,
		From: snd.Domain.ID, To: rcv.Domain.ID, Aux: e.spec.ID,
		AuxCycle: sendTime, Latency: at - sendTime,
	})

	// Receiver: sees the payload, but not before the delivery time.
	rcv.state = threadReady
	rcv.wakeAt = at
	rcv.pendingResp, rcv.hasPending = response{val: val}, true
}

func (s *System) endpointByID(id int) (*endpoint, error) {
	e, ok := s.endpoints[id]
	if !ok {
		return nil, fmt.Errorf("kernel: no such endpoint %d", id)
	}
	return e, nil
}
