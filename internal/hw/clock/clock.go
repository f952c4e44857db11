// Package clock provides the per-core cycle counter and the padding
// arithmetic of the time model.
//
// The paper's formalisation (§5.1) needs only "a simple model of a
// hardware clock ... to allow reasoning about elapsed time intervals",
// with time advancing by a deterministic (but unspecified) function of
// the microarchitectural state. Clock is that model: a monotone counter
// advanced by the latencies the rest of internal/hw computes. PadUntil
// implements the verification-friendly padding primitive: "correct
// padding can be verified ... by simply comparing time stamps" (§5).
package clock

import "fmt"

// Clock is a core-local cycle counter. The zero value reads zero cycles.
type Clock struct {
	cycles uint64
}

// Now returns the current cycle count. This is the simulated analogue of
// a cycle-accurate timestamp counter (rdtsc); user programs read it by
// issuing the kernel's Machine.Now.
func (c *Clock) Now() uint64 { return c.cycles }

// Advance moves the clock forward by n cycles and returns the new time.
func (c *Clock) Advance(n uint64) uint64 {
	c.cycles += n
	return c.cycles
}

// PadUntil advances the clock to target if it is earlier, returning the
// number of cycles spent padding. If the clock is already at or past
// target it returns 0 and reports overrun=true when strictly past —
// the condition the padding-sufficiency checker flags, because an
// overrun means the pad failed to hide the latency it was meant to mask.
func (c *Clock) PadUntil(target uint64) (padded uint64, overrun bool) {
	if c.cycles > target {
		return 0, true
	}
	padded = target - c.cycles
	c.cycles = target
	return padded, false
}

// Reset sets the clock to zero (between experiment trials).
func (c *Clock) Reset() { c.cycles = 0 }

// String implements fmt.Stringer.
func (c *Clock) String() string { return fmt.Sprintf("cycle %d", c.cycles) }
