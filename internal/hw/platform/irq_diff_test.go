package platform

import (
	"testing"

	"timeprot/internal/rng"
)

// refIRQ is a reference copy of the original interrupt controller: no
// pending-line count and no early returns, so every Tick walks the
// timers and every PendingUnmasked scans all lines. The differential
// test below holds IRQController to it operation by operation.
type refIRQ struct {
	lines    int
	pending  []bool
	raisedAt []uint64
	masked   [][]bool
	timers   []deviceTimer
}

func newRefIRQ(lines, cores int) *refIRQ {
	r := &refIRQ{lines: lines}
	r.reset(cores)
	return r
}

func (c *refIRQ) reset(cores int) {
	c.pending = make([]bool, c.lines)
	c.raisedAt = make([]uint64, c.lines)
	c.masked = make([][]bool, cores)
	for i := range c.masked {
		c.masked[i] = make([]bool, c.lines)
		for l := range c.masked[i] {
			c.masked[i][l] = true
		}
	}
	c.timers = nil
}

func (c *refIRQ) program(line int, fireAt uint64) bool {
	if line < 0 || line >= c.lines {
		return false
	}
	c.timers = append(c.timers, deviceTimer{line: line, fireAt: fireAt})
	return true
}

func (c *refIRQ) tick(now uint64) {
	var kept []deviceTimer
	for _, t := range c.timers {
		if t.fireAt <= now {
			if !c.pending[t.line] {
				c.pending[t.line] = true
				c.raisedAt[t.line] = t.fireAt
			}
		} else {
			kept = append(kept, t)
		}
	}
	c.timers = kept
}

func (c *refIRQ) pendingUnmasked(core int) int {
	for l := 0; l < c.lines; l++ {
		if c.pending[l] && !c.masked[core][l] {
			return l
		}
	}
	return -1
}

func (c *refIRQ) nextTimerAt(now uint64) (uint64, bool) {
	var best uint64
	found := false
	for _, t := range c.timers {
		if t.fireAt > now && (!found || t.fireAt < best) {
			best = t.fireAt
			found = true
		}
	}
	return best, found
}

// TestIRQControllerMatchesReference drives random Program, Tick,
// SetMask, Ack and Reset sequences against both controllers and
// compares every observable after each operation: PendingUnmasked on
// every core, Pending and RaisedAt on every line, and NextTimerAt.
func TestIRQControllerMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := rng.New(seed)
		lines, cores := 1+r.Intn(8), 1+r.Intn(3)
		c, ref := NewIRQController(lines, cores), newRefIRQ(lines, cores)
		var now uint64
		for op := 0; op < 400; op++ {
			var what string
			switch k := r.Intn(20); {
			case k < 5:
				what = "program"
				line := r.Intn(lines+1) - r.Intn(2) // occasionally out of range
				fireAt := now + r.Uint64n(200)
				if got, want := c.Program(line, fireAt) == nil, ref.program(line, fireAt); got != want {
					t.Fatalf("seed %d op %d: Program(%d) accepted %v, reference %v", seed, op, line, got, want)
				}
			case k < 11:
				what = "tick"
				now += r.Uint64n(60)
				c.Tick(now)
				ref.tick(now)
			case k < 16:
				what = "setmask"
				core, line, m := r.Intn(cores), r.Intn(lines), r.Bool()
				c.SetMask(core, line, m)
				ref.masked[core][line] = m
			case k < 19:
				what = "ack"
				line := r.Intn(lines)
				c.Ack(line)
				ref.pending[line] = false
			default:
				what = "reset"
				c.Reset()
				ref.reset(cores)
			}
			for core := 0; core < cores; core++ {
				if got, want := c.PendingUnmasked(core), ref.pendingUnmasked(core); got != want {
					t.Fatalf("seed %d op %d (%s): PendingUnmasked(%d) = %d, reference %d", seed, op, what, core, got, want)
				}
			}
			for l := 0; l < lines; l++ {
				if c.Pending(l) != ref.pending[l] || c.RaisedAt(l) != ref.raisedAt[l] {
					t.Fatalf("seed %d op %d (%s): line %d pending %v raised %d, reference %v %d",
						seed, op, what, l, c.Pending(l), c.RaisedAt(l), ref.pending[l], ref.raisedAt[l])
				}
			}
			gotAt, gotOK := c.NextTimerAt(now)
			wantAt, wantOK := ref.nextTimerAt(now)
			if gotAt != wantAt || gotOK != wantOK {
				t.Fatalf("seed %d op %d (%s): NextTimerAt = (%d,%v), reference (%d,%v)", seed, op, what, gotAt, gotOK, wantAt, wantOK)
			}
		}
	}
}
