package attacks

import (
	"fmt"

	"timeprot/internal/core"
	"timeprot/internal/hw/mem"
	"timeprot/internal/hw/platform"
	"timeprot/internal/kernel"
)

// This file implements T9, the Figure-1 downgrader scenario: an
// encryption component (Hi) receives secrets and publishes ciphertext to
// a network stack (Lo). Even though the message flow is sanctioned, the
// TIMING of the messages leaks the secret when the crypto computation is
// secret-dependent (§3.2, an algorithmic channel).
//
// Defences evaluated:
//   - deterministic minimum-time delivery (the Cock et al. model): the
//     kernel delivers on a fixed cadence regardless of when the sender
//     finished;
//   - padding of the downgrader's execution (§4.3), in both variants the
//     paper discusses: wasteful busy-loop padding inside the component,
//     and scheduling another Hi process ("interim process") to soak up
//     the pad time productively. The utilisation numbers quantify the
//     paper's "in practice, this is very wastive" remark.

// padMode selects how the downgrader pads its early completion.
type padMode int

const (
	padNone padMode = iota
	padBusyLoop
	padInterim
)

const (
	t9Slice   = 30_000
	t9Pad     = 10_000
	t9Arity   = 4
	t9Base    = 8_000   // cycles of crypto work for symbol 0
	t9Step    = 12_000  // extra cycles per symbol value
	t9WCET    = 120_000 // wall-clock bound for one round, busy-loop target
	t9Cadence = 200_000 // MinDelivery cadence
)

// t9Arrival is one ciphertext delivery as the network stack saw it.
type t9Arrival struct {
	sym int
	at  uint64
}

// t9Crypto is the downgrader: per round, secret-dependent "encryption"
// time, then publish the ciphertext. The secret rides along as payload
// purely as ground truth for the capacity estimate.
type t9Crypto struct {
	rounds  int
	mode    padMode
	secrets []int
	useful  *uint64

	phase      int
	r          int
	roundStart uint64
	work, done uint64
	lastChunk  uint64
}

// chunk issues the next slab of crypto work, at most 500 cycles so the
// kernel can always preempt in time.
func (t *t9Crypto) chunk(m *kernel.Machine) kernel.Status {
	c := t.work - t.done
	if c > 500 {
		c = 500
	}
	t.lastChunk = c
	return m.Compute(c)
}

// send publishes the round's ciphertext.
func (t *t9Crypto) send(m *kernel.Machine) kernel.Status {
	t.phase = 5
	return m.Send(0, uint64(t.secrets[t.r]))
}

func (t *t9Crypto) Step(m *kernel.Machine) kernel.Status {
	switch t.phase {
	case 0: // round timestamp
		t.phase = 1
		return m.Now()
	case 1:
		t.roundStart = m.Time()
		t.work = uint64(t9Base + t.secrets[t.r]*t9Step)
		t.done = 0
		t.phase = 2
		return t.chunk(m)
	case 2: // a work chunk finished
		t.done += t.lastChunk
		*t.useful += t.lastChunk
		if t.done < t.work {
			return t.chunk(m)
		}
		if t.mode == padBusyLoop {
			// §4.3: pad execution to an upper bound by busy
			// looping — wasteful but safe.
			t.phase = 3
			return m.Now()
		}
		return t.send(m)
	case 3: // busy-loop deadline check
		if m.Time() < t.roundStart+t9WCET {
			t.phase = 4
			return m.Compute(200)
		}
		return t.send(m)
	case 4:
		t.phase = 3
		return m.Now()
	default: // 5: the send completed
		t.r++
		if t.r == t.rounds+2 {
			return kernel.Done
		}
		t.phase = 1
		return m.Now()
	}
}

// t9Interim is the §4.3 "another Hi process should be scheduled for
// padding": it soaks up the slice time the downgrader leaves while
// blocked, doing useful work in small chunks so the kernel can always
// preempt in time.
type t9Interim struct {
	done *bool
}

func (t *t9Interim) Step(m *kernel.Machine) kernel.Status {
	if *t.done {
		return kernel.Done
	}
	return m.Compute(200)
}

// t9Net is the network stack: it receives each ciphertext; the
// observation is the inter-arrival time.
type t9Net struct {
	rounds   int
	arrivals *[]t9Arrival
	done     *bool

	phase int
	r     int
}

func (t *t9Net) Step(m *kernel.Machine) kernel.Status {
	if t.phase == 1 {
		*t.arrivals = append(*t.arrivals, t9Arrival{sym: int(m.Value()), at: m.Time()})
		t.r++
		if t.r == t.rounds+2 {
			*t.done = true
			return kernel.Done
		}
		return m.Recv(0)
	}
	t.phase = 1
	return m.Recv(0)
}

// runDowngrader runs one T9 configuration.
func runDowngrader(cc *CellContext, label string, prot core.Config, mode padMode, rounds int, seed uint64) Row {
	pcfg := platform.DefaultConfig()
	pcfg.Cores = 1

	sys, err := kernel.NewSystem(kernel.SystemConfig{
		Platform:   pcfg,
		Pool:       cc.pool,
		Protection: prot,
		Domains: []core.DomainSpec{
			{Name: "Crypto", SliceCycles: t9Slice, PadCycles: t9Pad, Colors: mem.ColorRange(1, 32), CodePages: 4, HeapPages: 8},
			{Name: "Net", SliceCycles: t9Slice, PadCycles: t9Pad, Colors: mem.ColorRange(32, 64), CodePages: 4, HeapPages: 8},
		},
		Schedule:    [][]int{{0, 1}},
		Endpoints:   []kernel.EndpointSpec{{ID: 0, MinDelivery: t9Cadence}},
		EnableTrace: true,
		TraceLog:    cc.tlog,
		MaxCycles:   uint64(rounds+8)*400_000 + 8_000_000,
	})
	if err != nil {
		panic(fmt.Sprintf("attacks: T9 %s: %v", label, err))
	}

	secrets := cc.symbolSeq(rounds+2, t9Arity, seed)
	cryptoUseful := new(uint64)
	// done stops the interim thread once the workload completes; the
	// lockstep execution of the kernel makes the shared flag safe.
	done := new(bool)
	arrivals := &[]t9Arrival{}

	spawn(sys, 0, "crypto", 0, &t9Crypto{
		rounds: rounds, mode: mode, secrets: secrets, useful: cryptoUseful,
	})
	if mode == padInterim {
		spawn(sys, 0, "interim", 0, &t9Interim{done: done})
	}
	spawn(sys, 1, "net", 0, &t9Net{rounds: rounds, arrivals: arrivals, done: done})

	rep := mustRun(sys)
	s := cc.samples()
	arr := *arrivals
	for i := 1; i < len(arr); i++ {
		s.Add(arr[i].sym, float64(arr[i].at-arr[i-1].at))
	}
	est, err := cc.estimateScalar(s, 16, seed^0x9999)
	if err != nil {
		panic(err)
	}

	// Utilisation: the fraction of the Hi domain's consumed CPU
	// time spent on useful work (real crypto cycles plus interim
	// progress).
	hiTotal := rep.ThreadCycles["crypto"] + rep.ThreadCycles["interim"]
	useful := *cryptoUseful + rep.ThreadCycles["interim"]
	util := 0.0
	if hiTotal > 0 {
		util = float64(useful) / float64(hiTotal)
	}
	return Row{
		Label:   label,
		Est:     est,
		ErrRate: nan(),
		SimOps:  rep.Ops,
		Extra: []KV{
			{K: "hi_utilisation", V: util},
			{K: "deliveries", V: float64(len(arr))},
		},
	}
}
