// Package attacks implements the covert- and side-channel attack
// scenarios that evaluate time protection, one per experiment of
// DESIGN.md §4: prime-and-probe on the L1 and the LLC (T2, T3), the
// flush-latency channel (T4), the kernel-image channel (T5), the
// interrupt channel (T6), the SMT channel (T7), the interconnect
// bandwidth channel (T8), the Fig.-1 downgrader (T9), padding
// sufficiency (T11), protection overheads (T12), the branch-predictor
// and TLB channels (T13, T14), the stride-prefetcher channel (T15), the
// whole-LLC occupancy channel across colour-partition widths (T16), and
// the multi-bit concurrent cross-core LLC channel (T17).
//
// Every scenario follows the same shape: a Trojan program in the Hi
// domain transmits a deterministic pseudo-random symbol sequence through
// some shared hardware resource; a spy program in the Lo domain measures
// its own timing; the harness labels the spy's timestamped observations
// with the symbol the Trojan had committed most recently, and
// internal/channel turns the labelled samples into a capacity estimate —
// with a shuffled-label noise floor and a bootstrap confidence interval
// on the capacity. A defence works when the measured capacity drops to
// the floor; the experiment engine's adaptive sampler keeps adding
// rounds until the interval is tight enough to trust the verdict.
//
// Each scenario is one function of (protection, rounds, seed):
// runX(cc, label, prot, …, rounds, seed) Row builds the system on the
// context's pooled machine, spawns the Trojan and spy programs, runs it
// with mustRun and computes the row inline. A spy that decodes a symbol
// per observation ends in cc.decodedRow, one that records a raw timing
// in cc.scalarRow; T8, T9, T11 and T12 compute their extra columns
// themselves. The registry binds each runner to its variants, with any
// knob that is not a core.Config field fixed in a closure.
//
// Every scenario runs as a kernel.Program state machine on a
// CellContext — the simulator's one execution semantics — so the sweep
// store's engine fingerprint covers exactly one code path. The lockstep
// execution of internal/kernel makes it safe for the Trojan and the
// harness to share plain Go state for symbol commits and observations:
// all user code is serialised by the simulator's event loop.
package attacks

import (
	"fmt"
	"math"
	"sort"

	"timeprot/internal/channel"
	"timeprot/internal/hw"
	"timeprot/internal/kernel"
	"timeprot/internal/rng"
)

// HarnessVersion is the attack layer's registered model-version string,
// part of the experiment engine's fingerprint. Bump it when the shared
// harness machinery changes what any scenario measures (labelling,
// warmup policy, leak margin); per-scenario construction changes bump
// the scenario's own Version tag in the registry instead.
const HarnessVersion = "attacks/1"

// SymCommit records that the Trojan finished transmitting sym at cycle T.
type SymCommit struct {
	T   uint64
	Sym int
}

// Obs is one timestamped spy observation.
type Obs struct {
	T uint64
	V float64
}

// SymLog accumulates Trojan commits.
type SymLog struct{ commits []SymCommit }

// Commit records a symbol transmission completed at time t.
func (l *SymLog) Commit(t uint64, sym int) {
	l.commits = append(l.commits, SymCommit{T: t, Sym: sym})
}

// Len returns the number of commits.
func (l *SymLog) Len() int { return len(l.commits) }

// ObsLog accumulates spy observations.
type ObsLog struct{ obs []Obs }

// Record stores one observation.
func (l *ObsLog) Record(t uint64, v float64) {
	l.obs = append(l.obs, Obs{T: t, V: v})
}

// Len returns the number of observations.
func (l *ObsLog) Len() int { return len(l.obs) }

// Label attributes each observation to the most recent commit at or
// before its timestamp, returning parallel symbol/value slices.
// Observations before the first commit are dropped, as are the first
// warmup labelled observations (cold-start transients).
func Label(syms *SymLog, obs *ObsLog, warmup int) (labels []int, vals []float64) {
	labels, vals = labelInto(nil, nil, syms, obs)
	return trimWarmup(labels, vals, warmup)
}

// labelInto appends the labelled observations to the given slices (which
// may be emptied scratch) — the allocation-disciplined core of Label,
// before warmup trimming.
func labelInto(labels []int, vals []float64, syms *SymLog, obs *ObsLog) ([]int, []float64) {
	if len(syms.commits) == 0 {
		return nil, nil
	}
	for _, o := range obs.obs {
		// Find the last commit with T <= o.T.
		i := sort.Search(len(syms.commits), func(k int) bool {
			return syms.commits[k].T > o.T
		})
		if i == 0 {
			continue
		}
		labels = append(labels, syms.commits[i-1].Sym)
		vals = append(vals, o.V)
	}
	return labels, vals
}

// trimWarmup drops the first warmup labelled observations.
func trimWarmup(labels []int, vals []float64, warmup int) ([]int, []float64) {
	if warmup > 0 && len(labels) > warmup {
		labels = labels[warmup:]
		vals = vals[warmup:]
	}
	return labels, vals
}

// EstimateLabelled converts labelled scalar observations into a capacity
// estimate.
func EstimateLabelled(labels []int, vals []float64, bins int, seed uint64) (channel.Estimate, error) {
	if len(labels) == 0 {
		return channel.Estimate{}, fmt.Errorf("attacks: no labelled observations")
	}
	s := channel.NewSamples()
	for i := range labels {
		s.Add(labels[i], vals[i])
	}
	return channel.EstimateScalar(s, bins, seed)
}

// Row is one configuration's measured outcome within an experiment.
type Row struct {
	// Label names the configuration (e.g. "flush+pad").
	Label string
	// Est is the channel capacity estimate, including its bootstrap
	// confidence interval.
	Est channel.Estimate
	// ErrRate is the spy's symbol decode error rate; NaN when the
	// scenario has no decoder.
	ErrRate float64
	// Rounds is the effective transmission rounds behind Est — for a
	// fixed sweep the requested rounds after the scenario's policy, for
	// an adaptive sweep the rounds of the ladder rung that converged.
	Rounds int
	// RoundsRun is the total rounds simulated to produce this row:
	// equal to Rounds for a fixed run, the sum over all executed ladder
	// rungs for an adaptive run. Variant.Run fills both fields.
	RoundsRun int
	// SimOps is the number of simulated thread operations the
	// scenario executed (summed over adaptive ladder rungs) — the sweep
	// engine's per-cell throughput denominator.
	SimOps uint64
	// Extra carries scenario-specific values (e.g. utilisation), in
	// insertion order.
	Extra []KV
}

// KV is an ordered key/value pair for Row.Extra.
type KV struct {
	K string
	V float64
}

// Leaks reports whether this row demonstrates a channel (capacity above
// floor by the standard margin).
func (r Row) Leaks() bool { return r.Est.Leaks(LeakMargin) }

// LeakMargin is the capacity-above-floor margin (bits) that counts as a
// demonstrated channel.
const LeakMargin = 0.05

// Experiment is a completed experiment: an ordered set of configuration
// rows reproducing one table of EXPERIMENTS.md.
type Experiment struct {
	// ID is the experiment identifier (T2..T9).
	ID string
	// Title describes the scenario.
	Title string
	// Rows are the per-configuration results.
	Rows []Row
}

// String renders the experiment as an aligned text table.
func (e Experiment) String() string {
	out := fmt.Sprintf("%s — %s\n", e.ID, e.Title)
	out += fmt.Sprintf("  %-28s %12s %18s %12s %10s %7s %8s  %s\n",
		"config", "capacity b/u", "95% CI", "floor b/u", "err-rate", "rounds", "leaks", "extra")
	for _, r := range e.Rows {
		errs := "-"
		if !math.IsNaN(r.ErrRate) {
			errs = fmt.Sprintf("%.3f", r.ErrRate)
		}
		rounds := "-"
		if r.Rounds > 0 {
			rounds = fmt.Sprintf("%d", r.Rounds)
		}
		leak := "no"
		if r.Leaks() {
			leak = "YES"
		}
		extra := ""
		for _, kv := range r.Extra {
			extra += fmt.Sprintf("%s=%.3f ", kv.K, kv.V)
		}
		ci := fmt.Sprintf("[%.4f, %.4f]", r.Est.CILow, r.Est.CIHigh)
		out += fmt.Sprintf("  %-28s %12.4f %18s %12.4f %10s %7s %8s  %s\n",
			r.Label, r.Est.CapacityBits, ci, r.Est.FloorBits, errs, rounds, leak, extra)
	}
	return out
}

// SymbolSeq generates a deterministic pseudo-random symbol sequence over
// an alphabet of size arity.
func SymbolSeq(n, arity int, seed uint64) []int {
	r := rng.New(seed)
	out := make([]int, n)
	for i := range out {
		out[i] = r.Intn(arity)
	}
	return out
}

// spawn adds a scenario program to sys; a scenario whose layout cannot
// host its own programs is a construction bug.
func spawn(sys *kernel.System, domain int, name string, cpu int, p kernel.Program) {
	if _, err := sys.SpawnProgram(domain, name, cpu, p); err != nil {
		panic(err)
	}
}

// epochSpin is a reusable Program fragment implementing the
// waitEpoch/spinEpoch idiom as a step function: poll Epoch until it
// leaves the armed value, optionally burning compute cycles between
// polls (so the spin leaves the data cache untouched either way).
type epochSpin struct {
	// burn is the Compute length between polls; 0 polls continuously.
	burn uint64

	cur uint64
	st  int // 0 idle, 1 awaiting an Epoch result, 2 awaiting a Compute
}

// start arms the fragment to spin away from epoch cur and issues the
// first poll.
func (sp *epochSpin) start(cur uint64, m *kernel.Machine) kernel.Status {
	sp.cur = cur
	sp.st = 1
	return m.Epoch()
}

// step consumes the previous operation's result and continues the
// spin; done reports completion, with the new epoch in next.
func (sp *epochSpin) step(m *kernel.Machine) (next uint64, done bool, st kernel.Status) {
	switch sp.st {
	case 1: // an Epoch poll arrived
		if e := m.Value(); e != sp.cur {
			sp.st = 0
			return e, true, 0
		}
		if sp.burn > 0 {
			sp.st = 2
			return 0, false, m.Compute(sp.burn)
		}
		return 0, false, m.Epoch()
	case 2: // the burn finished; poll again
		sp.st = 1
		return 0, false, m.Epoch()
	default:
		panic("attacks: epochSpin.step while idle")
	}
}

// windowedThrasher is the shared Trojan state machine of the concurrent
// window-based channels (T16, T17): at each window start it commits the
// window's symbol, then thrashes the symbol's page group until the
// window deadline, checking the deadline once per page. Window
// deadlines are absolute (start + (w+1)*windowLen), so an overrunning
// sweep self-corrects instead of shifting later windows.
type windowedThrasher struct {
	windows   int
	windowLen uint64
	seq       []int
	groups    [][]int // page groups by symbol
	lineOrder []int
	syms      *SymLog

	phase      int
	w          int
	start, end uint64
	gi, li     int
}

func (t *windowedThrasher) read(m *kernel.Machine) kernel.Status {
	pg := t.groups[t.seq[t.w]][t.gi]
	return m.ReadHeap(uint64(pg)*hw.PageSize + uint64(t.lineOrder[t.li])*hw.LineSize)
}

// nextWindow advances past an expired window; done when the stream
// (plus its trailing slack windows) is complete.
func (t *windowedThrasher) nextWindow(m *kernel.Machine) kernel.Status {
	t.w++
	if t.w == t.windows+4 {
		return kernel.Done
	}
	t.phase = 2
	return m.Now()
}

func (t *windowedThrasher) Step(m *kernel.Machine) kernel.Status {
	switch t.phase {
	case 0: // sample the stream's start time
		t.phase = 1
		return m.Now()
	case 1:
		t.start = m.Time()
		t.phase = 2
		return m.Now() // commit timestamp for window 0
	case 2: // commit the window's symbol
		t.syms.Commit(m.Time(), t.seq[t.w])
		t.end = t.start + uint64(t.w+1)*t.windowLen
		t.phase = 3
		return m.Now() // window deadline check
	case 3: // between sweeps: start another, or advance the window
		if m.Time() < t.end {
			t.gi, t.li = 0, 0
			t.phase = 4
			return t.read(m)
		}
		return t.nextWindow(m)
	case 4: // sweeping the symbol's page group
		t.li++
		if t.li < len(t.lineOrder) {
			return t.read(m)
		}
		t.li = 0
		t.gi++
		if t.gi == len(t.groups[t.seq[t.w]]) {
			t.phase = 3
			return m.Now()
		}
		t.phase = 5
		return m.Now() // mid-sweep deadline check, once per page
	default: // 5: mid-sweep deadline arrived?
		if m.Time() < t.end {
			t.phase = 4
			return t.read(m)
		}
		return t.nextWindow(m)
	}
}

// mustRun runs the system and panics on harness-level errors: attack
// scenarios are deterministic constructions, so a thread fault is a bug
// in the scenario, not a measurable outcome.
func mustRun(sys *kernel.System) kernel.Report {
	rep, err := sys.Run()
	if err != nil {
		panic(err)
	}
	if len(rep.Errors) > 0 {
		panic(fmt.Sprintf("attacks: thread errors: %v", rep.Errors))
	}
	return rep
}

// nan is the missing-value marker for Row.ErrRate.
func nan() float64 { return math.NaN() }
