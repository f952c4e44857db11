package attacks

import (
	"fmt"
	"strings"
	"sync"

	"timeprot/internal/core"
	"timeprot/internal/hw/interconn"
	"timeprot/internal/hw/mem"
)

// This file is the scenario registry: the single declarative table of
// every attack scenario, its canonical mitigation variants, and its
// rounds policy. Scenario.Experiment assembles a scenario's whole table,
// and internal/experiment's sweep engine addresses individual
// (scenario, variant, seed) cells through it. Every variant runner
// builds a private kernel.System, so distinct cells may execute
// concurrently with bit-identical results.

// Variant is one named protection configuration within a scenario's
// canonical sweep — one row of the experiment's table.
type Variant struct {
	// Label names the configuration exactly as it appears in the
	// experiment row (e.g. "flush+pad (full)").
	Label string
	// Prot is the protection configuration the variant arms. For
	// variants whose distinguishing knob is not a core.Config field
	// (e.g. T11's pad budget) it records the base configuration.
	Prot core.Config
	// config is Prot.String(), rendered once when the variant is built.
	config string
	// run executes the variant at the given rounds and seed, routing
	// allocations through cc.
	run func(cc *CellContext, rounds int, seed uint64) Row
}

// NewVariant builds a variant from its runner, for dynamically
// registered scenarios assembled outside this package (the discovery
// fuzzer's witness replays). Static-table variants use the package's
// variant constructor.
func NewVariant(label string, prot core.Config, run func(cc *CellContext, rounds int, seed uint64) Row) Variant {
	return Variant{Label: label, Prot: prot, config: prot.String(), run: run}
}

// Config returns the variant's protection configuration rendered as
// core.Config.String, without rendering it again.
func (v Variant) Config() string { return v.config }

// Run executes the variant on a fresh cell context and returns its
// measured row. Each call constructs a fresh simulated system, so
// concurrent calls are safe and results depend only on (rounds, seed).
func (v Variant) Run(rounds int, seed uint64) Row {
	return v.RunIn(NewCellContext(), rounds, seed)
}

// RunIn is Run on a reusable cell context: the variant's machine comes
// from the context's pool and its harness scratch from the context's
// buffers, with results bit-identical to a fresh context. RunIn stamps
// the row with the rounds it measured; adaptive callers that re-run a
// variant across a rounds ladder overwrite RoundsRun with the ladder's
// total. The context's machines are released (and its buffers rewound
// on the next run) even if the scenario panics.
func (v Variant) RunIn(cc *CellContext, rounds int, seed uint64) Row {
	cc.BeginRun()
	defer cc.EndRun()
	row := v.run(cc, rounds, seed)
	row.Rounds = rounds
	row.RoundsRun = rounds
	return row
}

// Scenario is one attack scenario: identity, canonical variants, rounds
// policy, and (when the underlying runner is configuration-shaped) a
// custom-configuration entry point.
type Scenario struct {
	// ID is the experiment identifier ("T2".."T17").
	ID string
	// Name is the short CLI name ("l1pp", "bus", ...).
	Name string
	// Title describes the scenario.
	Title string
	// Version is the scenario's model-version tag, part of the sweep
	// store's cache key. Bump it whenever the scenario's construction
	// or measurement changes in a way that can alter its rows (program
	// logic, platform sizing, estimator inputs); stale cached cells
	// then automatically read as misses. Refactors that leave every row
	// byte-identical do not bump it; the cold regeneration of
	// EXPERIMENTS.md (TestExperimentsColdRegen) is the check that they do.
	Version int
	// Rounds maps requested rounds to the effective per-variant rounds
	// (raising to the scenario's statistical minimum, or rescaling for
	// scenarios whose unit of work differs).
	Rounds func(requested int) int
	// Variants are the canonical configuration rows, in table order.
	Variants []Variant
	// Custom runs the scenario under an arbitrary protection
	// configuration; nil when the scenario needs bespoke per-variant
	// setup that a bare core.Config cannot express. One-off callers
	// use RunCustom, which supplies a fresh cell context.
	Custom func(cc *CellContext, label string, prot core.Config, rounds int, seed uint64) Row
	// finalize post-processes a complete ordered row set (e.g. T12's
	// slowdown-vs-baseline column); nil when rows are independent.
	finalize func(rows []Row) []Row
	// Dynamic marks a scenario registered at runtime (the discovery
	// fuzzer's F1, F2, … witness replays) rather than declared in the
	// static table. Dynamic scenarios resolve by explicit ID/name but
	// are excluded from the "all" sweep selection, so EXPERIMENTS.md and
	// the committed docs store stay a pure function of the static
	// registry; their documentation lives in generated DISCOVERIES.md.
	Dynamic bool
}

// RunCustom runs the scenario under an arbitrary protection
// configuration via its Custom entry point, as a Variant.Run on a
// fresh cell context. It panics if the scenario has no Custom runner;
// callers gate on s.Custom != nil.
func (s Scenario) RunCustom(label string, prot core.Config, rounds int, seed uint64) Row {
	return variant(label, prot, s.Custom).Run(rounds, seed)
}

// VariantByLabel returns the variant with the exact label.
func (s Scenario) VariantByLabel(label string) (Variant, bool) {
	for _, v := range s.Variants {
		if v.Label == label {
			return v, true
		}
	}
	return Variant{}, false
}

// Finalize applies the scenario's cross-row post-processing to rows in
// canonical variant order. Scenarios without relative metrics return the
// rows unchanged. Callers running a subset of variants should note that
// relative metrics are computed against the first row present.
func (s Scenario) Finalize(rows []Row) []Row {
	if s.finalize == nil {
		return rows
	}
	return s.finalize(rows)
}

// Experiment runs every canonical variant at the given rounds and seed
// and assembles the experiment table.
func (s Scenario) Experiment(rounds int, seed uint64) Experiment {
	rows := make([]Row, 0, len(s.Variants))
	for _, v := range s.Variants {
		rows = append(rows, v.Run(rounds, seed))
	}
	return Experiment{ID: s.ID, Title: s.Title, Rows: s.Finalize(rows)}
}

// minRounds returns the standard rounds policy: raise to min.
func minRounds(min int) func(int) int {
	return func(r int) int {
		if r < min {
			return min
		}
		return r
	}
}

// The dynamic registry holds runtime-registered scenarios (discovery
// witnesses). Registration happens once at process start — from the
// root package's committed-discovery loader — but the guard makes
// concurrent registration and lookup safe anyway.
var (
	dynMu        sync.RWMutex
	dynScenarios []Scenario
)

// RegisterScenario adds a dynamically discovered scenario to the
// registry. The scenario must be marked Dynamic, carry an ID, name,
// rounds policy and at least one variant, and must not collide with any
// static or already-registered ID or name (case-insensitively).
func RegisterScenario(s Scenario) error {
	if !s.Dynamic {
		return fmt.Errorf("attacks: RegisterScenario requires Dynamic=true (static scenarios live in the table)")
	}
	if s.ID == "" || s.Name == "" {
		return fmt.Errorf("attacks: dynamic scenario needs both ID and Name")
	}
	if s.Rounds == nil {
		return fmt.Errorf("attacks: dynamic scenario %s has no rounds policy", s.ID)
	}
	if len(s.Variants) == 0 {
		return fmt.Errorf("attacks: dynamic scenario %s has no variants", s.ID)
	}
	dynMu.Lock()
	defer dynMu.Unlock()
	for _, have := range scenarios {
		if strings.EqualFold(have.ID, s.ID) || strings.EqualFold(have.Name, s.Name) {
			return fmt.Errorf("attacks: dynamic scenario %s/%s collides with static %s/%s", s.ID, s.Name, have.ID, have.Name)
		}
	}
	for _, have := range dynScenarios {
		if strings.EqualFold(have.ID, s.ID) || strings.EqualFold(have.Name, s.Name) {
			return fmt.Errorf("attacks: dynamic scenario %s/%s already registered", s.ID, s.Name)
		}
	}
	dynScenarios = append(dynScenarios, s)
	return nil
}

// ResetDynamicScenarios removes every dynamically registered scenario.
// It exists for tests that exercise registration; production code
// registers once at process start and never unregisters.
func ResetDynamicScenarios() {
	dynMu.Lock()
	defer dynMu.Unlock()
	dynScenarios = nil
}

// Scenarios returns the registry in presentation order: the static
// table followed by dynamically registered scenarios in registration
// order. The returned scenarios share their variant tables; treat them
// as read-only.
func Scenarios() []Scenario {
	dynMu.RLock()
	defer dynMu.RUnlock()
	if len(dynScenarios) == 0 {
		return scenarios
	}
	out := make([]Scenario, 0, len(scenarios)+len(dynScenarios))
	out = append(out, scenarios...)
	return append(out, dynScenarios...)
}

// ScenarioByID finds a scenario by experiment ID or short name,
// case-insensitively, searching the static table then the dynamic
// registry.
func ScenarioByID(key string) (Scenario, bool) {
	for _, s := range scenarios {
		if strings.EqualFold(s.ID, key) || strings.EqualFold(s.Name, key) {
			return s, true
		}
	}
	dynMu.RLock()
	defer dynMu.RUnlock()
	for _, s := range dynScenarios {
		if strings.EqualFold(s.ID, key) || strings.EqualFold(s.Name, key) {
			return s, true
		}
	}
	return Scenario{}, false
}

// ScenarioIDs returns the experiment IDs in presentation order,
// including dynamically registered scenarios.
func ScenarioIDs() []string {
	all := Scenarios()
	out := make([]string, len(all))
	for i, s := range all {
		out[i] = s.ID
	}
	return out
}

// mustScenario looks up a static scenario by ID; a missing one is a bug.
func mustScenario(id string) Scenario {
	s, ok := ScenarioByID(id)
	if !ok {
		panic("attacks: scenario " + id + " missing from registry")
	}
	return s
}

// variant builds a Variant for a runner with the standard
// (cc, label, prot, rounds, seed) shape.
func variant(label string, prot core.Config, run func(*CellContext, string, core.Config, int, uint64) Row) Variant {
	return NewVariant(label, prot, func(cc *CellContext, rounds int, seed uint64) Row {
		return run(cc, label, prot, rounds, seed)
	})
}

// Derived configurations used by the canonical sweeps.
func flushOnlyConfig() core.Config {
	c := core.NoProtection()
	c.FlushOnSwitch = true
	return c
}

func flushPadConfig() core.Config {
	c := flushOnlyConfig()
	c.PadSwitch = true
	return c
}

func fullWithout(mut func(*core.Config)) core.Config {
	c := core.FullProtection()
	mut(&c)
	return c
}

// finalizeOverheads appends the slowdown-vs-first-row column T12
// reports: each row's cycles_per_op relative to the first row's.
func finalizeOverheads(rows []Row) []Row {
	base := 0.0
	for i := range rows {
		cpo := extraValue(rows[i], "cycles_per_op")
		if i == 0 {
			base = cpo
		}
		slow := 0.0
		if base > 0 {
			slow = cpo / base
		}
		rows[i].Extra = append(rows[i].Extra, KV{K: "slowdown", V: slow})
	}
	return rows
}

// extraValue returns the named Extra metric, or 0 when absent.
func extraValue(r Row, key string) float64 {
	for _, kv := range r.Extra {
		if kv.K == key {
			return kv.V
		}
	}
	return 0
}

// scenarios is the registry table. Variant labels, orders, and seed
// derivations reproduce the historical T2..T17 tables exactly. Every
// variant is one variant(label, prot, runner) entry; a knob that is not
// a core.Config field (T7's placement, T8's limiter, arbiter and
// encoding, T9's pad mode, T11's pad, T16's layout) is bound by a
// closure around the scenario's runner.
var scenarios = []Scenario{
	{
		ID: "T2", Name: "l1pp", Version: 1,
		Title:  "L1-D prime-and-probe, time-shared core (§3.1)",
		Rounds: minRounds(30),
		Variants: []Variant{
			variant("unprotected", core.NoProtection(), runL1PrimeProbe),
			variant("flush-only", flushOnlyConfig(), runL1PrimeProbe),
			variant("flush+pad (full)", core.FullProtection(), runL1PrimeProbe),
		},
		Custom: runL1PrimeProbe,
	},
	{
		ID: "T3", Name: "llcpp", Version: 1,
		Title:  "LLC prime-and-probe, concurrent cross-core (§4.1)",
		Rounds: minRounds(30),
		Variants: []Variant{
			variant("unprotected", core.NoProtection(), runLLCPrimeProbe),
			variant("flush+pad (no colour)", flushPadConfig(), runLLCPrimeProbe),
			variant("coloured (full)", core.FullProtection(), runLLCPrimeProbe),
		},
		Custom: runLLCPrimeProbe,
	},
	{
		ID: "T4", Name: "flush", Version: 1,
		Title:  "flush-latency channel: switch gap vs dirty lines (§4.2)",
		Rounds: minRounds(30),
		Variants: []Variant{
			variant("flush, no pad", fullWithout(func(c *core.Config) { c.PadSwitch = false }), runFlushLatency),
			variant("flush+pad (full)", core.FullProtection(), runFlushLatency),
		},
		Custom: runFlushLatency,
	},
	{
		ID: "T5", Name: "kimage", Version: 1,
		Title:  "kernel-image channel via shared kernel text (§4.2)",
		Rounds: minRounds(30),
		Variants: []Variant{
			variant("shared kernel (no clone)", fullWithout(func(c *core.Config) { c.CloneKernel = false }), runKernelImage),
			variant("cloned kernel (full)", core.FullProtection(), runKernelImage),
		},
		Custom: runKernelImage,
	},
	{
		ID: "T6", Name: "irq", Version: 1,
		Title:  "interrupt channel: Trojan-timed completion IRQ (§4.2)",
		Rounds: minRounds(30),
		Variants: []Variant{
			variant("unpartitioned IRQs", fullWithout(func(c *core.Config) { c.PartitionIRQs = false }), runIRQChannel),
			variant("partitioned (full)", core.FullProtection(), runIRQChannel),
		},
		Custom: runIRQChannel,
	},
	{
		ID: "T7", Name: "smt", Version: 1,
		Title:  "SMT sibling channel through the live-shared L1 (§4.1)",
		Rounds: minRounds(30),
		Variants: []Variant{
			variant("SMT co-resident (flush+colour)", fullWithout(func(c *core.Config) { c.DisallowSMTSharing = false }),
				func(cc *CellContext, label string, prot core.Config, rounds int, seed uint64) Row {
					return runSMT(cc, label, prot, true, rounds, seed)
				}),
			variant("policy: co-scheduled domains", core.FullProtection(),
				func(cc *CellContext, label string, prot core.Config, rounds int, seed uint64) Row {
					return runSMT(cc, label, prot, false, rounds, seed)
				}),
		},
	},
	{
		ID: "T8", Name: "bus", Version: 1,
		Title:  "stateless interconnect: bandwidth covert channel (§2)",
		Rounds: minRounds(30),
		Variants: []Variant{
			variant("full protection, volume", core.FullProtection(),
				func(cc *CellContext, label string, prot core.Config, rounds int, seed uint64) Row {
					return runBus(cc, label, prot, nil, false, busVolume, rounds, seed)
				}),
			// An unthrottled streaming core issues roughly one transfer
			// per ~300 cycles (~40 per 12k-cycle window); a quota of 15
			// cuts the sustained rate to ~37% while still letting
			// window-start bursts through — the approximate enforcement
			// of footnote 1, which attenuates the channel without
			// closing it.
			variant("with MBA limiter, volume", core.FullProtection(),
				func(cc *CellContext, label string, prot core.Config, rounds int, seed uint64) Row {
					mba := interconn.NewMBALimiter(12_000)
					mba.SetQuota(1, 15) // throttle the Trojan's core
					return runBus(cc, label, prot, mba, false, busVolume, rounds, seed)
				}),
			variant("TDM bus (hypothetical hw)", core.FullProtection(),
				func(cc *CellContext, label string, prot core.Config, rounds int, seed uint64) Row {
					return runBus(cc, label, prot, nil, true, busVolume, rounds, seed)
				}),
			variant("address encoding (side ch.)", core.FullProtection(),
				func(cc *CellContext, label string, prot core.Config, rounds int, seed uint64) Row {
					return runBus(cc, label, prot, nil, false, busAddress, rounds, seed)
				}),
		},
	},
	{
		ID: "T9", Name: "downgrader", Version: 1,
		Title:  "Fig. 1 downgrader: secret-dependent message timing (§3.2, §4.3)",
		Rounds: minRounds(120),
		Variants: []Variant{
			variant("unprotected", core.NoProtection(),
				func(cc *CellContext, label string, prot core.Config, rounds int, seed uint64) Row {
					return runDowngrader(cc, label, prot, padNone, rounds, seed)
				}),
			variant("pad-only (no min-delivery)", fullWithout(func(c *core.Config) { c.MinDeliveryIPC = false }),
				func(cc *CellContext, label string, prot core.Config, rounds int, seed uint64) Row {
					return runDowngrader(cc, label, prot, padNone, rounds, seed)
				}),
			variant("full, busy-loop pad", core.FullProtection(),
				func(cc *CellContext, label string, prot core.Config, rounds int, seed uint64) Row {
					return runDowngrader(cc, label, prot, padBusyLoop, rounds, seed)
				}),
			variant("full, interim process", core.FullProtection(),
				func(cc *CellContext, label string, prot core.Config, rounds int, seed uint64) Row {
					return runDowngrader(cc, label, prot, padInterim, rounds, seed)
				}),
		},
	},
	{
		ID: "T11", Name: "padding", Version: 1,
		Title:  "padding sufficiency by timestamp comparison (§5)",
		Rounds: minRounds(20),
		Variants: []Variant{
			variant("pad=25k (sufficient)", core.FullProtection(),
				func(cc *CellContext, label string, prot core.Config, rounds int, _ uint64) Row {
					return runPaddingSufficiency(cc, label, prot, 25_000, rounds)
				}),
			variant("pad=600 (insufficient)", core.FullProtection(),
				func(cc *CellContext, label string, prot core.Config, rounds int, _ uint64) Row {
					return runPaddingSufficiency(cc, label, prot, 600, rounds)
				}),
		},
	},
	{
		ID: "T12", Name: "overheads", Version: 1,
		Title: "protection overheads on a cache-sensitive workload",
		// T12's unit of work is heavier than a transmission round;
		// requested rounds rescale so the default sweep stays fast.
		Rounds: func(r int) int { return r/8 + 4 },
		Variants: []Variant{
			variant("unprotected", core.NoProtection(), runOverhead),
			variant("flush", flushOnlyConfig(), runOverhead),
			variant("flush+pad", flushPadConfig(), runOverhead),
			variant("full (colour+clone+irq)", core.FullProtection(), runOverhead),
		},
		Custom:   runOverhead,
		finalize: finalizeOverheads,
	},
	{
		ID: "T13", Name: "branch", Version: 1,
		Title:  "branch-predictor channel via PC aliasing (§3.1)",
		Rounds: minRounds(30),
		Variants: []Variant{
			variant("no flush (pad+colour only)", fullWithout(func(c *core.Config) { c.FlushOnSwitch = false }), runBPChannel),
			variant("flush (full)", core.FullProtection(), runBPChannel),
		},
		Custom: runBPChannel,
	},
	{
		ID: "T14", Name: "tlb", Version: 1,
		Title:  "TLB capacity channel: footprint vs page walks (§3.1, §5.3)",
		Rounds: minRounds(30),
		Variants: []Variant{
			variant("no flush (pad+colour only)", fullWithout(func(c *core.Config) { c.FlushOnSwitch = false }), runTLBChannel),
			variant("flush (full)", core.FullProtection(), runTLBChannel),
		},
		Custom: runTLBChannel,
	},
	{
		ID: "T15", Name: "prefetch", Version: 1,
		Title:  "stride-prefetcher channel: speculative fills on a fixed footprint (§4.1)",
		Rounds: minRounds(30),
		Variants: []Variant{
			variant("no flush (pad+colour only)", fullWithout(func(c *core.Config) { c.FlushOnSwitch = false }), runPrefetchChannel),
			variant("flush (full)", core.FullProtection(), runPrefetchChannel),
		},
		Custom: runPrefetchChannel,
	},
	{
		// T16 sweeps the colour-partition width. Colour 0 stays
		// reserved for the kernel throughout, which is exactly what
		// makes the 2-colour platform unsplittable.
		ID: "T16", Name: "occupancy", Version: 1,
		Title:  "whole-LLC occupancy channel across colour-partition widths (§4.1)",
		Rounds: minRounds(30),
		Variants: []Variant{
			// The baseline ablation: the platform could be split 3+4
			// but the designer left colouring off.
			variant("no colouring (8 colours)", flushPadConfig(),
				func(cc *CellContext, label string, prot core.Config, rounds int, seed uint64) Row {
					return runOccupancy(cc, label, prot, t16Layout{llcSets: 512}, rounds, seed)
				}),
			// 128-set LLC -> colours {0,1}; 0 is the kernel's, so no
			// disjoint user split exists and colouring cannot be armed.
			variant("coarse: 2 colours, no split", flushPadConfig(),
				func(cc *CellContext, label string, prot core.Config, rounds int, seed uint64) Row {
					return runOccupancy(cc, label, prot, t16Layout{llcSets: 128}, rounds, seed)
				}),
			variant("split: 4 colours (1+2)", core.FullProtection(),
				func(cc *CellContext, label string, prot core.Config, rounds int, seed uint64) Row {
					return runOccupancy(cc, label, prot, t16Layout{
						llcSets: 256,
						hi:      mem.ColorRange(1, 2), // {1}
						lo:      mem.ColorRange(2, 4), // {2,3}
					}, rounds, seed)
				}),
			variant("split: 8 colours (full)", core.FullProtection(),
				func(cc *CellContext, label string, prot core.Config, rounds int, seed uint64) Row {
					return runOccupancy(cc, label, prot, t16Layout{
						llcSets: 512,
						hi:      mem.ColorRange(1, 4), // {1,2,3}
						lo:      mem.ColorRange(4, 8), // {4..7}
					}, rounds, seed)
				}),
		},
	},
	{
		ID: "T17", Name: "xcore", Version: 1,
		Title:  "multi-bit concurrent cross-core LLC channel (§4.1)",
		Rounds: minRounds(30),
		Variants: []Variant{
			variant("unprotected", core.NoProtection(), runXCore),
			variant("flush+pad (no colour)", flushPadConfig(), runXCore),
			variant("coloured (full)", core.FullProtection(), runXCore),
		},
		Custom: runXCore,
	},
}
