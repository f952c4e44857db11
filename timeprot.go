// Package timeprot is a full reproduction, as a Go library, of
// "Can We Prove Time Protection?" (Heiser, Klein, Murray — HotOS 2019):
// an executable study of OS-level time protection and of the paper's
// central claim that it can be formally verified by reasoning about an
// abstract partitionable/flushable model of the microarchitecture.
//
// The library stacks five layers:
//
//   - a deterministic cycle-accounted hardware simulator (caches with
//     page colours, TLB, branch predictor, prefetcher, shared bus,
//     optional SMT),
//   - an seL4-like kernel model implementing the §4.2 mechanisms:
//     flushing of core-local state on domain switches, padded
//     constant-time switches, cache colouring, per-domain kernel clones,
//     interrupt partitioning, and deterministic minimum-time IPC,
//   - attack harnesses and channel-capacity estimation reproducing the
//     timing channels the paper discusses (prime-and-probe, flush
//     latency, kernel image, interrupts, SMT, interconnect, the Fig. 1
//     downgrader, the stride prefetcher, whole-LLC occupancy, and a
//     multi-bit cross-core channel), with bootstrap confidence
//     intervals on every capacity estimate and an adaptive sweep mode
//     that samples each cell only until its verdict is settled,
//   - a prover over the paper's abstract model: unwinding lemmas for the
//     §5.2 case analysis plus exhaustive bounded noninterference
//     checking, quantified over sampled "deterministic yet unspecified"
//     time functions,
//   - a conformance harness cross-checking the two: randomly generated
//     Hi program pairs run through BOTH the abstract prover and the
//     concrete simulator, with any prover-accepts/simulator-leaks
//     disagreement minimised into a soundness-violation witness.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduced results.
package timeprot

import (
	"fmt"
	"io"
	"runtime"

	"timeprot/internal/attacks"
	"timeprot/internal/conform"
	"timeprot/internal/core"
	"timeprot/internal/discover"
	"timeprot/internal/experiment"
	"timeprot/internal/experiment/store"
	"timeprot/internal/hw/mem"
	"timeprot/internal/hw/platform"
	"timeprot/internal/kernel"
	"timeprot/internal/prove/absmodel"
	"timeprot/internal/prove/invariant"
	"timeprot/internal/prove/nonintf"
)

// Re-exported configuration and system types: the public API for
// building and running protected systems.
type (
	// Config selects the armed time-protection mechanisms (§4).
	Config = core.Config
	// DomainSpec is a security domain's policy: slice, pad, colours,
	// IRQ ownership.
	DomainSpec = core.DomainSpec
	// PlatformConfig sizes the simulated machine.
	PlatformConfig = platform.Config
	// SystemConfig assembles a complete system.
	SystemConfig = kernel.SystemConfig
	// System is an assembled machine + kernel + workload.
	System = kernel.System
	// Program is a user program: a resumable step function the
	// kernel's event loop invokes inline, one operation per step — the
	// simulator's only execution semantics. Spawn with
	// System.SpawnProgram.
	Program = kernel.Program
	// ProgramFunc adapts a step function (typically a closure over
	// local counters) to Program.
	ProgramFunc = kernel.ProgramFunc
	// Machine is the per-thread execution context a Program steps
	// against: previous result accessors plus one-operation issue
	// methods.
	Machine = kernel.Machine
	// ProgramStatus is a Program step's answer to the scheduler.
	ProgramStatus = kernel.Status
	// Thread is a spawned thread handle.
	Thread = kernel.Thread
	// EndpointSpec declares a synchronous IPC endpoint, optionally
	// with a minimum-delivery-time attribute (§3.2).
	EndpointSpec = kernel.EndpointSpec
	// RunReport summarises a completed run.
	RunReport = kernel.Report
	// ColorSet is a set of LLC page colours.
	ColorSet = mem.ColorSet

	// Experiment is a reproduced experiment table.
	Experiment = attacks.Experiment
	// ExperimentRow is one configuration's measured row.
	ExperimentRow = attacks.Row

	// ModelConfig instantiates the abstract §5.1 model for proving.
	ModelConfig = absmodel.Config
	// ProofReport carries the §5.2 case-analysis verdicts plus the
	// bounded noninterference result for one configuration.
	ProofReport = nonintf.ProofReport
	// InvariantReport carries the concrete-simulator functional
	// property verdicts.
	InvariantReport = invariant.Report
	// FlushMonitor checks the flush invariant during a run.
	FlushMonitor = invariant.FlushMonitor
	// ContractReport is the aISA hardware-software contract check.
	ContractReport = core.ContractReport
)

// Program step statuses: Running means the step issued its next
// operation; Done means the program finished.
const (
	Running = kernel.Running
	Done    = kernel.Done
)

// FullProtection arms every mechanism of §4.
func FullProtection() Config { return core.FullProtection() }

// NoProtection disables every mechanism (a conventional OS).
func NoProtection() Config { return core.NoProtection() }

// DefaultPlatform returns the default simulated machine: 2 cores, 4 MiB
// 16-way LLC (64 page colours), 64 MiB memory, 8 IRQ lines.
func DefaultPlatform() PlatformConfig { return platform.DefaultConfig() }

// NewSystem builds a system from its configuration.
func NewSystem(cfg SystemConfig) (*System, error) { return kernel.NewSystem(cfg) }

// ColorRange returns the colour set {lo, ..., hi-1}.
func ColorRange(lo, hi int) ColorSet { return mem.ColorRange(lo, hi) }

// NewColorSet builds a colour set from a list.
func NewColorSet(colors ...int) ColorSet { return mem.NewColorSet(colors...) }

// CheckContract evaluates the security-oriented hardware-software
// contract (the aISA of Ge et al. [2018a]) for a protection configuration
// on a platform.
func CheckContract(cfg Config, p PlatformConfig) ContractReport {
	colors := p.LLCSets * 64 / 4096 // sets * line / page
	if colors < 1 {
		colors = 1
	}
	return core.CheckContract(cfg, colors, p.SMTWays)
}

// ExperimentIDs lists the experiment identifiers in presentation order,
// as registered in the attack-scenario registry.
var ExperimentIDs = attacks.ScenarioIDs()

// RunExperiment reproduces one experiment table by ID (or short scenario
// name, e.g. "l1pp") with the given round count and seed. Rounds below
// the per-experiment minimum are raised to it, so small values are safe
// everywhere.
func RunExperiment(id string, rounds int, seed uint64) (Experiment, error) {
	s, ok := attacks.ScenarioByID(id)
	if !ok {
		return Experiment{}, fmt.Errorf("timeprot: unknown experiment %q (have %v)", id, ExperimentIDs)
	}
	return s.Experiment(s.Rounds(rounds), seed), nil
}

// AllExperiments reproduces every experiment table.
func AllExperiments(rounds int, seed uint64) []Experiment {
	out := make([]Experiment, 0, len(ExperimentIDs))
	for _, id := range ExperimentIDs {
		e, err := RunExperiment(id, rounds, seed)
		if err != nil {
			panic(err) // unreachable: IDs come from the table above
		}
		out = append(out, e)
	}
	return out
}

// DefaultModel returns the default abstract-model instance used for
// proving.
func DefaultModel() ModelConfig { return absmodel.DefaultConfig() }

// Prove runs the §5.2 proof obligations (unwinding lemmas plus bounded
// noninterference over sampled time-function families) for an abstract
// configuration.
func Prove(cfg ModelConfig, families, extraRandom int, seed uint64) ProofReport {
	return nonintf.Prove(cfg, families, extraRandom, seed)
}

// NamedProof pairs a configuration label with its proof report.
type NamedProof struct {
	// Name labels the configuration (e.g. "full", "no-flush").
	Name string
	// Report is the proof outcome.
	Report ProofReport
}

// ProofMatrix reproduces experiment T1: the full-protection proof plus
// one ablation per mechanism, each expected to fail in exactly its case.
// The configurations run concurrently; results are deterministic.
func ProofMatrix(families, extraRandom int, seed uint64) []NamedProof {
	results := experiment.RunProofs(families, extraRandom, seed, runtime.GOMAXPROCS(0))
	out := make([]NamedProof, 0, len(results))
	for _, r := range results {
		out = append(out, NamedProof{Name: r.Name, Report: r.Report})
	}
	return out
}

// Proof-matrix engine types, re-exported from the experiment engine:
// the public API for running the ablation × model-variant × families ×
// seed proof grid through the deterministic worker pool and the
// content-addressed store.
type (
	// ProofMatrixSpec declares a proof matrix (ablations × model
	// variants × family counts × seeds).
	ProofMatrixSpec = experiment.ProofSpec
	// ProofMatrixOptions tunes parallelism, caching, and sharding; it
	// never affects results.
	ProofMatrixOptions = experiment.ProofOptions
	// ProofMatrixReport is a completed proof matrix with per-cell
	// verdicts and witnesses.
	ProofMatrixReport = experiment.ProofMatrix
	// ProofMatrixCell is one (ablation, model, families, seed) point.
	ProofMatrixCell = experiment.ProofCell
	// ProofMatrixCellResult is a completed cell's flattened verdict.
	ProofMatrixCellResult = experiment.ProofCellResult
	// ProofWitness is a minimal counterexample witness: a locally
	// minimal divergent Hi program pair with the diverging Lo
	// observation traces as evidence.
	ProofWitness = nonintf.Witness
)

// ProofAblations lists the canonical T1 ablation rows in presentation
// order; ProofModels lists the registered abstract-model variants.
func ProofAblations() []experiment.ProofAblation { return experiment.ProofAblations() }

// ProofModels lists the registered abstract-model platform variants the
// proof matrix quantifies over.
func ProofModels() []experiment.ProofModel { return experiment.ProofModels() }

// ProverFingerprint returns the prover fingerprint under which proof
// cells are keyed in the sweep store: the registered model-version
// strings of the absmodel, nonintf, and invariant layers. Bumping any
// of them turns every cached proof cell into a structural miss.
func ProverFingerprint() string { return experiment.ProverFingerprint() }

// RunProofMatrix executes a proof matrix on a worker pool, serving
// cached cells from the store when one is given. The report is a pure
// function of the spec; worker count and cache state cannot change a
// bit of it.
func RunProofMatrix(spec ProofMatrixSpec, opt ProofMatrixOptions) (*ProofMatrixReport, error) {
	return experiment.RunProofMatrix(spec, opt)
}

// WriteProofsJSON serialises a proof matrix as indented JSON.
func WriteProofsJSON(w io.Writer, m *ProofMatrixReport) error {
	return experiment.WriteProofsJSON(w, m)
}

// WriteProofsMarkdown renders a proof matrix as the PROOFS.md document
// (regeneration command, one verdict table per model variant, and the
// minimal counterexample witness behind every refuted row).
func WriteProofsMarkdown(w io.Writer, m *ProofMatrixReport) error {
	return experiment.WriteProofsMarkdown(w, m)
}

// WriteProofsText renders a proof matrix as aligned text.
func WriteProofsText(w io.Writer, m *ProofMatrixReport) error {
	return experiment.WriteProofsText(w, m)
}

// Conformance-harness types, re-exported from the experiment engine:
// the public API for property-based cross-checking of the abstract
// prover model against the concrete simulator. Each cell generates a
// random Hi program pair, runs it through the abstract prover (bounded
// noninterference over sampled time-function families) AND the
// concrete simulator (a compiled trojan/spy measurement with CI-backed
// capacity estimates), and classifies the disagreement: a cell where
// the prover accepts while the simulator measures a replicated leak is
// a soundness violation — the abstract model fails to over-approximate
// a concrete channel — and is minimised into a witness.
type (
	// ConformanceSpec declares a conformance matrix (model variants ×
	// ablations × generated pairs × seeds).
	ConformanceSpec = experiment.ConformanceSpec
	// ConformanceOptions tunes parallelism, caching, and sharding; it
	// never affects results.
	ConformanceOptions = experiment.ConformanceOptions
	// ConformanceReport is a completed conformance matrix with
	// per-cell dual-driver results and verdicts.
	ConformanceReport = experiment.ConformanceMatrix
	// ConformanceCell is one (model, ablation, pair, seed) point.
	ConformanceCell = experiment.ConformanceCell
	// ConformanceCellResult is a completed cell's cross-check outcome.
	ConformanceCellResult = experiment.ConformanceCellResult
	// ConformanceWitness is a minimised soundness violation: the
	// smallest program pair the prover still accepts while the
	// simulator still measures a leak.
	ConformanceWitness = conform.ViolationWitness
)

// ConformAblations lists the conformance ablation rows: the proof
// ablation rows both drivers can realise (SMT excluded — the concrete
// conformance driver time-shares one core).
func ConformAblations() []experiment.ConformAblation { return experiment.ConformAblations() }

// ConformFingerprint returns the conformance fingerprint under which
// conformance cells are keyed in the sweep store: the model versions of
// BOTH sides (abstract prover layers and concrete simulator layers)
// plus the harness's own version. Bumping any of them turns every
// cached conformance cell into a structural miss, so soundness is
// re-certified cold exactly when a model changed.
func ConformFingerprint() string { return experiment.ConformFingerprint() }

// RunConformance executes a conformance matrix on a worker pool,
// serving cached cells from the store when one is given. The report is
// a pure function of the spec; worker count and cache state cannot
// change a bit of it.
func RunConformance(spec ConformanceSpec, opt ConformanceOptions) (*ConformanceReport, error) {
	return experiment.RunConformance(spec, opt)
}

// WriteConformanceJSON serialises a conformance matrix as indented JSON.
func WriteConformanceJSON(w io.Writer, m *ConformanceReport) error {
	return experiment.WriteConformanceJSON(w, m)
}

// WriteConformanceText renders a conformance matrix as an aligned
// verdict table plus a detail line per soundness violation.
func WriteConformanceText(w io.Writer, m *ConformanceReport) error {
	return experiment.WriteConformanceText(w, m)
}

// Sweep types re-exported from the experiment engine: the public API for
// running the full attack × mitigation × seed matrix concurrently.
type (
	// SweepSpec declares an experiment sweep (scenarios × variants ×
	// seeds × trials, plus the proof matrix).
	SweepSpec = experiment.Spec
	// SweepOptions tunes parallelism and progress reporting; it never
	// affects results.
	SweepOptions = experiment.Options
	// SweepReport is a completed sweep with per-cell measurements.
	SweepReport = experiment.Report
	// SweepCell is one (scenario, variant, seed) point of the matrix.
	SweepCell = experiment.Cell
	// SweepCellResult is a completed cell's flattened measurement.
	SweepCellResult = experiment.CellResult
	// SweepStore is the content-addressed result store: cells keyed by
	// a stable hash of everything their measurement depends on, so
	// sweeps become incremental (cached cells are served, not re-run)
	// and sharded stores merge associatively across machines.
	SweepStore = store.Store
	// SweepCellStore is the backend-agnostic store contract both the
	// file-per-cell and packed segment backends satisfy; it is what
	// SweepOptions.Store accepts.
	SweepCellStore = store.CellStore
	// SweepPackedStore is the packed segment backend: entries as
	// checksummed records in append-only segment files with an
	// in-memory index — one or a handful of inodes for millions of
	// cells.
	SweepPackedStore = store.Packed
	// SweepPackedOptions tunes a packed store (fingerprint tags for
	// compaction, segment size, sync cadence).
	SweepPackedOptions = store.PackedOptions
	// SweepShard selects one shard of a matrix's deterministic
	// partition for distributed execution.
	SweepShard = experiment.ShardSel
	// SweepCacheStats reports how a sweep interacted with its store.
	SweepCacheStats = experiment.CacheStats
)

// Adaptive-sampling defaults, re-exported from the experiment engine:
// set SweepSpec.CIHalfWidth to DefaultSweepCIHalfWidth to stop each
// cell as soon as its capacity's 95% bootstrap confidence interval is
// tight enough (or its leak verdict certain), instead of burning the
// fixed round budget everywhere.
const DefaultSweepCIHalfWidth = experiment.DefaultCIHalfWidth

// OpenSweepStore opens (creating if needed) the content-addressed sweep
// store rooted at dir. Pass it via SweepOptions.Store; merge shard
// stores with its MergeFrom method.
func OpenSweepStore(dir string) (*SweepStore, error) { return store.Open(dir) }

// OpenPackedSweepStore opens (creating if needed) the packed segment
// store rooted at dir. Tag it with the current fingerprints (see
// SweepPackedOptions) so Compact can drop entries no lookup can reach.
func OpenPackedSweepStore(dir string, opt SweepPackedOptions) (*SweepPackedStore, error) {
	return store.OpenPacked(dir, opt)
}

// SweepFingerprint returns the engine fingerprint under which this
// build keys store cells: the registered model-version strings of the
// hardware, kernel, estimator, and attack layers. Any semantic change
// to a layer bumps its version, so stale cells can never be served.
func SweepFingerprint() string { return experiment.Fingerprint() }

// RunSweep executes an experiment sweep on a worker pool. The report is
// a pure function of the spec: worker count cannot change a bit of it.
func RunSweep(spec SweepSpec, opt SweepOptions) (*SweepReport, error) {
	return experiment.Run(spec, opt)
}

// WriteSweepJSON serialises a sweep report as indented JSON.
func WriteSweepJSON(w io.Writer, r *SweepReport) error { return experiment.WriteJSON(w, r) }

// WriteSweepMarkdown renders a sweep report as the EXPERIMENTS.md
// document (regeneration command, contract, proof matrix, one table per
// scenario).
func WriteSweepMarkdown(w io.Writer, r *SweepReport) error { return experiment.WriteMarkdown(w, r) }

// WriteSweepText renders a sweep report as aligned text tables.
func WriteSweepText(w io.Writer, r *SweepReport) error { return experiment.WriteText(w, r) }

// NewFlushMonitor installs the flush-invariant monitor on a system; call
// before Run and pass the monitor to CheckInvariants afterwards.
func NewFlushMonitor(sys *System) *FlushMonitor { return invariant.NewFlushMonitor(sys) }

// CheckInvariants runs the concrete functional-property checkers (§5's
// partitioning/flushing/padding-as-functional-properties) against a
// completed run.
func CheckInvariants(sys *System, fm *FlushMonitor) InvariantReport {
	return invariant.CheckSystem(sys, fm)
}

// CheckInvariantsTLB runs the §5.3 TLB partitioning theorem check (T10)
// and reports whether it holds.
func CheckInvariantsTLB() bool {
	return invariant.CheckTLBTheorem(50, 97).Pass
}

// RecommendPad returns a static worst-case bound on the domain-switch
// work for a platform — the "separate analysis" the paper's padding
// assumption calls for (§5.2). Use it as DomainSpec.PadCycles.
func RecommendPad(p PlatformConfig) uint64 { return kernel.RecommendPad(p) }

// Channel-discovery fuzzer types, re-exported from the discover layer:
// the public API for coverage-guided search over the ablation surface.
type (
	// FuzzOptions parameterises one discovery campaign; the discovery
	// set is a pure function of its semantic fields.
	FuzzOptions = discover.Options
	// FuzzResult is a completed campaign: discoveries, soundness
	// violations, and search accounting.
	FuzzResult = discover.Result
	// FuzzDiscovery is one confirmed, shrunk channel discovery — the
	// witness form discoveries.json commits and the registry replays.
	FuzzDiscovery = discover.Discovery
)

// Fuzz runs one channel-discovery campaign: mutate seeded trojan/spy
// pairs, screen them across the flush/pad/partition ablation surface
// with coverage feedback, and shrink every confirmed leak that full
// protection closes into a minimal replayable witness.
func Fuzz(opt FuzzOptions) (*FuzzResult, error) { return discover.Fuzz(opt) }

// FuzzFingerprint returns the discovery fingerprint under which the
// fuzzer keys cached candidate evaluations in the store.
func FuzzFingerprint() string { return discover.Fingerprint() }

// WriteFuzzReport renders a campaign result as aligned text.
func WriteFuzzReport(w io.Writer, r *FuzzResult) error { return discover.WriteReport(w, r) }

// WriteDiscoveriesMD renders committed discoveries as DISCOVERIES.md.
func WriteDiscoveriesMD(w io.Writer, ds []FuzzDiscovery) error {
	return discover.WriteDiscoveriesMD(w, ds)
}

// CommittedDiscoveries returns the discoveries pinned in the embedded
// discoveries.json — the ones init auto-registered as F-scenarios.
func CommittedDiscoveries() ([]FuzzDiscovery, error) { return discover.CommittedDiscoveries() }

// The committed discoveries register as dynamic attack scenarios (F1,
// F2, …) in every embedding process, so CLIs, tests, and library users
// all see the same registry. A malformed committed file is a build
// defect, not a runtime condition: fail loudly.
func init() {
	if err := discover.RegisterCommitted(); err != nil {
		panic(err)
	}
}

// NIResult is a concrete two-run noninterference comparison outcome.
type NIResult = invariant.NIResult

// TwoRunNI runs the same Lo observer against two different Hi programs
// under prot and compares every timing observation Lo makes. Under full
// protection the sequences are bit-identical; any divergence is a
// concrete timing channel. hiA and hiB are called once per run for a
// fresh program.
func TwoRunNI(prot Config, hiA, hiB func() Program, loOps int) (NIResult, error) {
	return invariant.TwoRunNI(prot, hiA, hiB, loOps)
}
