package experiment

import (
	"timeprot/internal/attacks"
	"timeprot/internal/channel"
	"timeprot/internal/conform"
	"timeprot/internal/experiment/store"
	"timeprot/internal/hw"
	"timeprot/internal/kernel"
	"timeprot/internal/prove/absmodel"
	"timeprot/internal/prove/invariant"
	"timeprot/internal/prove/nonintf"
)

// Fingerprint returns the engine fingerprint: the registered
// model-version string of every simulator layer a cell's measurement
// passes through — hardware time model, kernel model, capacity
// estimator, and attack harness. It is part of every cell's store key,
// so bumping any layer's version (the declared discipline for semantic
// changes) invalidates the entire store instead of silently serving
// results computed by a different model — the cheap re-verification
// loop the paper's proof-maintenance argument needs.
func Fingerprint() string {
	return hw.ModelVersion + "|" +
		kernel.ModelVersion + "|" +
		channel.EstimatorVersion + "|" +
		attacks.HarnessVersion
}

// ProverFingerprint returns the prover fingerprint: the registered
// model-version string of every layer a proof cell's verdict passes
// through — the abstract model, the noninterference checker, and the
// concrete invariant checkers. It is part of every proof cell's store
// key, the same re-verification discipline Fingerprint applies to
// measured cells: bump any prover layer's version and every cached
// proof becomes a structural miss.
func ProverFingerprint() string {
	return absmodel.ModelVersion + "|" +
		nonintf.ModelVersion + "|" +
		invariant.ModelVersion
}

// ConformFingerprint returns the conformance fingerprint: the
// registered model-version strings of BOTH sides a conformance verdict
// passes through — the abstract prover layers, the concrete simulator
// layers, and the conformance harness itself. Bumping any of them turns
// every cached conformance cell into a structural miss, so CI
// re-certifies abstraction soundness cold exactly when a model changed.
func ConformFingerprint() string {
	return absmodel.ModelVersion + "|" +
		nonintf.ModelVersion + "|" +
		hw.ModelVersion + "|" +
		kernel.ModelVersion + "|" +
		channel.EstimatorVersion + "|" +
		attacks.HarnessVersion + "|" +
		conform.HarnessVersion
}

// ConformKey derives the store key for one conformance cell.
func ConformKey(c ConformanceCell) store.Key {
	return store.ConformSpec{
		Fingerprint: ConformFingerprint(),
		Model:       c.Model,
		Ablation:    c.Ablation,
		Cfg:         c.Cfg,
		Prot:        c.Prot,
		Pair:        c.Pair,
		PairSeed:    c.PairSeed,
		Rounds:      c.Rounds,
		Families:    c.Families,
		Seed:        c.Seed,
	}.Key()
}

// ProofKey derives the store key for one proof cell.
func ProofKey(c ProofCell) store.Key {
	return store.ProofSpec{
		Fingerprint: ProverFingerprint(),
		Ablation:    c.Ablation,
		Model:       c.Model,
		Cfg:         c.Cfg,
		Families:    c.Families,
		Random:      c.Random,
		Seed:        c.Seed,
	}.Key()
}

// CellKey derives the store key for one attack cell. It reports false
// when the cell does not resolve against the scenario registry (such
// cells fail in the runner and are never cached).
func CellKey(c Cell) (store.Key, bool) {
	s, ok := attacks.ScenarioByID(c.ScenarioID)
	if !ok {
		return store.Key{}, false
	}
	v, ok := s.VariantByLabel(c.Variant)
	if !ok {
		return store.Key{}, false
	}
	return store.Spec{
		Fingerprint:     Fingerprint(),
		ScenarioID:      s.ID,
		ScenarioVersion: s.Version,
		Variant:         v.Label,
		Config:          v.Prot,
		Rounds:          c.Rounds,
		ReqRounds:       c.ReqRounds,
		CIHalfWidth:     c.CIHalfWidth,
		MaxRounds:       c.MaxRounds,
		BaseSeed:        c.BaseSeed,
		Trial:           c.Trial,
		Seed:            c.Seed,
	}.Key(), true
}
