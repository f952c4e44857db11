package experiment

import (
	"fmt"

	"timeprot/internal/attacks"
	"timeprot/internal/experiment/store"
)

// This file is the engine surface an external scheduler needs — the
// sweep service (internal/serve) schedules cells itself, across jobs,
// so it must be able to key, partition, and execute single cells with
// exactly the semantics Run/RunProofMatrix/RunConformance use
// internally. Everything here is a thin export of the runners' own
// helpers: there is one keying function, one executor, and one group
// partition per cell kind, shared by the in-process runners and the
// service, so the two can never drift.

// CellKey derives the store key for one attack cell. It reports false
// when the cell does not resolve against the scenario registry (such
// cells fail in the runner and are never cached).
func CellKey(c Cell) (store.Key, bool) { return cellKey(c) }

// ProofKey derives the store key for one proof cell.
func ProofKey(c ProofCell) store.Key { return proofCellKey(c) }

// ConformKey derives the store key for one conformance cell.
func ConformKey(c ConformanceCell) store.Key { return conformCellKey(c) }

// ExecuteCell executes one attack cell on the given reusable context
// and returns the measured row — the exact value Run writes to the
// store. Runner panics surface as errors; a failed cell has no row and
// must not be cached.
func ExecuteCell(cc *attacks.CellContext, c Cell) (attacks.Row, error) {
	res := runCell(cc, c)
	if res.Err != "" {
		return attacks.Row{}, fmt.Errorf("experiment: cell %s/%s (seed %d): %s", c.ScenarioID, c.Variant, c.Seed, res.Err)
	}
	return res.Row(), nil
}

// ExecuteProofCell executes one proof cell and returns its stored form
// — the exact envelope RunProofMatrix writes to the store.
func ExecuteProofCell(c ProofCell) (store.ProofV1, error) {
	res := runProofCell(c)
	if res.Err != "" {
		return store.ProofV1{}, fmt.Errorf("experiment: proof cell %s/%s (seed %d): %s", c.Model, c.Ablation, c.Seed, res.Err)
	}
	return encodeProofCell(res), nil
}

// ExecuteConformCell executes one conformance cell and returns its
// stored form — the exact envelope RunConformance writes to the store.
func ExecuteConformCell(c ConformanceCell) (store.ConformV1, error) {
	res := runConformCell(c)
	if res.Err != "" {
		return store.ConformV1{}, fmt.Errorf("experiment: conformance cell %s/%s pair %d (seed %d): %s", c.Model, c.Ablation, c.Pair, c.Seed, res.Err)
	}
	return encodeConformCell(res), nil
}

// FinalizationGroups partitions an attack-cell matrix into its
// contiguous finalisation groups — the unit the shard partition uses
// and the only safe work-stealing granule: cross-row post-processing
// needs every variant row of a (scenario, seed, trial) group, so a
// scheduler that splits a group could starve a cell it later needs.
func FinalizationGroups(cells []Cell) [][]Cell {
	var out [][]Cell
	for start := 0; start < len(cells); {
		end := start + 1
		for end < len(cells) && sameGroup(cells[end], cells[start]) {
			end++
		}
		out = append(out, cells[start:end:end])
		start = end
	}
	return out
}

// ShardCells returns one shard of the matrix's deterministic
// finalisation-group partition, preserving full-matrix indices — the
// exact subset Run executes under Options.Shard.
func ShardCells(cells []Cell, sh ShardSel) ([]Cell, error) { return shardCells(cells, sh) }

// ShardProofCells returns one shard of the proof matrix's deterministic
// per-cell partition — the exact subset RunProofMatrix executes under
// ProofOptions.Shard.
func ShardProofCells(cells []ProofCell, sh ShardSel) ([]ProofCell, error) {
	return shardProofCells(cells, sh)
}

// ShardConformCells returns one shard of the conformance matrix's
// deterministic per-cell partition — the exact subset RunConformance
// executes under ConformanceOptions.Shard.
func ShardConformCells(cells []ConformanceCell, sh ShardSel) ([]ConformanceCell, error) {
	return shardConformCells(cells, sh)
}

// SweepProofSpec returns the proof matrix a sweep with Spec.Proofs runs
// for its T1 section, so an external scheduler can pre-execute (and
// dedup) the proof cells a sweep job will consume at assembly time.
func SweepProofSpec(s Spec) ProofSpec {
	s = s.normalized()
	return sweepProofSpec(s.ProofFamilies, s.ProofRandom, firstSeed(s))
}
