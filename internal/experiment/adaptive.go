package experiment

import "timeprot/internal/attacks"

// This file is the adaptive sampling engine: instead of burning a fixed
// round budget on every cell whether its capacity estimate converged
// long ago or is still wide open, a cell climbs a deterministic rounds
// ladder and stops as soon as the 95% bootstrap confidence interval on
// its capacity (internal/channel) is tight enough to trust the
// leak/blocked verdict. Closed channels converge almost immediately —
// their resample capacities are all (near) zero — so an adaptive sweep
// spends its rounds where the estimator is actually uncertain.
//
// Determinism is preserved by construction: the ladder is a pure
// function of the cell's (ReqRounds, CIHalfWidth, MaxRounds, seed) and
// the scenario's rounds policy, every rung re-runs the scenario from
// scratch at the rung's rounds (cells never share state), and the
// adaptive policy is part of the cell's store key — so a warm adaptive
// run reproduces a cold one byte for byte, and adaptive and fixed
// sweeps can never serve each other's cells.

// converged reports whether a rung's estimate is good enough to stop:
// either the capacity is pinned down to the target half-width, or the
// whole confidence interval AND the point estimate sit on the same side
// of the leak threshold (floor + margin) — the estimate may still be
// loose, but no amount of extra sampling can plausibly flip the verdict
// the sweep exists to deliver. The point estimate must agree because
// the bootstrap percentile interval is not guaranteed to contain it
// (resampling can systematically drop a rare symbol); an interval that
// contradicts the row's own Leaks() verdict means the estimate is NOT
// settled, so the ladder keeps climbing.
func converged(row attacks.Row, target float64) bool {
	est := row.Est
	if est.CIHalfWidth() <= target {
		return true
	}
	threshold := est.FloorBits + attacks.LeakMargin
	if est.CapacityBits > threshold {
		return est.CILow > threshold
	}
	return est.CIHigh <= threshold
}

// adaptiveLadder returns the requested-rounds ladder for a cell: half
// the requested rounds, doubling up to the cap, with the cap itself as
// the final rung.
func adaptiveLadder(c Cell) []int {
	var rungs []int
	q := c.ReqRounds / 2
	if q < 1 {
		q = 1
	}
	for q < c.MaxRounds {
		rungs = append(rungs, q)
		q *= 2
	}
	return append(rungs, c.MaxRounds)
}

// runVariant executes one cell's measurement: a single run at the
// cell's effective rounds for a fixed sweep, the adaptive ladder
// otherwise. The returned row carries the effective rounds of the
// converged rung (Rounds), the total rounds simulated across all
// executed rungs (RoundsRun), and the summed simulated ops. cc is the
// worker's reusable cell context; results are bit-identical to a fresh
// context, and each rung releases its pooled machine back to the
// context before the next rung runs.
func runVariant(sc attacks.Scenario, v attacks.Variant, c Cell, cc *attacks.CellContext) attacks.Row {
	if !c.Adaptive() {
		return v.RunIn(cc, c.Rounds, c.Seed)
	}
	var (
		row     attacks.Row
		prevEff = -1 // below any sc.Rounds value, so the first rung always runs
		total   = 0
		ops     = uint64(0)
	)
	for _, q := range adaptiveLadder(c) {
		eff := sc.Rounds(q)
		if eff == prevEff {
			continue // the rounds policy collapsed this rung into the last
		}
		prevEff = eff
		row = v.RunIn(cc, eff, c.Seed)
		total += eff
		ops += row.SimOps
		if converged(row, c.CIHalfWidth) {
			break
		}
	}
	row.RoundsRun = total
	row.SimOps = ops
	return row
}
