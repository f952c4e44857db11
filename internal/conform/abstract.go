package conform

import (
	"timeprot/internal/prove/absmodel"
	"timeprot/internal/prove/nonintf"
)

// AbstractVerdict is the prover side of one conformance cell: does the
// abstract model distinguish the pair's two Hi programs in any sampled
// time-function family?
type AbstractVerdict struct {
	// Accepts is true when Lo's observation traces agree under both
	// programs for every family and no run overran its pad budget —
	// the abstract model claims the pair is indistinguishable.
	Accepts bool
	// Families is the number of sampled function families checked.
	Families int
	// Runs is the number of complete machine executions.
	Runs int
	// Overruns counts runs whose switch work exceeded the pad budget;
	// any overrun invalidates the padding assumption, so the model
	// refuses to accept the pair.
	Overruns int
	// DivergeFamily and DivergeIndex locate the first divergence when
	// the pair is refuted (zero-valued otherwise).
	DivergeFamily uint64
	DivergeIndex  int
}

// CheckAbstract runs the pair through the abstract machine under every
// sampled time-function family, using the same per-family seed schedule
// as the prover's bounded check, and compares Lo's observation traces.
// The model accepts the pair only if the traces are identical in every
// family and no pad budget overran — the claim the concrete simulator
// then attempts to falsify. Every run resets one reused machine state and
// writes into one of two reused trace buffers.
func CheckAbstract(cfg absmodel.Config, p Pair, families int, baseSeed uint64) AbstractVerdict {
	if families < 1 {
		families = 1
	}
	v := AbstractVerdict{Accepts: true, Families: families}
	m := absmodel.NewMachine(cfg, absmodel.Funcs{})
	var s absmodel.State
	var oa, ob []nonintf.Observation
	for fam := 0; fam < families; fam++ {
		seed := baseSeed + uint64(fam)*0x9E37
		m.F = absmodel.SampleFuncs(seed, cfg.DigestMod)
		var ova, ovb int
		oa, ova = nonintf.RunTraceInto(m, &s, p.HiA, oa)
		ob, ovb = nonintf.RunTraceInto(m, &s, p.HiB, ob)
		v.Runs += 2
		v.Overruns += ova + ovb
		if idx, _, _, diff := nonintf.FirstDivergence(oa, ob); diff && v.Accepts {
			v.Accepts = false
			v.DivergeFamily = seed
			v.DivergeIndex = idx
		}
	}
	if v.Overruns > 0 {
		v.Accepts = false
	}
	return v
}
