package attacks

import "testing"

// Tests for the scenario expansion pack (T15-T17): leak-verdict shapes,
// the scenarios' defining structural properties, and their stamped
// rounds metadata.

func TestT15Prefetch(t *testing.T) {
	e := mustScenario("T15").Experiment(40, testSeed)
	wantLeaks(t, e, []bool{true, false})
	// The speculative-fill channel is binary and, with a deterministic
	// per-round eviction signature, should run near a full bit.
	if e.Rows[0].Est.CapacityBits < 0.8 {
		t.Errorf("prefetcher channel too weak: %v", e.Rows[0].Est)
	}
}

func TestT16Occupancy(t *testing.T) {
	e := mustScenario("T16").Experiment(40, testSeed)
	// Open with colouring off and on the unsplittable 2-colour
	// platform; closed by a disjoint split at 4 and at 8 colours.
	wantLeaks(t, e, []bool{true, true, false, false})
	// The coarse platform's channel must be at least as strong as the
	// fine-grained baseline: less LLC for the same occupancy delta.
	if e.Rows[1].Est.CapacityBits < e.Rows[0].Est.CapacityBits {
		t.Errorf("coarse platform weaker than baseline: %v vs %v",
			e.Rows[1].Est.CapacityBits, e.Rows[0].Est.CapacityBits)
	}
}

func TestT17XCore(t *testing.T) {
	e := mustScenario("T17").Experiment(40, testSeed)
	wantLeaks(t, e, []bool{true, true, false})
	// Flushing must not help against the concurrent multi-bit channel.
	un, fl := e.Rows[0].Est.CapacityBits, e.Rows[1].Est.CapacityBits
	if fl < un*0.75 {
		t.Errorf("flush+pad should not reduce the concurrent channel: %f vs %f", fl, un)
	}
	// The 4-ary alphabet must carry measurably more than T3's binary
	// channel at the same windows and seed.
	t3 := mustScenario("T3").Experiment(40, testSeed)
	if un <= t3.Rows[0].Est.CapacityBits {
		t.Errorf("multi-bit channel (%f b/use) not above the binary one (%f b/use)",
			un, t3.Rows[0].Est.CapacityBits)
	}
}

// TestRowsCarryRounds: every row produced through Variant.Run is
// stamped with its effective rounds, which the sweep reporters and the
// adaptive sampler both rely on.
func TestRowsCarryRounds(t *testing.T) {
	s := mustScenario("T15")
	rounds := s.Rounds(40)
	row := s.Variants[0].Run(rounds, testSeed)
	if row.Rounds != rounds || row.RoundsRun != rounds {
		t.Errorf("Run stamped rounds=%d run=%d, want both %d", row.Rounds, row.RoundsRun, rounds)
	}
	e := s.Experiment(rounds, testSeed)
	for _, r := range e.Rows {
		if r.Rounds != rounds {
			t.Errorf("table row %q rounds=%d, want %d", r.Label, r.Rounds, rounds)
		}
	}
}
