package nonintf

import (
	"testing"

	"timeprot/internal/prove/absmodel"
)

// TestProveAllocsBounded is the prover's allocation gate: the lemma
// checkers reset reused model states in place, walk the digest product
// space with one odometer vector, compare Lo's views without copying
// and step each lemma input once, and the bounded check and the witness
// shrink run over reused trace buffers. A Prove call therefore allocates
// a fixed few hundred objects (the program lists, the reports and the
// witness), not one per enumerated assignment: the lemmas enumerate
// 59,049 assignments, so the ceiling fails long before per-assignment
// allocation could hide under it.
func TestProveAllocsBounded(t *testing.T) {
	const maxAllocs = 3000
	noFlush := absmodel.DefaultConfig()
	noFlush.Flush = false
	for _, tc := range []struct {
		name string
		cfg  absmodel.Config
	}{
		{"full-protection", absmodel.DefaultConfig()},
		{"no-flush", noFlush},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := Prove(tc.cfg, 1, 0, testSeed).String()
			var got string
			allocs := testing.AllocsPerRun(2, func() {
				got = Prove(tc.cfg, 1, 0, testSeed).String()
			})
			if got != want {
				t.Fatalf("repeated Prove differs\nfirst:  %s\nrepeat: %s", want, got)
			}
			t.Logf("%s: %.0f allocs/Prove (bound %d)", tc.name, allocs, maxAllocs)
			if allocs > maxAllocs {
				t.Errorf("%s: %.0f allocs/Prove, want <= %d", tc.name, allocs, maxAllocs)
			}
		})
	}
}
