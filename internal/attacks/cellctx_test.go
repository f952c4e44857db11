package attacks

import (
	"fmt"
	"testing"
)

// These tests pin the allocation-discipline contract of the pooled cell
// path: running a variant inside a reused CellContext must be
// bit-identical to running it on a fresh one (CellContext is an
// execution vehicle, never a model input), and the warm per-cell
// allocation count must stay far below a fresh run's, so the hot loop
// of a sweep cannot silently regress back to allocate-per-cell.

// pooledRows compares a pooled row against the fresh row for one
// variant. Rows can carry NaN (ErrRate for decoder-less scenarios), so
// the comparison goes through %#v, under which NaN == NaN.
func rowRepr(r Row) string { return fmt.Sprintf("%#v", r) }

// TestPooledMatchesFresh runs every registry variant twice — once on a
// fresh context and once inside a single CellContext shared across the
// whole matrix — and asserts bit-identical rows. Sharing one context
// across all scenarios is the point: every variant after the first runs
// on a dirty, previously-used context, so any scratch buffer that leaks
// state between cells shows up as a row diff.
func TestPooledMatchesFresh(t *testing.T) {
	cc := NewCellContext()
	const seed = 42
	for _, s := range Scenarios() {
		s := s
		t.Run(s.ID, func(t *testing.T) {
			rounds := s.Rounds(6)
			for _, v := range s.Variants {
				fresh := v.Run(rounds, seed)
				pooled := v.RunIn(cc, rounds, seed)
				if rowRepr(fresh) != rowRepr(pooled) {
					t.Errorf("%s/%s: pooled row differs from fresh\nfresh:  %s\npooled: %s",
						s.ID, v.Label, rowRepr(fresh), rowRepr(pooled))
				}
			}
		})
	}
}

// allocGateCases are the whole-cell allocation gates: one
// time-multiplexed prime-probe cell (T2), one concurrent occupancy cell
// (T16), and one multi-bit cross-core cell (T17) — the three hot-path
// shapes of the sweep matrix.
var allocGateCases = []struct {
	scenario string
	label    string
	rounds   int
	// maxWarm bounds allocations per cell on a warmed context. Before
	// the channel.Estimator and CellContext existed this path measured
	// ~1371 (T2), ~1223 (T16), ~1511 (T17) allocs per cell at these
	// rounds; warm contexts measure ~70/~146/~164. The bounds leave
	// headroom for Go-version noise while still failing any return to
	// allocate-per-estimate behaviour.
	maxWarm float64
}{
	{"T2", "unprotected", 30, 400},
	{"T16", "no colouring (8 colours)", 30, 400},
	{"T17", "unprotected", 30, 400},
}

// TestCellPathAllocBounded gates end-to-end cell execution: after
// warming a CellContext, a whole RunIn — system construction through
// capacity estimate — must stay under the per-cell allocation budget.
func TestCellPathAllocBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate needs unshared CPU time")
	}
	for _, tc := range allocGateCases {
		tc := tc
		t.Run(tc.scenario, func(t *testing.T) {
			s := mustScenario(tc.scenario)
			v, ok := s.VariantByLabel(tc.label)
			if !ok {
				t.Fatalf("variant %q not in %s", tc.label, tc.scenario)
			}
			cc := NewCellContext()
			const seed = 42
			// Two warmup runs grow every pooled buffer to steady state.
			want := rowRepr(v.Run(tc.rounds, seed))
			v.RunIn(cc, tc.rounds, seed)
			v.RunIn(cc, tc.rounds, seed)
			var got string
			allocs := testing.AllocsPerRun(3, func() {
				got = rowRepr(v.RunIn(cc, tc.rounds, seed))
			})
			if got != want {
				t.Fatalf("warm pooled row differs from fresh\nfresh: %s\nwarm:  %s", want, got)
			}
			t.Logf("%s/%s: %.0f allocs/cell warm (bound %.0f)", tc.scenario, tc.label, allocs, tc.maxWarm)
			if allocs > tc.maxWarm {
				t.Errorf("%s/%s: %.0f allocs/cell warm, want <= %.0f",
					tc.scenario, tc.label, allocs, tc.maxWarm)
			}
		})
	}
}

// TestCellContextRepeatStable reruns the same variant on the same
// context and asserts the second, fully-warm run still matches fresh —
// buffer growth from the first pooled run must not bleed into the next.
func TestCellContextRepeatStable(t *testing.T) {
	cc := NewCellContext()
	for _, tc := range allocGateCases {
		s := mustScenario(tc.scenario)
		v, _ := s.VariantByLabel(tc.label)
		want := rowRepr(v.Run(12, 7))
		for i := 0; i < 3; i++ {
			if got := rowRepr(v.RunIn(cc, 12, 7)); got != want {
				t.Fatalf("%s/%s run %d: %s, want %s", tc.scenario, tc.label, i, got, want)
			}
		}
	}
}
