package experiment

import (
	"testing"

	"timeprot/internal/experiment/store"
)

var keySink store.Key

// TestKeyAllocsBounded gates key derivation, which runs for every cell
// of every matrix before the store is probed — the whole cost of a
// warm hit besides the read. The canonical encoding renders fields
// with strconv into a pooled buffer, so a key costs a handful of
// allocations; per-field fmt rendering costs dozens.
func TestKeyAllocsBounded(t *testing.T) {
	cells, err := Spec{Scenarios: []string{"T2"}, Rounds: 30}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	proofs, err := ProofSpec{Families: []int{1}, Random: 1}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	conforms, err := ConformanceSpec{Pairs: 1, Seeds: []uint64{1}}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	const maxAllocs = 8
	for _, tc := range []struct {
		name string
		key  func()
	}{
		{"CellKey", func() { keySink, _ = CellKey(cells[0]) }},
		{"ProofKey", func() { keySink = ProofKey(proofs[0]) }},
		{"ConformKey", func() { keySink = ConformKey(conforms[0]) }},
	} {
		tc.key() // build the field plan once
		if n := testing.AllocsPerRun(200, tc.key); n > maxAllocs {
			t.Errorf("%s allocates %.0f times, want ≤ %d", tc.name, n, maxAllocs)
		}
	}
}
