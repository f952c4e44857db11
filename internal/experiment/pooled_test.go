package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"timeprot/internal/attacks"
	"timeprot/internal/experiment/store"
)

// These tests gate the pooled execution path at the engine level: a
// worker's reused CellContext must be invisible in every output — cell
// results, report bytes, and the content-addressed store's file set —
// for any worker count.

// cellRepr renders a cell result for comparison: the raw row via %#v
// (NaN-safe, unlike reflect.DeepEqual) plus the flattened JSON fields
// (which dereference the ErrRate pointer — %#v would print its
// address).
func cellRepr(t *testing.T, res CellResult) string {
	t.Helper()
	js, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%#v | %s", res.Row(), js)
}

// TestPooledCellMatchesFresh runs representative cells through runCell
// twice — once on a fresh context, once on a context already dirtied by
// every previous cell — and asserts identical results.
func TestPooledCellMatchesFresh(t *testing.T) {
	cells, err := (Spec{
		Scenarios: []string{"T2", "T9", "T11", "T16", "T17"},
		Rounds:    8,
		Seeds:     []uint64{42},
	}).Cells()
	if err != nil {
		t.Fatal(err)
	}
	cc := attacks.NewCellContext()
	for _, c := range cells {
		fresh := cellRepr(t, runCell(attacks.NewCellContext(), c))
		pooled := cellRepr(t, runCell(cc, c))
		if fresh != pooled {
			t.Errorf("%s/%s: pooled cell differs from fresh\nfresh:  %s\npooled: %s",
				c.ScenarioID, c.Variant, fresh, pooled)
		}
	}
}

// storeFiles maps a store directory's entries to their contents.
func storeFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		files[rel] = b
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestPooledStoreIdenticalAcrossParallelism runs the same sweep into
// two stores at different worker counts (different context reuse
// interleavings) and asserts the stores hold byte-identical file sets:
// pooling and scheduling can never change a stored cell.
func TestPooledStoreIdenticalAcrossParallelism(t *testing.T) {
	spec := Spec{
		Scenarios: []string{"T4", "T16"},
		Rounds:    8,
		Seeds:     []uint64{42},
	}
	dirs := [2]string{t.TempDir(), t.TempDir()}
	reports := [2]*bytes.Buffer{{}, {}}
	for i, par := range []int{1, 4} {
		st, err := store.Open(dirs[i])
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(spec, Options{Parallelism: par, Store: st})
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteJSON(reports[i], rep); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(reports[0].Bytes(), reports[1].Bytes()) {
		t.Error("report bytes differ between parallelism 1 and 4")
	}
	a, b := storeFiles(t, dirs[0]), storeFiles(t, dirs[1])
	if len(a) == 0 {
		t.Fatal("sweep stored no cells")
	}
	var names []string
	for k := range a {
		names = append(names, k)
	}
	sort.Strings(names)
	if len(a) != len(b) {
		t.Fatalf("store file counts differ: %d vs %d", len(a), len(b))
	}
	for _, name := range names {
		bb, ok := b[name]
		if !ok {
			t.Errorf("store key %s missing from parallel run", name)
			continue
		}
		if !bytes.Equal(a[name], bb) {
			t.Errorf("store entry %s differs between worker counts", name)
		}
	}
}
