package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"timeprot/internal/conform"
)

// goldenConformSpec is the canonical small conformance matrix committed
// as a regression anchor: two generated pairs over every ablation row
// of the base model — every verdict shape and both drivers' outputs a
// store must round-trip exactly.
func goldenConformSpec() ConformanceSpec {
	return ConformanceSpec{
		Models:   []string{"base"},
		Pairs:    2,
		Rounds:   16,
		Families: 2,
		Seeds:    []uint64{7},
	}
}

const goldenConformPath = "testdata/golden_conform.json"

func renderConformJSON(t *testing.T, m *ConformanceMatrix) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteConformanceJSON(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func runGoldenConform(t *testing.T, opt ConformanceOptions) (*ConformanceMatrix, CacheStats) {
	t.Helper()
	var stats CacheStats
	opt.Stats = &stats
	m, err := RunConformance(goldenConformSpec(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return m, stats
}

// TestGoldenConformance is the golden-trace regression test of the
// conformance engine, run on BOTH store backends: a cold run, a warm
// run (100% cache hits), and a 4-way sharded-then-merged run must all
// reproduce the committed JSON output byte for byte — the conformance
// mirror of TestGoldenSweep and TestGoldenProofMatrix.
func TestGoldenConformance(t *testing.T) {
	for _, backend := range goldenBackends {
		t.Run(backend, func(t *testing.T) {
			st := openBackendStore(t, backend)

			cold, stats := runGoldenConform(t, ConformanceOptions{Store: st})
			coldJSON := renderConformJSON(t, cold)
			if stats.Hits != 0 || stats.Executed != stats.Total || stats.Stored != stats.Total {
				t.Fatalf("cold run stats: %+v", stats)
			}
			if v := cold.Violations(); len(v) != 0 {
				t.Fatalf("golden conformance matrix carries %d soundness violations: %+v", len(v), v)
			}

			if *update && backend == "file" {
				if err := os.MkdirAll(filepath.Dir(goldenConformPath), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenConformPath, coldJSON, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			golden, err := os.ReadFile(goldenConformPath)
			if err != nil {
				t.Fatalf("%v (run `go test ./internal/experiment -run TestGoldenConformance -update` after an intentional model or harness change)", err)
			}
			if !bytes.Equal(coldJSON, golden) {
				t.Fatalf("cold run diverges from the committed golden output — a model or harness change altered conformance verdicts; if intentional, bump the responsible model version and regenerate with -update")
			}

			// Warm run: zero executions, identical bytes — including
			// the text rendering, which exercises the reconstructed
			// estimates.
			warm, wstats := runGoldenConform(t, ConformanceOptions{Store: st})
			if wstats.Hits != wstats.Total || wstats.Executed != 0 || wstats.Stored != 0 {
				t.Fatalf("warm run not fully cached: %+v", wstats)
			}
			if !bytes.Equal(renderConformJSON(t, warm), golden) {
				t.Fatal("warm run JSON differs from cold run")
			}
			var wtxt, ctxt bytes.Buffer
			if err := WriteConformanceText(&wtxt, warm); err != nil {
				t.Fatal(err)
			}
			if err := WriteConformanceText(&ctxt, cold); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wtxt.Bytes(), ctxt.Bytes()) {
				t.Fatal("warm run text differs from cold run")
			}

			// 4-way sharded cold runs into independent stores, merged
			// across a Close, then a warm full run over the merged
			// store: same bytes again.
			shardStores := make([]string, 4)
			for i := 0; i < 4; i++ {
				s := openBackendStore(t, backend)
				shardStores[i] = s.Dir()
				_, st := runGoldenConform(t, ConformanceOptions{Store: s, Shard: ShardSel{Index: i, Count: 4}})
				if st.Executed == 0 {
					t.Fatalf("shard %d executed nothing", i)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
			merged := openBackendStore(t, backend)
			for _, dir := range shardStores {
				if _, err := merged.MergeFrom(dir); err != nil {
					t.Fatal(err)
				}
			}
			full, mstats := runGoldenConform(t, ConformanceOptions{Store: merged})
			if mstats.Hits != mstats.Total || mstats.Executed != 0 {
				t.Fatalf("merged warm run not fully cached: %+v", mstats)
			}
			if !bytes.Equal(renderConformJSON(t, full), golden) {
				t.Fatal("sharded-then-merged run differs from cold run")
			}
		})
	}
}

// TestConformanceParallelismInvariance: the matrix's bytes are a pure
// function of its spec — worker count cannot change a bit of it. This
// is the matrix-level half of the generated-program equivalence
// contract (the kernel-level half lives in internal/conform).
func TestConformanceParallelismInvariance(t *testing.T) {
	spec := ConformanceSpec{
		Models:    []string{"base"},
		Ablations: []string{"full protection", "no flush"},
		Pairs:     2,
		Rounds:    12,
		Families:  1,
		Seeds:     []uint64{3},
	}
	var outs [][]byte
	for _, par := range []int{1, 4} {
		m, err := RunConformance(spec, ConformanceOptions{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, renderConformJSON(t, m))
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Fatal("conformance matrix depends on worker count")
	}
}

// TestConformShardPartition checks the conformance-cell partition:
// disjoint, complete, index-preserving.
func TestConformShardPartition(t *testing.T) {
	cells, err := ConformanceSpec{Pairs: 3, Seeds: []uint64{1, 2}}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 5; n++ {
		seen := make(map[int]bool)
		for i := 0; i < n; i++ {
			part, err := shard(cells, ShardSel{Index: i, Count: n}, conformKind.sameGroup)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range part {
				if seen[c.Index] {
					t.Fatalf("%d shards: cell %d duplicated", n, c.Index)
				}
				seen[c.Index] = true
			}
		}
		if len(seen) != len(cells) {
			t.Fatalf("%d shards cover %d cells, want %d", n, len(seen), len(cells))
		}
	}
	if _, err := shard(cells, ShardSel{Index: 2, Count: 2}, conformKind.sameGroup); err == nil {
		t.Fatal("out-of-range conformance shard index accepted")
	}
}

// TestConformanceSpecErrors: unknown selectors are rejected with the
// available names listed.
func TestConformanceSpecErrors(t *testing.T) {
	if _, err := (ConformanceSpec{Models: []string{"nope"}}).Cells(); err == nil ||
		!strings.Contains(err.Error(), "base") {
		t.Fatalf("unknown model not rejected usefully: %v", err)
	}
	if _, err := (ConformanceSpec{Ablations: []string{"nope"}}).Cells(); err == nil ||
		!strings.Contains(err.Error(), "no flush") {
		t.Fatalf("unknown ablation not rejected usefully: %v", err)
	}
}

// TestConformAblationsSubsetOfProofAblations pins the registry
// relationship: every conformance ablation row is a proof ablation row
// (the SMT row is the single intended exclusion), so the two matrices
// stay name-compatible.
func TestConformAblationsSubsetOfProofAblations(t *testing.T) {
	proof := make(map[string]bool)
	for _, a := range ProofAblations() {
		proof[a.Name] = true
	}
	for _, a := range ConformAblations() {
		if !proof[a.Name] {
			t.Errorf("conformance ablation %q is not a proof ablation", a.Name)
		}
	}
	if got, want := len(ConformAblations()), len(ProofAblations())-1; got != want {
		t.Errorf("conformance rows = %d, want %d (proof rows minus SMT)", got, want)
	}
}

// TestConformanceSoundness is the acceptance-criteria matrix: every
// model variant, every ablation row, and enough generated pairs that
// the matrix crosses 200 generated program pairs — with zero soundness
// violations. A violation here means the abstract model fails to
// over-approximate a concrete channel and must be fixed, not skipped.
func TestConformanceSoundness(t *testing.T) {
	if testing.Short() {
		t.Skip("full conformance matrix is not a -short test")
	}
	spec := ConformanceSpec{
		Pairs:    12, // 3 models × 1 seed × 12 pairs × 6 ablations = 216 cells ≥ 200 pairs
		Rounds:   24,
		Families: 2,
	}
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) < 200 {
		t.Fatalf("matrix has %d cells, want >= 200", len(cells))
	}
	m, err := RunConformance(spec, ConformanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range m.Cells {
		if c.Err != "" {
			t.Fatalf("cell %d (%s/%s pair %d) failed: %s", c.Index, c.Model, c.Ablation, c.Pair, c.Err)
		}
	}
	if v := m.Violations(); len(v) != 0 {
		for _, c := range v {
			t.Errorf("SOUNDNESS VIOLATION: cell %d (%s/%s pair %d): prover accepts %v vs %v, simulator leaks via %s",
				c.Index, c.Model, c.Ablation, c.Pair, c.ProgramPair.HiA, c.ProgramPair.HiB, c.Channels[c.Best].Name)
		}
		t.FailNow()
	}
	// The matrix must not be vacuous: full-protection rows all accept
	// abstractly, and at least one ablated row demonstrates a concrete
	// leak (sound refutations with evidence).
	leaks := 0
	for _, c := range m.Cells {
		if c.Ablation == "full protection" && !c.Abstract.Accepts {
			t.Errorf("cell %d: full protection refuted on %s", c.Index, c.Model)
		}
		if c.Verdict == conform.VerdictSound && c.Leak {
			leaks++
		}
	}
	if leaks == 0 {
		t.Error("no ablated cell demonstrated a concrete leak; the concrete driver has no detection power")
	}
}
