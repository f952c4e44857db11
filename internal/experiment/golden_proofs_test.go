package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenProofSpec is the canonical small proof matrix committed as a
// regression anchor: one proved cell and six refuted cells (with
// witnesses) over the base model — every verdict and witness shape a
// store must round-trip exactly.
func goldenProofSpec() ProofSpec {
	return ProofSpec{
		Models:   []string{"base"},
		Families: []int{1},
		Random:   10,
		Seeds:    []uint64{11},
	}
}

const goldenProofsPath = "testdata/golden_proofs.json"

func renderProofsJSON(t *testing.T, m *ProofMatrix) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteProofsJSON(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func renderProofsMarkdown(t *testing.T, m *ProofMatrix) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteProofsMarkdown(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func runGoldenProofs(t *testing.T, opt ProofOptions) (*ProofMatrix, CacheStats) {
	t.Helper()
	var stats CacheStats
	opt.Stats = &stats
	m, err := RunProofMatrix(goldenProofSpec(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return m, stats
}

// TestGoldenProofMatrix is the golden-trace regression test of the
// proof-matrix engine, run on BOTH store backends: a cold run, a warm
// run (100% cache hits), and a 4-way sharded-then-merged run must all
// reproduce the committed JSON output byte for byte — the proof-side
// mirror of TestGoldenSweep.
func TestGoldenProofMatrix(t *testing.T) {
	for _, backend := range goldenBackends {
		t.Run(backend, func(t *testing.T) {
			st := openBackendStore(t, backend)

			cold, stats := runGoldenProofs(t, ProofOptions{Store: st})
			coldJSON := renderProofsJSON(t, cold)
			if stats.Hits != 0 || stats.Executed != stats.Total || stats.Stored != stats.Total {
				t.Fatalf("cold run stats: %+v", stats)
			}

			if *update && backend == "file" {
				if err := os.MkdirAll(filepath.Dir(goldenProofsPath), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenProofsPath, coldJSON, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			golden, err := os.ReadFile(goldenProofsPath)
			if err != nil {
				t.Fatalf("%v (run `go test ./internal/experiment -run TestGoldenProofMatrix -update` after an intentional prover change)", err)
			}
			if !bytes.Equal(coldJSON, golden) {
				t.Fatalf("cold run diverges from the committed golden output — a prover change altered verdicts or witnesses; if intentional, bump the responsible prove/* model version and regenerate with -update")
			}

			// Warm run: zero executions, identical bytes — including
			// the Markdown rendering, which exercises the
			// reconstructed reports.
			warm, wstats := runGoldenProofs(t, ProofOptions{Store: st})
			if wstats.Hits != wstats.Total || wstats.Executed != 0 || wstats.Stored != 0 {
				t.Fatalf("warm run not fully cached: %+v", wstats)
			}
			if !bytes.Equal(renderProofsJSON(t, warm), golden) {
				t.Fatal("warm run JSON differs from cold run")
			}
			if !bytes.Equal(renderProofsMarkdown(t, warm), renderProofsMarkdown(t, cold)) {
				t.Fatal("warm run Markdown differs from cold run")
			}

			// 4-way sharded cold runs into independent stores, merged
			// across a Close, then a warm full run over the merged
			// store: same bytes again.
			shardStores := make([]string, 4)
			for i := 0; i < 4; i++ {
				s := openBackendStore(t, backend)
				shardStores[i] = s.Dir()
				_, st := runGoldenProofs(t, ProofOptions{Store: s, Shard: ShardSel{Index: i, Count: 4}})
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
			full, mstats := runGoldenProofs(t, ProofOptions{Store: merged})
			if mstats.Hits != mstats.Total || mstats.Executed != 0 {
				t.Fatalf("merged warm run not fully cached: %+v", mstats)
			}
			if !bytes.Equal(renderProofsJSON(t, full), golden) {
				t.Fatal("sharded-then-merged run differs from cold run")
			}
		})
	}
}

// TestProofShardPartition checks the proof-cell partition: disjoint,
// complete, index-preserving, deterministic.
func TestProofShardPartition(t *testing.T) {
	cells, err := ProofSpec{Families: []int{1, 2}, Seeds: []uint64{1, 2}}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 5; n++ {
		seen := make(map[int]bool)
		for i := 0; i < n; i++ {
			part, err := shard(cells, ShardSel{Index: i, Count: n}, proofKind.sameGroup)
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
	if _, err := shard(cells, ShardSel{Index: 2, Count: 2}, proofKind.sameGroup); err == nil {
		t.Fatal("out-of-range proof shard index accepted")
	}
}

// TestProofMatrixModelVariants: the paper's verdict structure holds on
// every registered model variant — full protection proves, every
// ablation refutes with a witness.
func TestProofMatrixModelVariants(t *testing.T) {
	m, err := RunProofMatrix(ProofSpec{Families: []int{1}, Random: 10}, ProofOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := len(ProofAblations()) * len(ProofModels())
	if len(m.Cells) != want {
		t.Fatalf("matrix has %d cells, want %d", len(m.Cells), want)
	}
	for _, c := range m.Cells {
		if c.Err != "" {
			t.Fatalf("cell %s/%s failed: %s", c.Model, c.Ablation, c.Err)
		}
		if c.Ablation == "full protection" {
			if !c.Proved {
				t.Errorf("%s/full protection must prove", c.Model)
			}
			if c.Witness != nil {
				t.Errorf("%s/full protection carries a witness", c.Model)
			}
			continue
		}
		if c.Proved {
			t.Errorf("%s/%s must refute", c.Model, c.Ablation)
		}
		if !c.BoundedProved && c.Witness == nil {
			t.Errorf("%s/%s refuted by bounded-NI without a witness", c.Model, c.Ablation)
		}
	}
}

// TestProofSpecErrors: unknown selectors are rejected with the
// available names listed.
func TestProofSpecErrors(t *testing.T) {
	if _, err := (ProofSpec{Models: []string{"nope"}}).Cells(); err == nil ||
		!strings.Contains(err.Error(), "base") {
		t.Fatalf("unknown model not rejected usefully: %v", err)
	}
	if _, err := (ProofSpec{Ablations: []string{"nope"}}).Cells(); err == nil ||
		!strings.Contains(err.Error(), "no flush") {
		t.Fatalf("unknown ablation not rejected usefully: %v", err)
	}
}

// TestSweepWarmProofs: a sweep with proofs over a store serves its
// proof cells warm on the second run, and both runs render identical
// reports.
func TestSweepWarmProofs(t *testing.T) {
	st := openStore(t)
	spec := Spec{Scenarios: []string{"T4"}, Rounds: 20, Proofs: true, ProofFamilies: 1, ProofRandom: 5}
	var cold CacheStats
	crep, err := Run(spec, Options{Store: st, Stats: &cold})
	if err != nil {
		t.Fatal(err)
	}
	if cold.ProofTotal == 0 || cold.ProofExecuted != cold.ProofTotal || cold.ProofStored != cold.ProofTotal {
		t.Fatalf("cold proof stats: %+v", cold)
	}
	var warm CacheStats
	wrep, err := Run(spec, Options{Store: st, Stats: &warm})
	if err != nil {
		t.Fatal(err)
	}
	if warm.ProofExecuted != 0 || warm.ProofHits != warm.ProofTotal {
		t.Fatalf("warm proof stats: %+v", warm)
	}
	if !bytes.Equal(renderJSON(t, crep), renderJSON(t, wrep)) {
		t.Fatal("warm sweep JSON differs from cold")
	}
	if !bytes.Equal(renderMarkdown(t, crep), renderMarkdown(t, wrep)) {
		t.Fatal("warm sweep Markdown differs from cold")
	}
}
