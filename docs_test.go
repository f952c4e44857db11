package timeprot

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"timeprot/internal/attacks"
	"timeprot/internal/experiment"
)

// TestDocsCoverRegistry is the registry-completeness check: every
// static scenario must be documented in EXPERIMENTS.md (a result table)
// and DESIGN.md (the layer-3 inventory); every dynamically registered
// discovery (the fuzzer's F-scenarios) must be documented in the
// generated DISCOVERIES.md instead — the static tables stay pure
// functions of the static registry. A scenario that ships without
// documentation — or a doc table that outlives a removed scenario —
// fails here, so the docs pipeline cannot drift from the code. The
// byte-level drift check (regenerating EXPERIMENTS.md from the
// committed sweep store and comparing) runs in CI's docs job.
func TestDocsCoverRegistry(t *testing.T) {
	experiments := readDoc(t, "EXPERIMENTS.md")
	design := readDoc(t, "DESIGN.md")
	discoveries := readDoc(t, "DISCOVERIES.md")
	for _, s := range attacks.Scenarios() {
		if s.Dynamic {
			if !strings.Contains(discoveries, "| "+s.ID+" | "+s.Name+" | ") {
				t.Errorf("DISCOVERIES.md has no table row for %s (%s)", s.ID, s.Name)
			}
			if !strings.Contains(discoveries, "### "+s.ID+" — ") {
				t.Errorf("DISCOVERIES.md has no witness detail for %s (%s)", s.ID, s.Name)
			}
			for _, v := range s.Variants {
				if !strings.Contains(discoveries, "`"+v.Label+"`") {
					t.Errorf("DISCOVERIES.md entry for %s is missing variant %q", s.ID, v.Label)
				}
			}
			continue
		}
		if !strings.Contains(experiments, "## "+s.ID+" — ") {
			t.Errorf("EXPERIMENTS.md has no result table for %s (%s)", s.ID, s.Name)
		}
		if !strings.Contains(design, s.ID) {
			t.Errorf("DESIGN.md does not mention %s (%s)", s.ID, s.Name)
		}
		for _, v := range s.Variants {
			if !strings.Contains(experiments, "| "+v.Label+" |") {
				t.Errorf("EXPERIMENTS.md table for %s is missing variant %q", s.ID, v.Label)
			}
		}
	}
}

// TestDiscoveriesDocMatchesCommitted: DISCOVERIES.md must be the exact
// rendering of the embedded discoveries.json — the generated doc cannot
// drift from the committed campaign output.
func TestDiscoveriesDocMatchesCommitted(t *testing.T) {
	ds, err := CommittedDiscoveries()
	if err != nil {
		t.Fatalf("CommittedDiscoveries: %v", err)
	}
	var want strings.Builder
	if err := WriteDiscoveriesMD(&want, ds); err != nil {
		t.Fatalf("WriteDiscoveriesMD: %v", err)
	}
	if got := readDoc(t, "DISCOVERIES.md"); got != want.String() {
		t.Error("DISCOVERIES.md is stale; regenerate with: go run ./cmd/tpfuzz -md DISCOVERIES.md")
	}
}

// TestExperimentsRegenCommand: the committed EXPERIMENTS.md must embed
// the exact command that regenerates it — the contract the CI doc-drift
// job replays against the committed sweep store.
func TestExperimentsRegenCommand(t *testing.T) {
	experiments := readDoc(t, "EXPERIMENTS.md")
	if !strings.Contains(experiments, "go run ./cmd/tpbench") ||
		!strings.Contains(experiments, "-md EXPERIMENTS.md") {
		t.Error("EXPERIMENTS.md does not embed its regeneration command")
	}
}

// TestDocsCoverProofRegistry is the proof-side completeness check:
// every registered ablation row must appear as a table row of PROOFS.md
// and be named in DESIGN.md, every registered model variant must head a
// PROOFS.md section, and every refuted PROOFS.md row must carry a
// witness listing. A proof configuration that ships without
// documentation — or a doc that outlives a removed one — fails here.
func TestDocsCoverProofRegistry(t *testing.T) {
	proofs := readDoc(t, "PROOFS.md")
	design := readDoc(t, "DESIGN.md")
	for _, a := range experiment.ProofAblations() {
		if !strings.Contains(proofs, "| "+a.Name+" |") {
			t.Errorf("PROOFS.md has no table row for ablation %q", a.Name)
		}
		if !strings.Contains(design, a.Name) {
			t.Errorf("DESIGN.md does not mention ablation %q", a.Name)
		}
		if a.Name != "full protection" && !strings.Contains(proofs, "#### "+a.Name) {
			t.Errorf("PROOFS.md has no witness listing for refuted ablation %q", a.Name)
		}
	}
	for _, m := range experiment.ProofModels() {
		if !strings.Contains(proofs, "## Model `"+m.Name+"`") {
			t.Errorf("PROOFS.md has no section for model variant %q", m.Name)
		}
		if !strings.Contains(design, m.Name) {
			t.Errorf("DESIGN.md does not mention model variant %q", m.Name)
		}
	}
	if !strings.Contains(proofs, experiment.ProverFingerprint()) {
		t.Error("PROOFS.md does not embed the prover fingerprint")
	}
}

// TestProofsRegenCommand: PROOFS.md must embed the exact tpprove
// command that regenerates it, and EXPERIMENTS.md's T1 section must
// cross-reference PROOFS.md (the two documents are two renderings of
// one committed store).
func TestProofsRegenCommand(t *testing.T) {
	proofs := readDoc(t, "PROOFS.md")
	if !strings.Contains(proofs, "go run ./cmd/tpprove") ||
		!strings.Contains(proofs, "-md PROOFS.md") {
		t.Error("PROOFS.md does not embed its regeneration command")
	}
	experiments := readDoc(t, "EXPERIMENTS.md")
	start := strings.Index(experiments, "## T1")
	if start < 0 {
		t.Fatal("EXPERIMENTS.md has no §T1 section")
	}
	t1 := experiments[start:]
	if i := strings.Index(t1[3:], "## "); i >= 0 {
		t1 = t1[:i+3]
	}
	if !strings.Contains(t1, "PROOFS.md") {
		t.Error("EXPERIMENTS.md §T1 does not cross-reference PROOFS.md")
	}
}

// TestProofsColdRegen regenerates PROOFS.md cold — every proof cell
// executed, no store — from the exact spec of its embedded tpprove
// command (all ablations × all models, 5 families, 200 random
// programs, seed 42) and requires the committed document byte for byte.
// golden_proofs.json pins only the base model cold; this is the cold
// pin of every model's lemma counts, witnesses and bounded verdicts, so
// a prover optimisation that changes any of them fails here rather than
// hiding behind a warm store replay.
func TestProofsColdRegen(t *testing.T) {
	m, err := experiment.RunProofMatrix(experiment.ProofSpec{
		Ablations: []string{"all"},
		Models:    []string{"all"},
		Families:  []int{5},
		Random:    200,
		Seeds:     []uint64{42},
	}, experiment.ProofOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := experiment.WriteProofsMarkdown(&buf, m); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), readDoc(t, "PROOFS.md"); got != want {
		t.Errorf("cold regeneration differs from the committed PROOFS.md:\n%s", firstLineDiff(got, want))
	}
}

// TestExperimentsColdRegen regenerates EXPERIMENTS.md cold — every
// sweep and proof cell executed, no store — from the exact spec of its
// embedded tpbench command (every static scenario, 60 rounds, seed 42,
// the T1 proof matrix at the flag defaults) and requires the committed
// document byte for byte. golden_sweep.json pins only T4, T11 and T12
// cold and CI's docs job replays the rest from a warm store; this is
// the cold pin of every scenario's rows, so a refactor of any attack
// that changes a single byte fails here rather than hiding behind the
// store.
func TestExperimentsColdRegen(t *testing.T) {
	rep, err := RunSweep(SweepSpec{
		Scenarios:     []string{"all"},
		Rounds:        60,
		Seeds:         []uint64{42},
		Trials:        1,
		Proofs:        true,
		ProofFamilies: 5,
		ProofRandom:   200,
	}, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSweepMarkdown(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), readDoc(t, "EXPERIMENTS.md"); got != want {
		t.Errorf("cold regeneration differs from the committed EXPERIMENTS.md:\n%s", firstLineDiff(got, want))
	}
}

// firstLineDiff names the first line at which two documents differ.
func firstLineDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("length: got %d lines, want %d", len(g), len(w))
}

// TestDocsCoverConformance is the conformance-side completeness check:
// DESIGN.md must document the conformance layer, README.md must carry
// the tpconform quickstart, every conformance ablation and model
// variant must be named in DESIGN.md, and both docs must name the
// three-way verdict taxonomy. A conformance configuration that ships
// without documentation fails here, exactly like a scenario or proof
// row would.
func TestDocsCoverConformance(t *testing.T) {
	design := readDoc(t, "DESIGN.md")
	readme := readDoc(t, "README.md")
	for _, doc := range []struct{ name, body string }{
		{"DESIGN.md", design},
		{"README.md", readme},
	} {
		for _, want := range []string{"internal/conform", "cmd/tpconform", "sound", "conservative", "soundness violation"} {
			if !strings.Contains(doc.body, want) {
				t.Errorf("%s does not mention %q", doc.name, want)
			}
		}
	}
	for _, a := range experiment.ConformAblations() {
		if !strings.Contains(design, a.Name) {
			t.Errorf("DESIGN.md does not mention conformance ablation %q", a.Name)
		}
	}
	for _, m := range experiment.ProofModels() {
		if !strings.Contains(design, m.Name) {
			t.Errorf("DESIGN.md does not mention model variant %q (conformance runs all variants)", m.Name)
		}
	}
	if !strings.Contains(design, experiment.ConformFingerprint()) {
		t.Error("DESIGN.md does not embed the conformance fingerprint")
	}
	if !strings.Contains(readme, "RunConformance") {
		t.Error("README.md does not name the RunConformance entry point")
	}
}

// TestDocsCoverService is the service-side completeness check: both
// README.md and DESIGN.md must document the sweep service — the binary,
// the package, the submit endpoint, and the singleflight dedup
// mechanism — and DESIGN.md must carry the Layer 7 inventory with the
// dedup invariant spelled out. A service change that ships without
// documentation fails here, exactly like a scenario or proof row would.
func TestDocsCoverService(t *testing.T) {
	design := readDoc(t, "DESIGN.md")
	readme := readDoc(t, "README.md")
	for _, doc := range []struct{ name, body string }{
		{"DESIGN.md", design},
		{"README.md", readme},
	} {
		for _, want := range []string{"cmd/tpserved", "internal/serve", "singleflight", "/v1/jobs", "dedup invariant", "byte identity"} {
			if !strings.Contains(doc.body, want) {
				t.Errorf("%s does not mention %q", doc.name, want)
			}
		}
	}
	for _, want := range []string{
		"## Layer 7",
		"internal/serve/loadtest",
		"distinct submitted keys",
	} {
		if !strings.Contains(design, want) {
			t.Errorf("DESIGN.md does not contain %q", want)
		}
	}
	if !strings.Contains(readme, "-selftest") {
		t.Error("README.md does not document tpserved -selftest")
	}
}

func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatalf("reading %s: %v", name, err)
	}
	return string(b)
}
