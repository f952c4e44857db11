package experiment

import (
	"bytes"
	"fmt"
	"io"
	"strings"

	"timeprot/internal/prove/nonintf"
)

// This file renders completed proof matrices: JSON for machines,
// Markdown for the committed PROOFS.md document, and aligned text for
// the tpprove CLI. Like the sweep reporters, every byte is a pure
// function of the matrix (itself a pure function of its spec), which is
// what lets CI regenerate PROOFS.md warm from the committed store and
// fail on any drift.

// WriteProofsJSON serialises the proof matrix as indented JSON.
func WriteProofsJSON(w io.Writer, m *ProofMatrix) error { return writeIndentedJSON(w, m) }

// proofGroup is one contiguous (model, families, seed) run of proof
// cells — one table of PROOFS.md.
type proofGroup struct {
	start, end int // half-open range into the cell slice
}

// sameProofGroup reports whether two cells share a reporting table.
func sameProofGroup(a, b ProofCell) bool {
	return a.Model == b.Model && a.Families == b.Families && a.Seed == b.Seed
}

// proofGroups splits cells into their contiguous reporting groups.
func proofGroups(cells []ProofCellResult) []proofGroup {
	var out []proofGroup
	for start := 0; start < len(cells); {
		end := start + 1
		for end < len(cells) && sameProofGroup(cells[end].ProofCell, cells[start].ProofCell) {
			end++
		}
		out = append(out, proofGroup{start, end})
		start = end
	}
	return out
}

// RegenCommand returns the tpprove invocation that regenerates this
// matrix (and, with -md, the Markdown document rendering it).
func (m *ProofMatrix) RegenCommand() string {
	var b strings.Builder
	b.WriteString("go run ./cmd/tpprove")
	if strings.Join(m.Spec.Ablations, ",") == strings.Join(proofAblationNames(), ",") {
		b.WriteString(" -ablations all")
	} else {
		fmt.Fprintf(&b, " -ablations %q", strings.Join(m.Spec.Ablations, ","))
	}
	if strings.Join(m.Spec.Models, ",") == strings.Join(proofModelNames(), ",") {
		b.WriteString(" -models all")
	} else {
		fmt.Fprintf(&b, " -models %q", strings.Join(m.Spec.Models, ","))
	}
	fams := make([]string, len(m.Spec.Families))
	for i, f := range m.Spec.Families {
		fams[i] = fmt.Sprint(f)
	}
	fmt.Fprintf(&b, " -families %s", strings.Join(fams, ","))
	fmt.Fprintf(&b, " -random %d", m.Spec.Random)
	if len(m.Spec.Seeds) == 1 {
		fmt.Fprintf(&b, " -seed %d", m.Spec.Seeds[0])
	} else {
		seeds := make([]string, len(m.Spec.Seeds))
		for i, s := range m.Spec.Seeds {
			seeds[i] = fmt.Sprint(s)
		}
		fmt.Fprintf(&b, " -seeds %s", strings.Join(seeds, ","))
	}
	b.WriteString(" -md PROOFS.md")
	return b.String()
}

// proofConfigLine renders a model configuration's sizing on one line.
func proofConfigLine(c ProofCellResult) string {
	return fmt.Sprintf("domains=%d, steps/slice=%d, slices=%d, alphabet=%d, digest mod=%d, pad budget=%d",
		c.Cfg.Domains, c.Cfg.StepsPerSlice, c.Cfg.Slices, c.Cfg.Alphabet, c.Cfg.DigestMod, c.Cfg.PadBudget)
}

// writeProofTable emits one group's verdict table (the T1 shape).
func writeProofTable(b *bytes.Buffer, cells []ProofCellResult) {
	var caseNames []string
	for _, c := range cells {
		if c.Err == "" {
			for _, cs := range c.Cases {
				caseNames = append(caseNames, cs.Name)
			}
			break
		}
	}
	b.WriteString("| configuration |")
	for _, n := range caseNames {
		fmt.Fprintf(b, " %s |", n)
	}
	b.WriteString(" bounded-NI | pad overruns | result |\n|---|")
	for range caseNames {
		b.WriteString("---|")
	}
	b.WriteString("---|---|---|\n")
	for _, c := range cells {
		if c.Err != "" {
			fmt.Fprintf(b, "| %s |", c.Ablation)
			for range caseNames {
				b.WriteString(" |")
			}
			fmt.Fprintf(b, " | | error: %s |\n", c.Err)
			continue
		}
		fmt.Fprintf(b, "| %s |", c.Ablation)
		for _, cs := range c.Cases {
			v := "holds"
			if !cs.Holds {
				v = "**fails**"
			}
			fmt.Fprintf(b, " %s (%d) |", v, cs.Checked)
		}
		bni := "agree"
		if !c.BoundedProved {
			bni = "**diverge**"
		}
		result := "PROVED"
		if !c.Proved {
			result = "refuted"
		}
		fmt.Fprintf(b, " %s (%d runs) | %d | %s |\n", bni, c.BoundedRuns, c.PadOverruns, result)
	}
}

// writeWitness emits one refuted cell's evidence: the minimal Hi pair,
// the diverging Lo traces, and any failed lemma witnesses.
func writeWitness(b *bytes.Buffer, c ProofCellResult) {
	fmt.Fprintf(b, "#### %s\n\n", c.Ablation)
	if w := c.Witness; w != nil {
		fmt.Fprintf(b, "Minimal divergent Hi program pair (family seed %d, shrunk in %d machine runs):\n\n",
			w.FamilySeed, w.ShrinkRuns)
		fmt.Fprintf(b, "- Hi-A: `%s`\n", nonintf.FormatActions(w.HiA))
		fmt.Fprintf(b, "- Hi-B: `%s`\n\n", nonintf.FormatActions(w.HiB))
		fmt.Fprintf(b, "Lo's observation traces diverge at its step %d:\n\n", w.Index)
		b.WriteString("| Lo step | clock under Hi-A | clock under Hi-B | IRQ under Hi-A | IRQ under Hi-B |\n")
		b.WriteString("|---|---|---|---|---|\n")
		irq := func(v bool) string {
			if v {
				return "yes"
			}
			return ""
		}
		for i := 0; i < len(w.ObsA) && i < len(w.ObsB); i++ {
			a, o := w.ObsA[i], w.ObsB[i]
			if i == w.Index {
				fmt.Fprintf(b, "| **%d** | **%d** | **%d** | %s | %s |\n", i, a.Clock, o.Clock, irq(a.IRQ), irq(o.IRQ))
				continue
			}
			fmt.Fprintf(b, "| %d | %d | %d | %s | %s |\n", i, a.Clock, o.Clock, irq(a.IRQ), irq(o.IRQ))
		}
		b.WriteString("\n")
	}
	var failed []ProofCase
	for _, cs := range c.Cases {
		if !cs.Holds {
			failed = append(failed, cs)
		}
	}
	if len(failed) > 0 {
		b.WriteString("Failed lemmas:\n\n")
		for _, cs := range failed {
			fmt.Fprintf(b, "- `%s`: %s\n", cs.Name, cs.Witness)
		}
		b.WriteString("\n")
	}
}

// WriteProofsMarkdown renders the matrix as the PROOFS.md document:
// regeneration command, prover fingerprint, one verdict table per
// (model, families, seed) group, and the counterexample witnesses
// behind every refuted row.
func WriteProofsMarkdown(w io.Writer, m *ProofMatrix) error {
	b := renderBuf()
	writeProofsMarkdown(b, m)
	return writeRendered(w, b)
}

func writeProofsMarkdown(b *bytes.Buffer, m *ProofMatrix) {
	b.WriteString("# PROOFS — machine-checking time protection (§5)\n\n")
	b.WriteString("The proof side of *\"Can We Prove Time Protection?\"* (Heiser, Klein,\n")
	b.WriteString("Murray — HotOS 2019), reproduced as experiment T1 and extended to a\n")
	b.WriteString("proof matrix: every single-mechanism ablation, over every registered\n")
	b.WriteString("abstract-model variant, quantified over sampled time-function\n")
	b.WriteString("families.\n\n")
	b.WriteString("This file is generated by the proof-matrix engine's Markdown\n")
	b.WriteString("reporter — do not edit the tables by hand. Regenerate with:\n\n")
	fmt.Fprintf(b, "```sh\n%s\n```\n\n", m.RegenCommand())
	fmt.Fprintf(b, "Prover fingerprint: `%s`.\n", ProverFingerprint())
	b.WriteString("Proof cells are cached in the content-addressed sweep store under\n")
	b.WriteString("this fingerprint: any semantic change to a prover layer bumps its\n")
	b.WriteString("model version, which re-keys — and forces re-proving of — every\n")
	b.WriteString("cell. Unchanged cells are served warm, byte-identically.\n\n")
	b.WriteString("Each cell checks the §5.2 unwinding lemmas by exhaustive enumeration\n")
	b.WriteString("(Case 1 user steps, Case 2a kernel entries, Case 2b the padded\n")
	b.WriteString("switch, interrupt partitioning, SMT live sharing), then bounded\n")
	b.WriteString("noninterference: every enumerable Hi slice program, plus the extra\n")
	b.WriteString("random programs, must yield the identical Lo observation trace for\n")
	b.WriteString("every sampled family. A **refuted** row carries a minimal\n")
	b.WriteString("counterexample witness below its table: a divergent Hi program pair\n")
	b.WriteString("shrunk until every remaining action is load-bearing, with the\n")
	b.WriteString("diverging Lo traces as evidence.\n")

	for _, g := range proofGroups(m.Cells) {
		first := m.Cells[g.start]
		title := first.Model
		if mv, ok := proofModelByName(first.Model); ok {
			title = fmt.Sprintf("`%s` — %s", mv.Name, mv.Title)
		}
		fmt.Fprintf(b, "\n## Model %s (families=%d, seed=%d)\n\n", title, first.Families, first.Seed)
		fmt.Fprintf(b, "Configuration: %s. Extra random Hi programs per cell: %d.\n\n",
			proofConfigLine(first), first.Random)
		writeProofTable(b, m.Cells[g.start:g.end])

		witnesses := false
		for _, c := range m.Cells[g.start:g.end] {
			if c.Err != "" || c.Proved {
				continue
			}
			if !witnesses {
				fmt.Fprintf(b, "\n### Witnesses — model `%s`, families=%d, seed=%d\n\n", first.Model, first.Families, first.Seed)
				witnesses = true
			}
			writeWitness(b, c)
		}
	}

	b.WriteString("## Reading this document\n\n")
	b.WriteString("Every mechanism of §4.2 is load-bearing: with all of them armed the\n")
	b.WriteString("case analysis holds and bounded noninterference agrees across every\n")
	b.WriteString("family (PROVED); remove any one and exactly the corresponding case\n")
	b.WriteString("fails, with a concrete minimal witness to show for it. The witness\n")
	b.WriteString("traces read as evidence: before the divergence step the two runs are\n")
	b.WriteString("indistinguishable to Lo; at it, the clock (or a stray interrupt)\n")
	b.WriteString("differs — a timing channel. EXPERIMENTS.md holds the measured\n")
	b.WriteString("(empirical) side of the same matrix; DESIGN.md \"Layer 4\" documents\n")
	b.WriteString("the prover architecture and the cell keying discipline.\n")
}

// WriteProofsText renders the matrix as the tpprove stdout format: one
// block per group, one verdict per cell with the full prover report.
func WriteProofsText(w io.Writer, m *ProofMatrix) error {
	var b strings.Builder
	for _, g := range proofGroups(m.Cells) {
		first := m.Cells[g.start]
		fmt.Fprintf(&b, "model %s — families=%d, random=%d, seed=%d\n",
			first.Model, first.Families, first.Random, first.Seed)
		for _, c := range m.Cells[g.start:g.end] {
			if c.Err != "" {
				fmt.Fprintf(&b, "  %-20s ERROR: %s\n", c.Ablation, c.Err)
				continue
			}
			verdict := "PROVED"
			if !c.Proved {
				verdict = "refuted"
			}
			fmt.Fprintf(&b, "  %-20s -> %s\n%s", c.Ablation, verdict, indent(c.Report().String(), "  "))
			if c.Witness != nil {
				fmt.Fprintf(&b, "    witness: Hi %s vs %s, Lo diverges at step %d\n",
					nonintf.FormatActions(c.Witness.HiA), nonintf.FormatActions(c.Witness.HiB), c.Witness.Index)
			}
		}
		b.WriteString("\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// indent prefixes every non-empty line.
func indent(s, prefix string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		if l != "" {
			lines[i] = prefix + l
		}
	}
	return strings.Join(lines, "\n")
}
