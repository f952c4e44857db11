package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"timeprot/internal/attacks"
)

// WriteJSON serialises the report as indented, machine-readable JSON.
// The byte stream is a pure function of the spec.
func WriteJSON(w io.Writer, r *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// sameGroup reports whether two cells belong to the same finalisation
// group. It is the single definition of the group key: the reporters,
// cross-row finalisation, and shard partitioning all split on it, so
// a change here re-partitions all three together.
func sameGroup(a, b Cell) bool {
	return a.ScenarioID == b.ScenarioID &&
		a.BaseSeed == b.BaseSeed &&
		a.Trial == b.Trial
}

// cellGroups splits results into their contiguous (scenario, seed,
// trial) groups, preserving matrix order.
func cellGroups(cells []CellResult) []cellGroup {
	return groupBounds(cells, func(a, b CellResult) bool { return sameGroup(a.Cell, b.Cell) })
}

// groups splits the report's cells into their matrix groups.
func (r *Report) groups() []cellGroup { return cellGroups(r.Cells) }

// multiSeed reports whether the sweep has more than one seed point.
func (r *Report) multiSeed() bool {
	return len(r.Spec.Seeds)*maxInt(r.Spec.Trials, 1) > 1
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// RegenCommand returns the tpbench invocation that regenerates this
// report (and, with -md, the Markdown document rendering it).
func (r *Report) RegenCommand() string {
	var b strings.Builder
	b.WriteString("go run ./cmd/tpbench")
	sweep := "all"
	if len(r.Spec.Scenarios) > 0 {
		sweep = strings.Join(r.Spec.Scenarios, ",")
	}
	fmt.Fprintf(&b, " -sweep %s", sweep)
	if len(r.Spec.Variants) > 0 {
		fmt.Fprintf(&b, " -variants %q", strings.Join(r.Spec.Variants, ","))
	}
	fmt.Fprintf(&b, " -rounds %d", r.Spec.Rounds)
	if len(r.Spec.Seeds) == 1 {
		fmt.Fprintf(&b, " -seed %d", r.Spec.Seeds[0])
	} else {
		seeds := make([]string, len(r.Spec.Seeds))
		for i, s := range r.Spec.Seeds {
			seeds[i] = fmt.Sprint(s)
		}
		fmt.Fprintf(&b, " -seeds %s", strings.Join(seeds, ","))
	}
	if r.Spec.Trials > 1 {
		fmt.Fprintf(&b, " -trials %d", r.Spec.Trials)
	}
	if r.Spec.CIHalfWidth > 0 {
		fmt.Fprintf(&b, " -ci %g", r.Spec.CIHalfWidth)
		if r.Spec.MaxRounds != DefaultMaxRoundsFactor*r.Spec.Rounds {
			fmt.Fprintf(&b, " -max-rounds %d", r.Spec.MaxRounds)
		}
	}
	if !r.Spec.Proofs {
		b.WriteString(" -proofs=false")
	} else {
		if r.Spec.ProofFamilies != 5 {
			fmt.Fprintf(&b, " -families %d", r.Spec.ProofFamilies)
		}
		if r.Spec.ProofRandom != 200 {
			fmt.Fprintf(&b, " -random %d", r.Spec.ProofRandom)
		}
	}
	b.WriteString(" -md EXPERIMENTS.md -out results.json")
	return b.String()
}

// fmtFloat renders a measurement value compactly for tables.
func fmtFloat(v float64) string {
	if v == float64(int64(v)) && v < 1e12 && v > -1e12 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.3f", v)
}

// extraString renders a row's scenario-specific metrics.
func extraString(extra []attacks.KV, sep string) string {
	parts := make([]string, 0, len(extra))
	for _, kv := range extra {
		parts = append(parts, fmt.Sprintf("%s=%s", kv.K, fmtFloat(kv.V)))
	}
	return strings.Join(parts, sep)
}

// WriteMarkdown renders the report as the EXPERIMENTS.md document:
// regeneration command, aISA contract, the T1 proof matrix (when run),
// and one attack × mitigation table per scenario.
func WriteMarkdown(w io.Writer, r *Report) error {
	var b strings.Builder

	b.WriteString("# EXPERIMENTS — reproduced results\n\n")
	b.WriteString("Reproduction of the evaluation of *\"Can We Prove Time Protection?\"*\n")
	b.WriteString("(Heiser, Klein, Murray — HotOS 2019) on the simulated platform.\n\n")
	b.WriteString("This file is generated by the sweep engine's Markdown reporter —\n")
	b.WriteString("do not edit the tables by hand. Regenerate with:\n\n")
	fmt.Fprintf(&b, "```sh\n%s\n```\n\n", r.RegenCommand())
	fmt.Fprintf(&b, "Sweep parameters: rounds=%d, seeds=%v, trials=%d. A row **leaks** when\n",
		r.Spec.Rounds, r.Spec.Seeds, maxInt(r.Spec.Trials, 1))
	fmt.Fprintf(&b, "its measured capacity exceeds the shuffled-label noise floor by more\nthan %.2f bits per use. ", attacks.LeakMargin)
	b.WriteString("The CI column is the 95% bootstrap confidence\ninterval on the capacity; rounds is the effective rounds behind the\nestimate.\n\n")
	if r.Spec.CIHalfWidth > 0 {
		fmt.Fprintf(&b, "Adaptive sampling is armed: each cell climbed a doubling rounds\nladder and stopped once its capacity CI half-width fell to %g bits\n(cap: %d requested rounds).\n\n",
			r.Spec.CIHalfWidth, r.Spec.MaxRounds)
	}

	b.WriteString("## aISA hardware–software contract (Ge et al. 2018)\n\n")
	b.WriteString("| requirement | verdict | detail |\n|---|---|---|\n")
	for _, it := range r.Contract.Items {
		verdict := "PASS"
		if !it.Satisfied {
			verdict = "FAIL"
		}
		fmt.Fprintf(&b, "| %s | %s | %s |\n", it.Name, verdict, it.Detail)
	}
	b.WriteString("\n")

	if len(r.Proofs) > 0 {
		b.WriteString("## T1 — proving time protection over the abstract model (§5)\n\n")
		fmt.Fprintf(&b, "Unwinding-lemma case analysis plus bounded noninterference over\nsampled time-function families (families=%d, extra random programs=%d).\n",
			r.Spec.ProofFamilies, r.Spec.ProofRandom)
		b.WriteString("The full proof matrix — every ablation over every abstract-model\nvariant, with the minimal counterexample witness behind each refuted\nrow — is generated into [PROOFS.md](PROOFS.md) from the same committed\nstore.\n\n")
		b.WriteString("| configuration |")
		for _, c := range r.Proofs[0].Cases {
			fmt.Fprintf(&b, " %s |", c.Name)
		}
		b.WriteString(" bounded-NI | pad overruns | result |\n|---|")
		for range r.Proofs[0].Cases {
			b.WriteString("---|")
		}
		b.WriteString("---|---|---|\n")
		for _, p := range r.Proofs {
			fmt.Fprintf(&b, "| %s |", p.Name)
			for _, c := range p.Cases {
				v := "holds"
				if !c.Holds {
					v = "**fails**"
				}
				fmt.Fprintf(&b, " %s (%d) |", v, c.Checked)
			}
			bni := "agree"
			if !p.BoundedProved {
				bni = "**diverge**"
			}
			result := "PROVED"
			if !p.Proved {
				result = "refuted"
			}
			fmt.Fprintf(&b, " %s (%d runs) | %d | %s |\n", bni, p.BoundedRuns, p.PadOverruns, result)
		}
		b.WriteString("\n")
	}

	multiSeed := r.multiSeed()
	lastScenario := ""
	for _, g := range r.groups() {
		first := r.Cells[g.start]
		if first.ScenarioID != lastScenario {
			if lastScenario != "" {
				b.WriteString("\n")
			}
			lastScenario = first.ScenarioID
			fmt.Fprintf(&b, "## %s — %s\n\n", first.ScenarioID, first.Title)
			b.WriteString("| configuration |")
			if multiSeed {
				b.WriteString(" seed |")
			}
			b.WriteString(" capacity (b/use) | 95% CI | floor (b/use) | err-rate | rounds | leaks | extra |\n")
			b.WriteString("|---|")
			if multiSeed {
				b.WriteString("---|")
			}
			b.WriteString("---|---|---|---|---|---|---|\n")
		}
		for _, c := range r.Cells[g.start:g.end] {
			if c.Err != "" {
				fmt.Fprintf(&b, "| %s |", c.Variant)
				if multiSeed {
					fmt.Fprintf(&b, " %d |", c.Seed)
				}
				fmt.Fprintf(&b, " error | | | | | | %s |\n", c.Err)
				continue
			}
			errRate := "—"
			if c.ErrRate != nil {
				errRate = fmt.Sprintf("%.3f", *c.ErrRate)
			}
			leaks := "no"
			if c.Leaks {
				leaks = "**YES**"
			}
			fmt.Fprintf(&b, "| %s |", c.Variant)
			if multiSeed {
				fmt.Fprintf(&b, " %d |", c.Seed)
			}
			fmt.Fprintf(&b, " %.4f | [%.4f, %.4f] | %.4f | %s | %d | %s | %s |\n",
				c.CapacityBits, c.CILow, c.CIHigh, c.FloorBits, errRate, c.EffRounds, leaks, extraString(c.Extra, ", "))
		}
	}

	// Trailing per-scenario blank lines are already emitted above each
	// header; close the last table.
	b.WriteString("\n")
	b.WriteString("## Reading the tables\n\n")
	b.WriteString("Each scenario pits a Trojan in the Hi domain against a spy in the Lo\n")
	b.WriteString("domain across a shared hardware resource; `capacity` is the\n")
	b.WriteString("Blahut–Arimoto channel capacity of the spy's labelled observations,\n")
	b.WriteString("the CI is its 95% bootstrap confidence interval, and `floor` is the\n")
	b.WriteString("same estimator run on shuffled labels. A mitigation works when it\n")
	b.WriteString("drives the capacity down to the floor. Under adaptive sampling\n")
	b.WriteString("(`-ci`), `rounds` shows where each cell's ladder converged. See\n")
	b.WriteString("DESIGN.md for the scenario implementations and internal/experiment\n")
	b.WriteString("for the sweep engine that produced this file.\n")

	_, err := io.WriteString(w, b.String())
	return err
}

// WriteText renders the report as aligned text tables (the tpbench
// stdout format): contract, proofs, then one table per scenario group.
func WriteText(w io.Writer, r *Report) error {
	var b strings.Builder
	b.WriteString("aISA contract (full protection on the default platform):\n")
	b.WriteString(r.Contract.String())
	b.WriteString("\n")

	for _, p := range r.Proofs {
		verdict := "PROVED"
		if !p.Proved {
			verdict = "refuted"
		}
		fmt.Fprintf(&b, "T1 %-20s -> %s\n%s", p.Name, verdict, p.Report)
	}
	if len(r.Proofs) > 0 {
		b.WriteString("\n")
	}

	multiSeed := r.multiSeed()
	for _, g := range r.groups() {
		first := r.Cells[g.start]
		e := attacks.Experiment{ID: first.ScenarioID, Title: first.Title}
		if multiSeed {
			e.Title += fmt.Sprintf(" [seed %d]", first.Seed)
		}
		failed := ""
		for _, c := range r.Cells[g.start:g.end] {
			if c.Err != "" {
				failed += fmt.Sprintf("  %-28s ERROR: %s\n", c.Variant, c.Err)
				continue
			}
			e.Rows = append(e.Rows, c.Row())
		}
		b.WriteString(e.String())
		b.WriteString(failed)
		b.WriteString("\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}
