package attacks

import "testing"

func TestScenarioLookup(t *testing.T) {
	for _, key := range []string{"T2", "t2", "l1pp", "L1PP"} {
		s, ok := ScenarioByID(key)
		if !ok || s.ID != "T2" {
			t.Fatalf("lookup %q: ok=%v id=%q", key, ok, s.ID)
		}
	}
	if _, ok := ScenarioByID("T99"); ok {
		t.Fatal("unknown scenario resolved")
	}
}

func TestRegistryShape(t *testing.T) {
	wantIDs := []string{"T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9", "T11", "T12", "T13", "T14", "T15", "T16", "T17"}
	ids := ScenarioIDs()
	if len(ids) != len(wantIDs) {
		t.Fatalf("registry has %d scenarios, want %d", len(ids), len(wantIDs))
	}
	for i, id := range wantIDs {
		if ids[i] != id {
			t.Fatalf("registry order: ids[%d]=%q, want %q", i, ids[i], id)
		}
	}
	for _, s := range Scenarios() {
		if s.Name == "" || s.Title == "" || s.Rounds == nil || len(s.Variants) == 0 {
			t.Fatalf("scenario %s incomplete: %+v", s.ID, s)
		}
		if s.Version < 1 {
			t.Fatalf("scenario %s has no model-version tag (Version=%d); the sweep store cannot key its cells", s.ID, s.Version)
		}
		seen := make(map[string]bool)
		for _, v := range s.Variants {
			if v.Label == "" || v.run == nil {
				t.Fatalf("scenario %s has an incomplete variant", s.ID)
			}
			if seen[v.Label] {
				t.Fatalf("scenario %s has duplicate variant %q", s.ID, v.Label)
			}
			seen[v.Label] = true
			if _, ok := s.VariantByLabel(v.Label); !ok {
				t.Fatalf("scenario %s: VariantByLabel(%q) missed", s.ID, v.Label)
			}
		}
	}
}

func TestRoundsPolicy(t *testing.T) {
	cases := []struct {
		id        string
		requested int
		want      int
	}{
		{"T2", 5, 30},
		{"T2", 80, 80},
		{"T9", 60, 120},
		{"T11", 5, 20},
		{"T12", 60, 60/8 + 4},
	}
	for _, c := range cases {
		s, _ := ScenarioByID(c.id)
		if got := s.Rounds(c.requested); got != c.want {
			t.Errorf("%s.Rounds(%d) = %d, want %d", c.id, c.requested, got, c.want)
		}
	}
}

// TestExperimentMatchesVariantCells verifies the registry's core
// contract: a scenario's table is exactly its variants' cells run in
// order (so the sweep engine's per-cell results compose into the same
// tables).
func TestExperimentMatchesVariantCells(t *testing.T) {
	const rounds, seed = 30, 9
	s, _ := ScenarioByID("T4")
	e := s.Experiment(rounds, seed)
	if len(e.Rows) != len(s.Variants) {
		t.Fatalf("rows %d != variants %d", len(e.Rows), len(s.Variants))
	}
	for i, v := range s.Variants {
		row := v.Run(rounds, seed)
		if row.Label != e.Rows[i].Label || row.Est != e.Rows[i].Est {
			t.Fatalf("variant %q cell diverges from table row:\ncell: %+v\nrow:  %+v", v.Label, row, e.Rows[i])
		}
	}
}

// TestRunCustomMatchesVariant: a custom-configuration run of a
// variant's own configuration is that variant's cell, rounds metadata
// included — RunCustom is Variant.Run on a fresh context.
func TestRunCustomMatchesVariant(t *testing.T) {
	const rounds, seed = 30, 9
	s, _ := ScenarioByID("T4")
	for _, v := range s.Variants {
		if got, want := rowRepr(s.RunCustom(v.Label, v.Prot, rounds, seed)), rowRepr(v.Run(rounds, seed)); got != want {
			t.Errorf("%s: RunCustom diverges from the variant cell:\ncustom:  %s\nvariant: %s", v.Label, got, want)
		}
	}
}
