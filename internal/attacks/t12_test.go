package attacks

import "testing"

func TestT12Overheads(t *testing.T) {
	e := mustScenario("T12").Experiment(6, 42)
	t.Logf("\n%s", e)
	if len(e.Rows) != 4 {
		t.Fatalf("rows = %d", len(e.Rows))
	}
	if s := extraValue(e.Rows[0], "slowdown"); s != 1.0 {
		t.Fatalf("baseline slowdown = %f", s)
	}
	// Protection must cost something, and each stronger configuration
	// at least as much as the weaker one before it (allowing small
	// cache-alignment noise).
	prev := 1.0
	for _, r := range e.Rows[1:] {
		s := extraValue(r, "slowdown")
		if s < 1.0 {
			t.Errorf("%s: slowdown %f < 1", r.Label, s)
		}
		if s < prev*0.98 {
			t.Errorf("%s: slowdown %f regressed below %f", r.Label, s, prev)
		}
		prev = s
	}
	if prev < 1.02 {
		t.Errorf("full protection should cost at least a few percent, got %f", prev)
	}
}
