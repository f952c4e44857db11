package attacks

import (
	"math"
	"strings"
	"testing"
)

// The attack-suite tests assert the *shape* of each experiment: which
// configurations demonstrate a channel and which close it. Absolute
// capacities vary with parameters; the leak verdicts must not.

const testSeed = 42

// wantLeaks asserts each row's leak verdict in order.
func wantLeaks(t *testing.T, e Experiment, want []bool) {
	t.Helper()
	if len(e.Rows) != len(want) {
		t.Fatalf("%s: %d rows, want %d\n%s", e.ID, len(e.Rows), len(want), e)
	}
	for i, w := range want {
		if got := e.Rows[i].Leaks(); got != w {
			t.Errorf("%s row %q: leaks=%v, want %v\n%s", e.ID, e.Rows[i].Label, got, w, e)
		}
	}
	t.Logf("\n%s", e)
}

func TestT2L1PrimeProbe(t *testing.T) {
	e := mustScenario("T2").Experiment(40, testSeed)
	wantLeaks(t, e, []bool{true, false, false})
	// The unprotected channel must be high-capacity: the paper calls
	// set-index channels "potentially high bandwidth". 4 symbols = up
	// to 2 bits.
	if e.Rows[0].Est.CapacityBits < 1.0 {
		t.Errorf("unprotected L1 channel too weak: %v", e.Rows[0].Est)
	}
	if e.Rows[0].ErrRate > 0.2 {
		t.Errorf("unprotected decode error rate too high: %f", e.Rows[0].ErrRate)
	}
}

func TestT3LLCPrimeProbe(t *testing.T) {
	e := mustScenario("T3").Experiment(40, testSeed)
	wantLeaks(t, e, []bool{true, true, false})
	// Flushing must NOT help against the concurrent channel: its
	// capacity stays within 25% of the unprotected one.
	un, fl := e.Rows[0].Est.CapacityBits, e.Rows[1].Est.CapacityBits
	if fl < un*0.75 {
		t.Errorf("flush+pad should not reduce the concurrent LLC channel: %f vs %f", fl, un)
	}
}

func TestT4FlushLatency(t *testing.T) {
	e := mustScenario("T4").Experiment(40, testSeed)
	wantLeaks(t, e, []bool{true, false})
	// Dirty-count modulation over 4 symbols should approach 2 bits
	// without padding.
	if e.Rows[0].Est.CapacityBits < 1.5 {
		t.Errorf("unpadded flush-latency channel too weak: %v", e.Rows[0].Est)
	}
}

func TestT5KernelImage(t *testing.T) {
	e := mustScenario("T5").Experiment(40, testSeed)
	wantLeaks(t, e, []bool{true, false})
}

func TestT6IRQ(t *testing.T) {
	e := mustScenario("T6").Experiment(40, testSeed)
	wantLeaks(t, e, []bool{true, false})
}

func TestT7SMT(t *testing.T) {
	e := mustScenario("T7").Experiment(40, testSeed)
	wantLeaks(t, e, []bool{true, false})
	// Note the first row runs flush+colour and still leaks ~1 bit:
	// the paper's "hyperthreading is fundamentally insecure".
	if e.Rows[0].Est.CapacityBits < 0.5 {
		t.Errorf("SMT channel too weak: %v", e.Rows[0].Est)
	}
}

func TestT8Bus(t *testing.T) {
	e := mustScenario("T8").Experiment(40, testSeed)
	wantLeaks(t, e, []bool{true, true, false, false})
	// MBA attenuates: both capacity and raw amplitude must drop.
	if e.Rows[1].Est.CapacityBits >= e.Rows[0].Est.CapacityBits {
		t.Errorf("MBA did not attenuate capacity: %f -> %f",
			e.Rows[0].Est.CapacityBits, e.Rows[1].Est.CapacityBits)
	}
	amp := func(r Row) float64 {
		for _, kv := range r.Extra {
			if kv.K == "amplitude_cyc" {
				return kv.V
			}
		}
		return math.NaN()
	}
	if amp(e.Rows[1]) >= amp(e.Rows[0]) {
		t.Errorf("MBA did not attenuate amplitude: %f -> %f", amp(e.Rows[0]), amp(e.Rows[1]))
	}
}

func TestT9Downgrader(t *testing.T) {
	e := mustScenario("T9").Experiment(150, testSeed)
	wantLeaks(t, e, []bool{true, true, false, false})
	util := func(r Row) float64 {
		for _, kv := range r.Extra {
			if kv.K == "hi_utilisation" {
				return kv.V
			}
		}
		return math.NaN()
	}
	// §4.3: busy-loop padding is "very wastive"; the interim process
	// recovers the utilisation.
	if util(e.Rows[3]) < util(e.Rows[2])+0.3 {
		t.Errorf("interim process should recover utilisation: busy=%f interim=%f",
			util(e.Rows[2]), util(e.Rows[3]))
	}
}

func TestT11PaddingSufficiency(t *testing.T) {
	e := mustScenario("T11").Experiment(20, testSeed)
	get := func(r Row, k string) float64 {
		for _, kv := range r.Extra {
			if kv.K == k {
				return kv.V
			}
		}
		return math.NaN()
	}
	good, bad := e.Rows[0], e.Rows[1]
	if get(good, "overruns") != 0 {
		t.Errorf("sufficient pad must not overrun: %v", good.Extra)
	}
	if get(bad, "overruns") == 0 {
		t.Errorf("insufficient pad must be detected as overruns: %v", bad.Extra)
	}
	if get(good, "max_switch_work") > get(good, "pad") {
		t.Errorf("measured switch work exceeds the 'sufficient' pad: %v", good.Extra)
	}
	if get(good, "distinct_deltas") > get(bad, "distinct_deltas") {
		t.Errorf("sufficient pad should give fewer dispatch deltas: %v vs %v", good.Extra, bad.Extra)
	}
	t.Logf("\n%s", e)
}

func TestLabelAlignment(t *testing.T) {
	var syms SymLog
	var obs ObsLog
	syms.Commit(100, 1)
	syms.Commit(200, 2)
	syms.Commit(300, 3)
	obs.Record(50, 0.5)  // before first commit: dropped
	obs.Record(150, 1.5) // labelled 1
	obs.Record(200, 2.0) // labelled 2 (at-or-before)
	obs.Record(999, 9.9) // labelled 3
	labels, vals := Label(&syms, &obs, 0)
	if len(labels) != 3 || labels[0] != 1 || labels[1] != 2 || labels[2] != 3 {
		t.Fatalf("labels = %v", labels)
	}
	if vals[0] != 1.5 || vals[1] != 2.0 || vals[2] != 9.9 {
		t.Fatalf("vals = %v", vals)
	}
	// Warmup trimming.
	labels, vals = Label(&syms, &obs, 2)
	if len(labels) != 1 || labels[0] != 3 || vals[0] != 9.9 {
		t.Fatalf("warmup trim: labels=%v vals=%v", labels, vals)
	}
	// No commits: nothing labelled.
	var empty SymLog
	if l, _ := Label(&empty, &obs, 0); l != nil {
		t.Fatal("no commits must label nothing")
	}
}

func TestSymbolSeqDeterministicAndInRange(t *testing.T) {
	a := SymbolSeq(100, 4, 7)
	b := SymbolSeq(100, 4, 7)
	diff := SymbolSeq(100, 4, 8)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give same sequence")
		}
		if a[i] < 0 || a[i] >= 4 {
			t.Fatalf("symbol %d out of range", a[i])
		}
		if a[i] != diff[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestShuffledOffsetsCoverAllSteps(t *testing.T) {
	offs := NewCellContext().shuffledOffsets(64, 2, 9)
	if len(offs) != 32 {
		t.Fatalf("len = %d, want 32", len(offs))
	}
	seen := make(map[int]bool)
	sequential := true
	for i, o := range offs {
		if o%2 != 0 || o < 0 || o >= 64 {
			t.Fatalf("bad offset %d", o)
		}
		if seen[o] {
			t.Fatalf("duplicate offset %d", o)
		}
		seen[o] = true
		if i > 0 && o != offs[i-1]+2 {
			sequential = false
		}
	}
	if sequential {
		t.Fatal("offsets must be shuffled, not sequential")
	}
}

func TestExperimentString(t *testing.T) {
	e := Experiment{ID: "TX", Title: "test", Rows: []Row{
		{Label: "a", ErrRate: 0.5},
		{Label: "b", ErrRate: math.NaN(), Extra: []KV{{K: "k", V: 1}}},
	}}
	s := e.String()
	for _, want := range []string{"TX", "test", "a", "b", "k=1.000", "0.500"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q:\n%s", want, s)
		}
	}
}

func TestT13BranchPredictor(t *testing.T) {
	e := mustScenario("T13").Experiment(40, testSeed)
	wantLeaks(t, e, []bool{true, false})
	// A binary aliased-counter channel should run near 1 bit.
	if e.Rows[0].Est.CapacityBits < 0.7 {
		t.Errorf("BP channel too weak: %v", e.Rows[0].Est)
	}
}

func TestT14TLB(t *testing.T) {
	e := mustScenario("T14").Experiment(40, testSeed)
	wantLeaks(t, e, []bool{true, false})
}
