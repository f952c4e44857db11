package timeprot

import (
	"testing"
)

func TestPublicAPISystemLifecycle(t *testing.T) {
	pcfg := DefaultPlatform()
	pcfg.Cores = 1
	sys, err := NewSystem(SystemConfig{
		Platform:   pcfg,
		Protection: FullProtection(),
		Domains: []DomainSpec{
			{Name: "Hi", SliceCycles: 20_000, PadCycles: 8_000, Colors: ColorRange(1, 32), CodePages: 2, HeapPages: 4},
			{Name: "Lo", SliceCycles: 20_000, PadCycles: 8_000, Colors: ColorRange(32, 64), CodePages: 2, HeapPages: 4},
		},
		Schedule:    [][]int{{0, 1}},
		EnableTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	fm := NewFlushMonitor(sys)
	for d, name := range []string{"hi", "lo"} {
		i := uint64(0)
		if _, err := sys.SpawnProgram(d, name, 0, ProgramFunc(func(m *Machine) ProgramStatus {
			if i == 400 {
				return Done
			}
			i++
			return m.WriteHeap(((i - 1) * 64) % m.HeapBytes())
		})); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors) != 0 || rep.Deadlocked {
		t.Fatalf("bad run: %+v", rep)
	}
	inv := CheckInvariants(sys, fm)
	if !inv.Pass() {
		t.Fatalf("invariants failed:\n%s", inv)
	}
}

func TestRunExperimentUnknownID(t *testing.T) {
	if _, err := RunExperiment("T99", 10, 1); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunExperimentKnownIDs(t *testing.T) {
	// Just T4 (fast) to validate the dispatch plumbing; the full set
	// runs in internal/attacks and in the benchmarks.
	e, err := RunExperiment("T4", 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != "T4" || len(e.Rows) != 2 {
		t.Fatalf("experiment shape: %+v", e)
	}
}

func TestProofMatrixShape(t *testing.T) {
	m := ProofMatrix(1, 10, 7)
	if len(m) != 7 {
		t.Fatalf("matrix rows = %d, want 7", len(m))
	}
	if !m[0].Report.Proved() {
		t.Fatalf("full protection must prove:\n%s", m[0].Report)
	}
	for _, row := range m[1:] {
		if row.Report.Proved() {
			t.Errorf("ablation %q must not prove", row.Name)
		}
	}
}

func TestContractSurface(t *testing.T) {
	r := CheckContract(FullProtection(), DefaultPlatform())
	if !r.Satisfied() {
		t.Fatalf("default contract unsatisfied:\n%s", r)
	}
	bad := FullProtection()
	bad.PadSwitch = false
	if CheckContract(bad, DefaultPlatform()).Satisfied() {
		t.Fatal("flush-without-pad must violate the contract")
	}
}
