package invariant

import (
	"strings"
	"testing"

	"timeprot/internal/core"
	"timeprot/internal/hw/mem"
	"timeprot/internal/hw/platform"
	"timeprot/internal/kernel"
)

// protectedSystem builds a fully protected two-domain system with a
// write-heavy Hi workload and a mixed Lo workload.
func protectedSystem(t *testing.T, prot core.Config) (*kernel.System, *FlushMonitor) {
	t.Helper()
	pcfg := platform.DefaultConfig()
	pcfg.Cores = 1
	sys, err := kernel.NewSystem(kernel.SystemConfig{
		Platform:   pcfg,
		Protection: prot,
		Domains: []core.DomainSpec{
			{Name: "Hi", SliceCycles: 40_000, PadCycles: 15_000, Colors: mem.ColorRange(1, 32), IRQLines: []int{0}, CodePages: 4, HeapPages: 16},
			{Name: "Lo", SliceCycles: 40_000, PadCycles: 15_000, Colors: mem.ColorRange(32, 64), IRQLines: []int{1}, CodePages: 4, HeapPages: 16},
		},
		Schedule:    [][]int{{0, 1}},
		EnableTrace: true,
		MaxCycles:   80_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	fm := NewFlushMonitor(sys)
	// The Hi workload varies its per-slice dirty-line count so that an
	// unpadded switch would expose variable flush latency.
	// Each of its 16 rounds writes n lines, takes a syscall on even
	// rounds, starts IO every third round, then computes 150 steps.
	round, j := 0, 0
	if _, err := sys.SpawnProgram(0, "hi", 0, kernel.ProgramFunc(func(m *kernel.Machine) kernel.Status {
		for round < 16 {
			n := 20 + (round%4)*220
			k := j
			j++
			switch {
			case k < n:
				return m.WriteHeap(uint64(k*64) % m.HeapBytes())
			case k == n && round%2 == 0:
				return m.NullSyscall()
			case k == n+1 && round%3 == 0:
				return m.StartIO(0, 10_000)
			case k >= n+2 && k < n+152:
				return m.Compute(150)
			case k == n+152:
				round, j = round+1, 0
			}
		}
		return kernel.Done
	})); err != nil {
		t.Fatal(err)
	}
	i := 0
	if _, err := sys.SpawnProgram(1, "lo", 0, kernel.ProgramFunc(func(m *kernel.Machine) kernel.Status {
		if i == 2*1200 {
			return kernel.Done
		}
		k := uint64(i / 2)
		i++
		if i%2 == 1 {
			return m.ReadHeap((k * 128) % m.HeapBytes())
		}
		return m.Branch(k%256, k%3 == 0)
	})); err != nil {
		t.Fatal(err)
	}
	return sys, fm
}

func runAndCheck(t *testing.T, prot core.Config) Report {
	t.Helper()
	sys, fm := protectedSystem(t, prot)
	rep, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range rep.Errors {
		t.Fatal(e)
	}
	return CheckSystem(sys, fm)
}

// TestFullProtectionInvariantsHold is the refinement side of the proof:
// the concrete kernel actually establishes every functional property the
// abstract model assumes.
func TestFullProtectionInvariantsHold(t *testing.T) {
	r := runAndCheck(t, core.FullProtection())
	if !r.Pass() {
		t.Fatalf("invariants violated under full protection:\n%s", r)
	}
	if len(r.Findings) < 5 {
		t.Fatalf("expected all checkers to run, got %d findings:\n%s", len(r.Findings), r)
	}
}

func TestFlushMonitorDetectsMissingFlush(t *testing.T) {
	prot := core.FullProtection()
	prot.FlushOnSwitch = false
	sys, fm := protectedSystem(t, prot)
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	// With flushing disabled the inspector still runs at switches and
	// must see non-reset state.
	f := fm.Finding()
	if f.Pass {
		t.Fatal("flush monitor passed with flushing disabled")
	}
}

func TestPaddingCheckerDetectsUnpadded(t *testing.T) {
	prot := core.FullProtection()
	prot.PadSwitch = false
	sys, _ := protectedSystem(t, prot)
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	f := CheckPadding(sys)
	if f.Pass {
		t.Fatalf("padding checker passed without padding:\n%+v", f)
	}
}

func TestPartitionCheckerDetectsSharedKernel(t *testing.T) {
	prot := core.FullProtection()
	prot.CloneKernel = false
	sys, _ := protectedSystem(t, prot)
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	// The shared kernel image occupies user colours: both the
	// partitioning invariant and clone disjointness must fail.
	if f := CheckPartitioning(sys); f.Pass {
		t.Fatalf("partition checker missed shared kernel text:\n%+v", f)
	}
	if f := CheckCloneDisjoint(sys); f.Pass {
		t.Fatalf("clone checker missed shared image:\n%+v", f)
	}
}

func TestIRQCheckerDetectsUnpartitioned(t *testing.T) {
	prot := core.FullProtection()
	prot.PartitionIRQs = false
	sys, _ := protectedSystem(t, prot)
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	f := CheckIRQPartition(sys)
	if f.Pass {
		t.Fatalf("IRQ checker passed without partitioning:\n%+v", f)
	}
}

func TestTLBTheoremFinding(t *testing.T) {
	f := CheckTLBTheorem(30, 7)
	if !f.Pass {
		t.Fatalf("TLB theorem violated: %+v", f)
	}
	if f.Detail == "" {
		t.Fatal("empty detail")
	}
}

func TestPaddingCheckerRequiresTrace(t *testing.T) {
	pcfg := platform.DefaultConfig()
	pcfg.Cores = 1
	sys, err := kernel.NewSystem(kernel.SystemConfig{
		Platform:   pcfg,
		Protection: core.FullProtection(),
		Domains: []core.DomainSpec{
			{Name: "A", SliceCycles: 1000, Colors: mem.ColorRange(1, 2), CodePages: 1, HeapPages: 1},
			{Name: "B", SliceCycles: 1000, Colors: mem.ColorRange(2, 3), CodePages: 1, HeapPages: 1},
		},
		Schedule: [][]int{{0, 1}},
		// EnableTrace deliberately false.
	})
	if err != nil {
		t.Fatal(err)
	}
	if f := CheckPadding(sys); f.Pass {
		t.Fatal("padding check must fail without tracing")
	}
}

func TestReportRendering(t *testing.T) {
	r := Report{Findings: []Finding{
		{Name: "good", Pass: true, Detail: "ok"},
		{Name: "bad", Pass: false, Detail: "broken", Violations: []string{"v1"}},
	}}
	s := r.String()
	for _, want := range []string{"PASS", "FAIL", "good", "bad", "v1"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
	if r.Pass() {
		t.Fatal("report with failure must not pass")
	}
}
