package invariant

import (
	"strings"
	"testing"

	"timeprot/internal/core"
	"timeprot/internal/kernel"
)

// The pinned NIResult values below were recorded when Lo and both Hi
// programs ran as goroutine thread functions, before their port to
// step functions. Exact equality — observation count, divergence index
// and the diverging readings — shows the ported programs issue the same
// operations, op for op.

// checkNI runs TwoRunNI and requires the exact pinned result.
func checkNI(t *testing.T, prot core.Config, hiA, hiB func() kernel.Program, loOps int, want NIResult) {
	t.Helper()
	res, err := TwoRunNI(prot, hiA, hiB, loOps)
	if err != nil {
		t.Fatal(err)
	}
	if res != want {
		t.Fatalf("TwoRunNI = %#v (%s), want %#v", res, res, want)
	}
}

// TestConcreteNIFullProtection is the end-to-end theorem on the real
// simulator: two wildly different Hi programs produce bit-identical Lo
// observation sequences under full protection. No statistics, no noise
// floor — exact equality of every timing reading.
func TestConcreteNIFullProtection(t *testing.T) {
	hiA, hiB := HiVariantPair()
	checkNI(t, core.FullProtection(), hiA, hiB, 60, NIResult{Equal: true, Observations: 300})
}

// TestConcreteNIAblations: removing any single mechanism lets the
// two-run comparison tell the Hi programs apart on the concrete
// simulator — the same matrix as the abstract prover, at full fidelity.
func TestConcreteNIAblations(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*core.Config)
		// diverge, a and b pin the first interfering observation.
		diverge int
		a, b    uint64
	}{
		{"no-flush", func(c *core.Config) { c.FlushOnSwitch = false }, 251, 0x27ece8, 0x27ecd0},
		{"no-pad", func(c *core.Config) { c.PadSwitch = false }, 1, 0xd4ba, 0xdc0e},
		{"no-colour", func(c *core.Config) { c.ColorUserMemory = false }, 3, 0xce8, 0xcd8},
		{"no-clone", func(c *core.Config) { c.CloneKernel = false }, 18, 0x6c0, 0x350},
		{"no-irq-partition", func(c *core.Config) { c.PartitionIRQs = false }, 6, 0x17325, 0x16e28},
	}
	hiA, hiB := HiVariantPair()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prot := core.FullProtection()
			tc.mut(&prot)
			checkNI(t, prot, hiA, hiB, 60, NIResult{DivergeIndex: tc.diverge, A: tc.a, B: tc.b, Observations: 300})
		})
	}
}

// TestConcreteNISameHiProgramsTrivially: determinism sanity — identical
// Hi programs are indistinguishable under ANY configuration.
func TestConcreteNISameHiProgramsTrivially(t *testing.T) {
	hiA, _ := HiVariantPair()
	for _, prot := range []core.Config{core.NoProtection(), core.FullProtection()} {
		checkNI(t, prot, hiA, hiA, 30, NIResult{Equal: true, Observations: 150})
	}
}

// TestConcreteNISubtleVariants: full protection must also withstand Hi
// programs that differ only minimally (one extra dirtied line; one extra
// syscall) — the hardest inputs for padding and flushing.
func TestConcreteNISubtleVariants(t *testing.T) {
	// mk is 10 rounds of 100+extraWrites writes, an optional syscall,
	// and 40 compute steps.
	mk := func(extraWrites int, extraSyscall bool) func() kernel.Program {
		writes := 100 + extraWrites
		per := writes + 41
		return func() kernel.Program {
			k := 0
			return kernel.ProgramFunc(func(m *kernel.Machine) kernel.Status {
				for k < 10*per {
					j := k % per
					k++
					switch {
					case j < writes:
						return m.WriteHeap(uint64(j*64) % m.HeapBytes())
					case j > writes:
						return m.Compute(250)
					case extraSyscall:
						return m.NullSyscall()
					}
				}
				return kernel.Done
			})
		}
	}
	checkNI(t, core.FullProtection(), mk(0, false), mk(1, true), 50, NIResult{Equal: true, Observations: 250})
}

func TestNIResultString(t *testing.T) {
	if s := (NIResult{Equal: true, Observations: 5}).String(); !strings.Contains(s, "NONINTERFERENT") {
		t.Fatal(s)
	}
	if s := (NIResult{DivergeIndex: 2, A: 1, B: 3}).String(); !strings.Contains(s, "INTERFERENCE") {
		t.Fatal(s)
	}
}
