package kernel

import "testing"

// Allocation gates on the simulator's hot path: the kernel step loop
// must not allocate per simulated operation, nor per domain switch.
// Fixed setup cost (system construction, page tables, thread state) is
// allowed; anything that scales with the run length turns long sweeps
// into GC churn, so the gate compares two run lengths and bounds the
// MARGINAL allocations per operation or per switch.

// allocRun measures the allocations of building and running the system
// that build returns for a run of length n, and the run's count of the
// gated unit (operations or domain switches).
func allocRun(t *testing.T, n int, build func(testing.TB, int) *System, unit func(Report) uint64) (allocs float64, units uint64) {
	t.Helper()
	allocs = testing.AllocsPerRun(3, func() {
		rep, err := build(t, n).Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Errors) > 0 {
			t.Fatal(rep.Errors)
		}
		if rep.HitMaxCycles || rep.Deadlocked {
			t.Fatalf("alloc gate run did not complete: %+v", rep)
		}
		units = unit(rep)
	})
	return allocs, units
}

// streamRun is a single-domain system running n operations of one
// stream kind.
func streamRun(kind streamKind) func(testing.TB, int) *System {
	return func(tb testing.TB, n int) *System {
		sys := streamSystem(tb, n)
		if _, err := sys.SpawnProgram(0, "stream", 0, &streamProgram{kind: kind, n: n}); err != nil {
			tb.Fatal(err)
		}
		return sys
	}
}

// pingPongRun is a single-domain system in which one thread sends n
// messages on endpoint 0 and a second receives them: every operation is
// a rendezvous that blocks one side and wakes the other.
func pingPongRun(tb testing.TB, n int) *System {
	sys := streamSystem(tb, 2*n)
	ping, pong := 0, 0
	progs := []ProgramFunc{
		func(m *Machine) Status {
			if ping == n {
				return Done
			}
			ping++
			return m.Send(0, uint64(ping))
		},
		func(m *Machine) Status {
			if pong == n {
				return Done
			}
			pong++
			return m.Recv(0)
		},
	}
	for i, p := range progs {
		if _, err := sys.SpawnProgram(0, []string{"ping", "pong"}[i], 0, p); err != nil {
			tb.Fatal(err)
		}
	}
	return sys
}

func TestStepLoopAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	const small, big = 2_000, 20_000
	ops := func(r Report) uint64 { return r.Ops }
	switches := func(r Report) uint64 { return uint64(r.Switches) }
	for _, tc := range []struct {
		name  string
		build func(testing.TB, int) *System
		unit  func(Report) uint64
		per   string
	}{
		{"read", streamRun(streamRead), ops, "op"},
		{"compute", streamRun(streamCompute), ops, "op"},
		{"now", streamRun(streamNow), ops, "op"},
		{"yield", streamRun(streamYield), ops, "op"},
		{"ipc-pingpong", pingPongRun, ops, "op"},
		{"domain-switch", switchSystem, switches, "switch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, ua := allocRun(t, small, tc.build, tc.unit)
			b, ub := allocRun(t, big, tc.build, tc.unit)
			if ub <= ua {
				t.Fatalf("longer run did not do more work: %d vs %d", ub, ua)
			}
			marginal := (b - a) / float64(ub-ua)
			t.Logf("setup %.0f allocs, marginal %.4f allocs/%s over %d more", a, marginal, tc.per, ub-ua)
			if marginal > 0.01 {
				t.Errorf("kernel allocates %.4f times per %s (want < 0.01): the hot path regressed", marginal, tc.per)
			}
		})
	}
}
