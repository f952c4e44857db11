package serve

import (
	"math"
	"runtime"
	"testing"
	"time"

	"timeprot/internal/experiment"
	"timeprot/internal/experiment/store"
)

// TestOversizedMatrixRefusedBeforeExpansion: a request whose full
// matrix exceeds MaxJobCells is refused before the spec is expanded —
// Submit allocates far less than the smallest refused matrix would,
// and a factor near math.MaxInt saturates instead of wrapping past the
// bound.
func TestOversizedMatrixRefusedBeforeExpansion(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, Config{Workers: 1})
	defer srv.Close()

	for _, tc := range []struct {
		name string
		req  SubmitRequest
	}{
		// 3 variants × MaxJobCells trials: expanding it would allocate
		// 3×MaxJobCells cells, tens of MB.
		{"sweep trials", SubmitRequest{Kind: KindSweep, Sweep: &experiment.Spec{Scenarios: []string{"T2"}, Trials: MaxJobCells}}},
		{"sweep trials overflow", SubmitRequest{Kind: KindSweep, Sweep: &experiment.Spec{Seeds: []uint64{1, 2, 3, 4}, Trials: math.MaxInt/2 + 1, Proofs: true}}},
		// A filter matching no variant counts zero cells, which no bound
		// refuses: it must fail before the trial loop, not after it.
		{"sweep unmatched variant", SubmitRequest{Kind: KindSweep, Sweep: &experiment.Spec{Scenarios: []string{"T2"}, Variants: []string{"x"}, Trials: math.MaxInt}}},
		{"proof seeds", SubmitRequest{Kind: KindProof, Proof: &experiment.ProofSpec{Seeds: make([]uint64, MaxJobCells/7+1)}}},
		{"conform pairs", SubmitRequest{Kind: KindConform, Conform: &experiment.ConformanceSpec{Pairs: MaxJobCells}}},
		{"conform pairs overflow", SubmitRequest{Kind: KindConform, Conform: &experiment.ConformanceSpec{Pairs: math.MaxInt}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			j, err := srv.Submit(tc.req)
			runtime.ReadMemStats(&after)
			if err == nil {
				j.cancel()
				t.Fatalf("oversized matrix accepted as %s", j.id)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Fatalf("refusal allocated %d bytes: the matrix was expanded before the bound", grew)
			}
		})
	}
	if snap := srv.stats.snapshot(); snap.Jobs != 0 {
		t.Fatalf("refused submissions minted %d jobs", snap.Jobs)
	}
}

// TestFinishedJobKeepsNoPlan: once a job is terminal and its runner has
// returned, nothing the server keeps — the registry holds every job for
// the server's life — reaches the job's plan or its units and result
// slots, so they are collected. A failed job leaves the runner by the
// same return as a done one.
func TestFinishedJobKeepsNoPlan(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, Config{Workers: 1})
	defer srv.Close()

	for _, tc := range []struct {
		want   string
		spec   experiment.Spec
		cancel bool
	}{
		{StateDone, experiment.Spec{Scenarios: []string{"T4"}, Rounds: 20, Seeds: []uint64{11}}, false},
		{StateCanceled, experiment.Spec{Scenarios: []string{"T2"}, Rounds: 60, Seeds: []uint64{1, 2, 3, 4, 5, 6, 7, 8}}, true},
	} {
		p, err := experiment.PlanSweep(tc.spec, experiment.ShardSel{})
		if err != nil {
			t.Fatal(err)
		}
		// The plan, and the slot array its first unit points into.
		freed := make(chan struct{}, 2)
		runtime.SetFinalizer(p, func(*experiment.Plan) { freed <- struct{}{} })
		runtime.SetFinalizer(p.Groups[0][0], func(any) { freed <- struct{}{} })
		j, err := srv.start(SubmitRequest{Kind: KindSweep, Sweep: &tc.spec}, p)
		if err != nil {
			t.Fatal(err)
		}
		p = nil
		if tc.cancel {
			j.cancel()
		}
		if st := waitTerminal(j); st.State != tc.want {
			t.Fatalf("job state %s, want %s", st.State, tc.want)
		}
		srv.jobs.Wait()
		for n := 0; n < 2; {
			runtime.GC()
			select {
			case <-freed:
				n++
			case <-time.After(time.Second):
				t.Fatalf("%s job: plan still reachable after its runner returned", tc.want)
			}
		}
	}
}
