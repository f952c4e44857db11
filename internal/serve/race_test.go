package serve

import (
	"sync"
	"sync/atomic"
	"testing"

	"timeprot/internal/experiment"
	"timeprot/internal/experiment/store"
)

// TestFlightGroupDedup hammers the singleflight with many goroutines
// contending on few keys over an emulated store, and asserts the exact
// dedup arithmetic the server advertises: executions == distinct keys,
// no matter the interleaving. Run under -race this is also the
// flightGroup's memory-model test.
func TestFlightGroupDedup(t *testing.T) {
	const (
		goroutines = 32
		keys       = 8
		rounds     = 50
	)
	g := newFlightGroup()
	var mu sync.Mutex
	filled := make(map[store.Key]bool)
	var executions int64
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := store.Key{byte((w + r) % keys)}
				_, _, err := g.Do(k, func() (string, any, error) {
					mu.Lock()
					hit := filled[k]
					mu.Unlock()
					if hit {
						return SourceStore, nil, nil
					}
					atomic.AddInt64(&executions, 1)
					// The write-back happens inside the flight, before
					// the flight leaves the in-flight map — the ordering
					// the dedup proof rests on.
					mu.Lock()
					filled[k] = true
					mu.Unlock()
					return SourceExecuted, nil, nil
				})
				if err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	if executions != keys {
		t.Fatalf("%d executions for %d distinct keys", executions, keys)
	}
}

// TestFlightGroupErrorPropagation: a failing execution reaches the
// executor with its result, and does not poison later flights of the
// same key.
func TestFlightGroupErrorPropagation(t *testing.T) {
	g := newFlightGroup()
	k := store.Key{1}
	boom := func() (string, any, error) { return SourceExecuted, "failed row", errFailed }
	if src, res, err := g.Do(k, boom); err == nil || src != SourceExecuted || res != "failed row" {
		t.Fatalf("got (%s, %v, %v), want an executed failure with its row", src, res, err)
	}
	// The key is flightable again: the next Do executes afresh.
	if src, _, err := g.Do(k, func() (string, any, error) { return SourceExecuted, nil, nil }); err != nil || src != SourceExecuted {
		t.Fatalf("retry after failure: got (%s, %v)", src, err)
	}
}

var errFailed = &flightErr{}

type flightErr struct{}

func (*flightErr) Error() string { return "cell failed" }

// TestServerConcurrentSubmitPollCancelStream drives the job registry
// from many goroutines at once — overlapping submissions, immediate
// cancels, status polling, and event following — and then checks the
// global ledger still satisfies executions <= distinct keys. This is
// the registry's -race test.
func TestServerConcurrentSubmitPollCancelStream(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, Config{Workers: 4})
	defer srv.Close()

	const clients = 12
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Three distinct seeds across twelve clients: heavy key overlap.
			sp := experiment.Spec{Scenarios: []string{"T2"}, Rounds: 6, Seeds: []uint64{uint64(i%3 + 1)}}
			j, err := srv.Submit(SubmitRequest{Kind: KindSweep, Sweep: &sp})
			if err != nil {
				t.Error(err)
				return
			}
			if i%4 == 0 {
				j.cancel()
			}
			for {
				_, isTerminal, changed := j.follow(0)
				_ = j.status()
				if isTerminal {
					break
				}
				<-changed
			}
			final := j.status()
			if final.State == StateDone && (final.Done != final.Total || final.Executed+final.StoreHits+final.Joined != final.Done) {
				t.Errorf("job %s accounting broken: %+v", final.ID, final)
			}
		}(i)
	}
	wg.Wait()

	snap := srv.stats.snapshot()
	if snap.Executed > snap.DistinctKeys {
		t.Fatalf("dedup invariant violated under contention: %d executed > %d distinct keys", snap.Executed, snap.DistinctKeys)
	}
	if snap.Executed == 0 {
		t.Fatal("nothing executed")
	}
}
