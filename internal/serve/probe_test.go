package serve_test

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"timeprot/internal/attacks"
	"timeprot/internal/experiment"
	"timeprot/internal/experiment/store"
	"timeprot/internal/serve"
	"timeprot/internal/serve/loadtest"
)

// countingStore counts every read of a cell, proof, or conformance
// entry that reaches the wrapped store.
type countingStore struct {
	store.CellStore
	gets atomic.Int64
}

func (s *countingStore) Get(k store.Key) (attacks.Row, bool) {
	s.gets.Add(1)
	return s.CellStore.Get(k)
}

func (s *countingStore) GetProof(k store.Key) (store.ProofV1, bool) {
	s.gets.Add(1)
	return s.CellStore.GetProof(k)
}

func (s *countingStore) GetConform(k store.Key) (store.ConformV1, bool) {
	s.gets.Add(1)
	return s.CellStore.GetConform(k)
}

// gatedStore holds every read until open closes, counting the reads it
// holds, so that both of two duplicate jobs' workers reach a key's
// flight before its owner resolves it: one owns each key, the other
// joins.
type gatedStore struct {
	store.CellStore
	open chan struct{}
	once sync.Once
	held atomic.Int64
}

// release opens the gate; it is idempotent.
func (s *gatedStore) release() { s.once.Do(func() { close(s.open) }) }

func newGatedStore(t *testing.T) *gatedStore {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return &gatedStore{CellStore: st, open: make(chan struct{})}
}

func (s *gatedStore) hold() {
	s.held.Add(1)
	<-s.open
}

func (s *gatedStore) Get(k store.Key) (attacks.Row, bool) {
	s.hold()
	return s.CellStore.Get(k)
}

func (s *gatedStore) GetProof(k store.Key) (store.ProofV1, bool) {
	s.hold()
	return s.CellStore.GetProof(k)
}

func (s *gatedStore) GetConform(k store.Key) (store.ConformV1, bool) {
	s.hold()
	return s.CellStore.GetConform(k)
}

// failPutStore is a store whose every write fails (a full disk): it
// stays empty, so every cell misses.
type failPutStore struct{ store.CellStore }

var errDiskFull = errors.New("disk full")

func (failPutStore) Put(store.Key, attacks.Row) error            { return errDiskFull }
func (failPutStore) PutProof(store.Key, store.ProofV1) error     { return errDiskFull }
func (failPutStore) PutConform(store.Key, store.ConformV1) error { return errDiskFull }

// servedKinds is one small job per kind. The sweep carries its T1 proof
// cells, so a sweep job resolves both cell kinds, and its scenario is
// T12, whose cross-row finalisation extends every row: a joined row
// must not share what that writes.
func servedKinds() []kindCase {
	return kindCases(experiment.Spec{
		Scenarios: []string{"T12"}, Rounds: 8, Seeds: []uint64{42},
		Proofs: true, ProofFamilies: 1, ProofRandom: 5,
	})
}

// gatedWorkers is enough workers for every task of two duplicate
// servedKinds jobs at once.
const gatedWorkers = 16

// submitTwice submits req twice, lets every owner of a key's flight
// block in gate — so the duplicate job's workers join those flights —
// then opens the gate, and returns both final statuses and reports. A
// joiner waiting on a flight cannot be observed from here, so the gate
// opens once the held reads have stopped arriving for 50 ms.
func submitTwice(t *testing.T, c *loadtest.Client, gate *gatedStore, req serve.SubmitRequest) ([2]serve.JobStatus, [2][]byte) {
	t.Helper()
	defer gate.release() // also on a failed submission, so Close cannot hang
	var ids [2]string
	for i := range ids {
		sub, err := c.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = sub.ID
	}
	for last, still := int64(-1), 0; still < 5; time.Sleep(10 * time.Millisecond) {
		if n := gate.held.Load(); n == 0 || n != last {
			last, still = n, 0
		} else {
			still++
		}
	}
	gate.release()
	var sts [2]serve.JobStatus
	var bodies [2][]byte
	for i, id := range ids {
		var err error
		if sts[i], err = c.Wait(id); err != nil {
			t.Fatal(err)
		}
		if bodies[i], err = c.Result(id); err != nil {
			t.Fatal(err)
		}
	}
	return sts, bodies
}

// TestServedJobProbesEachKeyOnce: a served job reads each of its keys
// at most once. Cold, only the owner of a key's flight reads the store
// (one Get per executed key or store hit) and a joined cell reads
// nothing; warm, a job makes exactly one Get per cell.
func TestServedJobProbesEachKeyOnce(t *testing.T) {
	for _, kc := range servedKinds() {
		t.Run(kc.name, func(t *testing.T) {
			gate := newGatedStore(t)
			cs := &countingStore{CellStore: gate}
			_, c := serveStore(t, cs, serve.Config{Workers: gatedWorkers})

			sts, _ := submitTwice(t, c, gate, kc.req)
			stats, err := c.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if sts[0].State != serve.StateDone || sts[1].State != serve.StateDone {
				t.Fatalf("cold jobs finished %+v", sts)
			}
			if stats.Joined == 0 {
				t.Fatalf("no cell joined a flight: %+v", stats)
			}
			if got, want := cs.gets.Load(), int64(stats.Executed+stats.StoreHits); got != want {
				t.Fatalf("cold: %d Gets for %d executed and %d store-hit cells (%d joined)",
					got, stats.Executed, stats.StoreHits, stats.Joined)
			}

			cs.gets.Store(0)
			sub, err := c.Submit(kc.req)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := c.Wait(sub.ID)
			if err != nil {
				t.Fatal(err)
			}
			if warm.State != serve.StateDone || warm.StoreHits != warm.Total {
				t.Fatalf("warm job finished %+v", warm)
			}
			if got := cs.gets.Load(); got != int64(warm.Total) {
				t.Fatalf("warm: %d Gets for %d cells, want one per cell", got, warm.Total)
			}
		})
	}
}

// TestServedFailedWriteBack is the service's twin of the engine's
// failed-puts contract: over a store whose every write fails, each job
// still finishes done with its full report — byte-identical to a cold
// in-process run — from the results in hand, duplicates included,
// and every execution is counted as a failed put.
func TestServedFailedWriteBack(t *testing.T) {
	for _, kc := range servedKinds() {
		t.Run(kc.name, func(t *testing.T) {
			gate := newGatedStore(t)
			_, c := serveStore(t, failPutStore{gate}, serve.Config{Workers: gatedWorkers})
			cold, err := kc.cold(experiment.ShardSel{})
			if err != nil {
				t.Fatal(err)
			}

			sts, bodies := submitTwice(t, c, gate, kc.req)
			for i, st := range sts {
				if st.State != serve.StateDone || st.CellErrors != 0 || st.StoreHits != 0 {
					t.Fatalf("job %d finished %+v", i, st)
				}
				if !bytes.Equal(bodies[i], cold) {
					t.Fatalf("job %d: report over a failing store differs from the cold run", i)
				}
			}
			stats, err := c.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if stats.Joined == 0 {
				t.Fatalf("no cell joined a flight: %+v", stats)
			}
			if stats.Executed == 0 || stats.FailedPuts != stats.Executed {
				t.Fatalf("FailedPuts = %d, want one per executed cell (%d)", stats.FailedPuts, stats.Executed)
			}
		})
	}
}
