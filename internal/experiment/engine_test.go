package experiment

import (
	"bytes"
	"errors"
	"testing"

	"timeprot/internal/attacks"
	"timeprot/internal/experiment/store"
)

// failPutStore is a store whose every write fails (a full disk): reads
// go to the wrapped store, which stays empty, so every cell misses.
type failPutStore struct{ store.CellStore }

var errDiskFull = errors.New("disk full")

func (failPutStore) Put(store.Key, attacks.Row) error        { return errDiskFull }
func (failPutStore) PutProof(store.Key, store.ProofV1) error { return errDiskFull }
func (failPutStore) PutConform(store.Key, store.ConformV1) error {
	return errDiskFull
}

// engineCase runs one matrix kind through its public runner: st is the
// run's store (nil = none). It returns the report's JSON bytes and the
// run's cache statistics.
type engineCase struct {
	name string
	run  func(t *testing.T, st store.CellStore) ([]byte, CacheStats, error)
}

// engineCases covers every matrix kind with a small matrix; the sweep
// carries its T1 proof section so the folded Proof* stats are covered.
func engineCases() []engineCase {
	return []engineCase{
		{"sweep", func(t *testing.T, st store.CellStore) ([]byte, CacheStats, error) {
			var stats CacheStats
			rep, err := Run(Spec{
				Scenarios: []string{"T2"}, Rounds: 8, Seeds: []uint64{42},
				Proofs: true, ProofFamilies: 1, ProofRandom: 5,
			}, Options{Parallelism: 1, Store: st, Stats: &stats})
			if err != nil {
				return nil, stats, err
			}
			return renderJSON(t, rep), stats, nil
		}},
		{"proof", func(t *testing.T, st store.CellStore) ([]byte, CacheStats, error) {
			var stats CacheStats
			m, err := RunProofMatrix(ProofSpec{
				Models: []string{"base"}, Ablations: []string{"full protection", "no flush", "no pad"},
				Families: []int{1}, Random: 5, Seeds: []uint64{7},
			}, ProofOptions{Parallelism: 1, Store: st, Stats: &stats})
			if err != nil {
				return nil, stats, err
			}
			return renderProofsJSON(t, m), stats, nil
		}},
		{"conformance", func(t *testing.T, st store.CellStore) ([]byte, CacheStats, error) {
			var stats CacheStats
			m, err := RunConformance(ConformanceSpec{
				Models: []string{"base"}, Ablations: []string{"full protection", "no pad"},
				Pairs: 2, Rounds: 10, Families: 1, Seeds: []uint64{7},
			}, ConformanceOptions{Parallelism: 1, Store: st, Stats: &stats})
			if err != nil {
				return nil, stats, err
			}
			return renderConformJSON(t, m), stats, nil
		}},
	}
}

// TestEngineContract pins the matrix engine's store contract for every
// cell kind: a failed write-back is counted but never fails the run.
func TestEngineContract(t *testing.T) {
	for _, tc := range engineCases() {
		t.Run(tc.name, func(t *testing.T) {
			cold, _, err := tc.run(t, nil)
			if err != nil {
				t.Fatal(err)
			}

			t.Run("failed-puts", func(t *testing.T) {
				got, stats, err := tc.run(t, failPutStore{openStore(t)})
				if err != nil {
					t.Fatalf("a failing store failed the run: %v", err)
				}
				executed := stats.Executed + stats.ProofExecuted
				if executed == 0 || stats.FailedPuts != executed {
					t.Fatalf("FailedPuts = %d, want one per executed cell (%d)", stats.FailedPuts, executed)
				}
				if stats.Stored+stats.ProofStored != 0 || stats.FailedPut != errDiskFull.Error() {
					t.Fatalf("stats after failed puts: %+v", stats)
				}
				if !bytes.Equal(got, cold) {
					t.Fatal("report over a failing store differs from the cold run")
				}
			})
		})
	}
}
