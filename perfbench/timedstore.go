package main

import (
	"sync"
	"time"

	"timeprot/internal/attacks"
	"timeprot/internal/experiment/store"
)

// opKey names one counter row: an operation on one entry kind.
type opKey struct{ op, kind string }

// opStat accumulates the calls of one opKey.
type opStat struct {
	calls, misses int
	total         time.Duration
}

// timedStore is a store.CellStore decorator that counts and times Get
// and Put per entry kind (cell, proof, conform), plus misses, and —
// when a span context is set — records one store span per call under
// the caller's engine span. It changes no byte that passes through it.
// Discovery entries, which no workload reads, pass through untimed.
// Only the traced run uses it.
type timedStore struct {
	store.CellStore
	backend string

	mu    sync.Mutex
	stats map[opKey]*opStat
	tr    *tracer
	// workload, pass and parent place store spans in the trace; parent
	// 0 records counters only (calls from service goroutines that
	// belong to no single pass).
	workload     string
	pass, parent int
}

func newTimedStore(st store.CellStore, backend string, tr *tracer) *timedStore {
	return &timedStore{CellStore: st, backend: backend, stats: map[opKey]*opStat{}, tr: tr}
}

// within sets the span context for the calls that follow.
func (s *timedStore) within(workload string, pass, parent int) {
	s.mu.Lock()
	s.workload, s.pass, s.parent = workload, pass, parent
	s.mu.Unlock()
}

func (s *timedStore) record(op, kind string, start time.Time, hit bool) {
	end := time.Now()
	s.mu.Lock()
	st := s.stats[opKey{op, kind}]
	if st == nil {
		st = &opStat{}
		s.stats[opKey{op, kind}] = st
	}
	st.calls++
	st.total += end.Sub(start)
	if !hit {
		st.misses++
	}
	workload, pass, parent := s.workload, s.pass, s.parent
	s.mu.Unlock()
	if parent != 0 {
		s.tr.add(workload, pass, parent, "store", op+"."+kind+"."+s.backend, start, end)
	}
}

// snapshot returns a copy of the counters.
func (s *timedStore) snapshot() map[opKey]opStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[opKey]opStat, len(s.stats))
	for k, v := range s.stats {
		out[k] = *v
	}
	return out
}

func (s *timedStore) Get(k store.Key) (attacks.Row, bool) {
	t := time.Now()
	r, ok := s.CellStore.Get(k)
	s.record("get", "cell", t, ok)
	return r, ok
}

func (s *timedStore) Put(k store.Key, row attacks.Row) error {
	t := time.Now()
	err := s.CellStore.Put(k, row)
	s.record("put", "cell", t, err == nil)
	return err
}

func (s *timedStore) GetProof(k store.Key) (store.ProofV1, bool) {
	t := time.Now()
	p, ok := s.CellStore.GetProof(k)
	s.record("get", "proof", t, ok)
	return p, ok
}

func (s *timedStore) PutProof(k store.Key, p store.ProofV1) error {
	t := time.Now()
	err := s.CellStore.PutProof(k, p)
	s.record("put", "proof", t, err == nil)
	return err
}

func (s *timedStore) GetConform(k store.Key) (store.ConformV1, bool) {
	t := time.Now()
	c, ok := s.CellStore.GetConform(k)
	s.record("get", "conform", t, ok)
	return c, ok
}

func (s *timedStore) PutConform(k store.Key, c store.ConformV1) error {
	t := time.Now()
	err := s.CellStore.PutConform(k, c)
	s.record("put", "conform", t, err == nil)
	return err
}
