package serve

import (
	"errors"
	"sync"

	"timeprot/internal/attacks"
	"timeprot/internal/experiment/store"
)

// syncStore wraps the server's shared CellStore in the
// concurrent-reader / single-writer discipline the service needs: any
// number of jobs may probe concurrently (warm serving is read-bound),
// writers are serialised against each other and against readers, and
// Close is serialised against everything — after Close, reads are
// misses and writes fail instead of racing a closed backend.
//
// Both store backends are individually goroutine-safe; the wrapper adds
// what they do not promise: a close barrier shared by many jobs, and a
// single writer at a time so the packed backend's append path is never
// interleaved by tenant load. It implements store.MatrixStore, the part
// of the store the engine's units read and write.
type syncStore struct {
	mu     sync.RWMutex
	closed bool
	st     store.CellStore
}

func newSyncStore(st store.CellStore) *syncStore { return &syncStore{st: st} }

// errStoreClosed fails a write to the store after Close.
var errStoreClosed = errors.New("serve: store is closed")

// get is every typed read: f runs under the read lock, and a closed
// store is a miss.
func get[T any](s *syncStore, k store.Key, f func(store.CellStore, store.Key) (T, bool)) (T, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		var zero T
		return zero, false
	}
	return f(s.st, k)
}

// put is every typed write: f runs under the writer lock, and a closed
// store fails the write.
func put[T any](s *syncStore, k store.Key, v T, f func(store.CellStore, store.Key, T) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errStoreClosed
	}
	return f(s.st, k, v)
}

func (s *syncStore) Get(k store.Key) (attacks.Row, bool) {
	return get(s, k, store.CellStore.Get)
}
func (s *syncStore) Put(k store.Key, row attacks.Row) error {
	return put(s, k, row, store.CellStore.Put)
}

func (s *syncStore) GetProof(k store.Key) (store.ProofV1, bool) {
	return get(s, k, store.CellStore.GetProof)
}
func (s *syncStore) PutProof(k store.Key, p store.ProofV1) error {
	return put(s, k, p, store.CellStore.PutProof)
}

func (s *syncStore) GetConform(k store.Key) (store.ConformV1, bool) {
	return get(s, k, store.CellStore.GetConform)
}
func (s *syncStore) PutConform(k store.Key, c store.ConformV1) error {
	return put(s, k, c, store.CellStore.PutConform)
}

func (s *syncStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.st.Close()
}
