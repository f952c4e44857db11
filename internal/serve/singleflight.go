package serve

import (
	"sync"

	"timeprot/internal/experiment/store"
)

// flightGroup is the in-flight cell dedup: at most one execution per
// store key is ever in flight, and every concurrent requester of that
// key waits for it instead of executing its own copy. Combined with the
// store check running *inside* the flight (so it is serialised against
// the previous flight's write-back), this is what bounds global
// executions by the number of distinct keys submitted.
type flightGroup struct {
	mu       sync.Mutex
	inflight map[store.Key]*flightCall
}

// flightCall is one in-flight key: waiters block on done; result and
// err are the owner's, readable after done closes.
type flightCall struct {
	done   chan struct{}
	result any
	err    error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{inflight: make(map[store.Key]*flightCall)}
}

// Do resolves one cell under the dedup discipline. Exactly one caller
// per flight runs resolve, which serves the cell from the store or
// executes it and writes it back, returning its source (SourceStore or
// SourceExecuted), a copy of its result, and its execution error; every
// concurrent caller of the key receives those as SourceJoined.
//
// Ordering is the invariant's proof obligation: a key's flight is
// removed from the in-flight map only after resolve's write-back
// returned, so any later Do either joins the live flight or sees the
// store hit — a second execution of the same key requires a failed
// write-back.
func (g *flightGroup) Do(k store.Key, resolve func() (source string, result any, err error)) (source string, result any, err error) {
	g.mu.Lock()
	if c, ok := g.inflight[k]; ok {
		g.mu.Unlock()
		<-c.done
		return SourceJoined, c.result, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	g.inflight[k] = c
	g.mu.Unlock()

	defer func() {
		g.mu.Lock()
		delete(g.inflight, k)
		g.mu.Unlock()
		close(c.done)
	}()

	source, c.result, c.err = resolve()
	return source, c.result, c.err
}
