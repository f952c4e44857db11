package serve

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Job is one accepted submission: its normalised request, its cell
// count (the matrix is expanded and sharded at submit time, so a bad
// spec is a 400, never a failed job), its progress accounting, and its
// event history.
// The history is append-only and every append wakes the stream
// followers, so a stream started at any point replays the full history
// and then follows live.
type Job struct {
	id   string
	kind string
	req  SubmitRequest

	// ctx scopes every piece of the job's work; cancel is the job's
	// kill switch (the cancel endpoint and server shutdown).
	ctx    context.Context
	cancel context.CancelFunc

	// total counts the job's cells. The job holds none of its units or
	// result slots: only its runner does, so they are freed with it.
	total int

	mu       sync.Mutex
	changed  chan struct{} // closed and replaced on every mutation
	state    string
	done     int
	executed int
	hits     int
	joined   int
	cellErrs int
	errMsg   string
	result   []byte
	events   []Event
	created  time.Time
	started  time.Time
	finished time.Time
}

// terminal reports whether a state is final.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// bump wakes every follower. Callers hold j.mu.
func (j *Job) bump() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// setState moves the job through its lifecycle, stamping the
// transition and publishing a "state" event.
func (j *Job) setState(state string, now time.Time, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if terminal(j.state) {
		return // a canceled job stays canceled even if the runner finishes
	}
	j.state = state
	switch state {
	case StateRunning:
		j.started = now
	case StateDone, StateFailed, StateCanceled:
		j.finished = now
	}
	if errMsg != "" {
		j.errMsg = errMsg
	}
	j.events = append(j.events, Event{Type: "state", State: state, Error: errMsg})
	j.bump()
}

// cellDone records one scheduled cell's outcome and publishes its
// "cell" (or "error") event.
func (j *Job) cellDone(label, source string, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.done++
	switch source {
	case SourceExecuted:
		j.executed++
	case SourceStore:
		j.hits++
	case SourceJoined:
		j.joined++
	}
	ev := Event{Type: "cell", Done: j.done, Total: j.total, Cell: label, Source: source}
	if err != nil {
		j.cellErrs++
		ev.Type = "error"
		ev.Error = err.Error()
	}
	j.events = append(j.events, ev)
	j.bump()
}

// status snapshots the job for the status endpoints.
func (j *Job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:         j.id,
		Kind:       j.kind,
		State:      j.state,
		Shard:      j.req.Shard,
		Total:      j.total,
		Done:       j.done,
		Executed:   j.executed,
		StoreHits:  j.hits,
		Joined:     j.joined,
		CellErrors: j.cellErrs,
		Error:      j.errMsg,
		Created:    stamp(j.created),
	}
	if !j.started.IsZero() {
		st.Started = stamp(j.started)
	}
	if !j.finished.IsZero() {
		st.Finished = stamp(j.finished)
	}
	return st
}

// stamp renders a timestamp in the status wire format.
func stamp(t time.Time) string { return t.UTC().Format(time.RFC3339) }

// follow returns the events at and after index from, the job's current
// terminal-ness, and a channel that closes on the next mutation — the
// stream handler's read primitive.
func (j *Job) follow(from int) (evs []Event, isTerminal bool, changed <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.events[from:], terminal(j.state), j.changed
}

// registry is the server's job table: deterministic sequential IDs
// (j1, j2, …) and snapshot listing in submission order.
type registry struct {
	mu   sync.Mutex
	seq  int
	jobs map[string]*Job
	ids  []string
}

func newRegistry() *registry { return &registry{jobs: make(map[string]*Job)} }

// add registers a new job and assigns its ID.
func (r *registry) add(ctx context.Context, req SubmitRequest, now time.Time) *Job {
	jctx, cancel := context.WithCancel(ctx)
	j := &Job{
		kind:    req.Kind,
		req:     req,
		ctx:     jctx,
		cancel:  cancel,
		changed: make(chan struct{}),
		state:   StateQueued,
		created: now,
	}
	j.events = append(j.events, Event{Type: "state", State: StateQueued})
	r.mu.Lock()
	r.seq++
	j.id = fmt.Sprintf("j%d", r.seq)
	r.jobs[j.id] = j
	r.ids = append(r.ids, j.id)
	r.mu.Unlock()
	return j
}

// get looks a job up by ID.
func (r *registry) get(id string) (*Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

// list snapshots every job's status in submission order.
func (r *registry) list() []JobStatus {
	r.mu.Lock()
	ids := append([]string(nil), r.ids...)
	r.mu.Unlock()
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		if j, ok := r.get(id); ok {
			out = append(out, j.status())
		}
	}
	return out
}

// cancelAll fires every job's kill switch (server shutdown).
func (r *registry) cancelAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, j := range r.jobs {
		j.cancel()
	}
}
