package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"timeprot/internal/cliutil"
	"timeprot/internal/experiment"
	"timeprot/internal/experiment/store"
)

// Config tunes a Server. The zero value is usable: GOMAXPROCS workers
// and the wall clock.
type Config struct {
	// Workers is the bounded cell worker pool size (<=0 = GOMAXPROCS).
	// Like engine parallelism, it never affects served bytes.
	Workers int
	// Now is the server's clock, for the status timestamps; nil = wall
	// clock. The contract tests pin it so responses are byte-stable.
	Now func() time.Time
}

// Server is the sweep service: a job registry, a shared scheduler, and
// a shared synchronized store behind an http.Handler. Construct with
// New, wire Handler into a listener, and Close to shut down (cancels
// every job, drains the workers, closes the store).
type Server struct {
	store *syncStore
	reg   *registry
	sched *scheduler
	stats *serverStats
	now   func() time.Time

	ctx    context.Context
	cancel context.CancelFunc

	mux *http.ServeMux

	closeMu  sync.Mutex
	closed   bool
	jobs     sync.WaitGroup
	closeErr error
}

// New builds a Server over the shared result store. The server owns st
// from here on: Close closes it.
func New(st store.CellStore, cfg Config) *Server {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		store:  newSyncStore(st),
		reg:    newRegistry(),
		stats:  newServerStats(),
		now:    now,
		ctx:    ctx,
		cancel: cancel,
	}
	s.sched = newScheduler(workers, s.store, s.stats)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	return s
}

// Handler returns the service's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Close shuts the server down: no new submissions, every job cancelled,
// in-flight cells finished and written back (completed work is never
// lost — the crash/restart tests replay against exactly this store),
// workers drained, store closed. Idempotent.
func (s *Server) Close() error {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return s.closeErr
	}
	s.closed = true
	s.closeMu.Unlock()

	s.reg.cancelAll()
	s.cancel()
	s.jobs.Wait()
	s.sched.close()
	s.closeErr = s.store.Close()
	return s.closeErr
}

// plan expands the request's spec of its kind into one shard's plan,
// refusing a matrix of more than MaxJobCells cells before expanding it.
func (req SubmitRequest) plan(sh experiment.ShardSel) (*experiment.Plan, error) {
	switch {
	case req.Kind == KindSweep && req.Sweep != nil:
		return experiment.PlanSweep(*req.Sweep, sh)
	case req.Kind == KindProof && req.Proof != nil:
		return experiment.PlanProofs(*req.Proof, sh)
	case req.Kind == KindConform && req.Conform != nil:
		return experiment.PlanConformance(*req.Conform, sh)
	case req.Kind == KindSweep || req.Kind == KindProof || req.Kind == KindConform:
		return nil, fmt.Errorf("kind %q needs the %s spec", req.Kind, req.Kind)
	}
	return nil, fmt.Errorf("unknown kind %q (want %s, %s, or %s)", req.Kind, KindSweep, KindProof, KindConform)
}

// MaxJobCells bounds a job's (unsharded) matrix: the planners' own
// bound, far above every matrix the docs and tests submit.
const MaxJobCells = experiment.MaxPlanCells

// errShuttingDown refuses a submission to a closing server (a 503).
var errShuttingDown = errors.New("server is shutting down")

// Submit accepts a request programmatically — the HTTP submit handler
// over a direct call. The request is validated and expanded into its
// (sharded) matrix first, so every failure but shutdown is the
// client's: a 400, never a failed job. The returned job is already
// scheduled.
func (s *Server) Submit(req SubmitRequest) (*Job, error) {
	specs := 0
	for _, set := range []bool{req.Sweep != nil, req.Proof != nil, req.Conform != nil} {
		if set {
			specs++
		}
	}
	if specs != 1 {
		return nil, fmt.Errorf("want exactly one spec (sweep, proof, or conform), got %d", specs)
	}
	sel, err := cliutil.ParseShard(req.Shard)
	if err != nil {
		return nil, err
	}
	p, err := req.plan(sel)
	if err != nil {
		return nil, err
	}
	return s.start(req, p)
}

// start registers an accepted request and schedules its plan. Only the
// job's runner holds the plan, so it is freed when the runner returns.
func (s *Server) start(req SubmitRequest, p *experiment.Plan) (*Job, error) {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return nil, errShuttingDown
	}
	j := s.reg.add(s.ctx, req, s.now())
	j.total = s.stats.addJob(p.Groups)
	s.jobs.Add(1)
	s.closeMu.Unlock()
	go s.runJob(j, p)
	return j, nil
}

// runJob is one job's runner: feed the plan's tasks to the shared
// scheduler, wait until every unit has resolved into its slot, then
// assemble the report from the slots and finish.
func (s *Server) runJob(j *Job, plan *experiment.Plan) {
	defer s.jobs.Done()
	j.setState(StateRunning, s.now(), "")

	var wg sync.WaitGroup
feed:
	for _, g := range plan.Groups {
		wg.Add(1)
		select {
		case s.sched.tasks <- task{job: j, wg: &wg, units: g}:
		case <-j.ctx.Done():
			wg.Done()
			break feed
		}
	}
	wg.Wait()

	if j.ctx.Err() != nil {
		j.setState(StateCanceled, s.now(), "")
		return
	}
	// The kind runner's own assembly: the exact bytes the matching CLI
	// emits for the spec, so served results compare (and golden-test)
	// against cold single-process runs.
	var body bytes.Buffer
	if err := plan.WriteReport(&body); err != nil {
		j.setState(StateFailed, s.now(), err.Error())
		return
	}
	j.mu.Lock()
	j.result = body.Bytes()
	j.mu.Unlock()
	j.setState(StateDone, s.now(), "")
}

// ---- HTTP handlers ----

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, ErrorReply{Error: fmt.Sprintf(format, args...)})
}

// MaxSubmitBytes bounds a job submission's body. A spec is a few
// hundred bytes; a larger body is refused with 413 before it is read
// in full.
const MaxSubmitBytes = 1 << 20

// ReadHeaderTimeout bounds how long a listener serving Handler waits
// for a request's headers, so an idle or trickling client cannot hold
// a connection open indefinitely.
const ReadHeaderTimeout = 10 * time.Second

// handleSubmit decodes exactly one SubmitRequest object: unknown
// fields, trailing data after the object, and bodies over
// MaxSubmitBytes are all refused.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxSubmitBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err == nil {
		// Exactly one object: anything but EOF after it is refused.
		if _, tail := dec.Token(); tail != io.EOF {
			err = errors.New("unexpected data after the request object")
			if errors.As(tail, new(*http.MaxBytesError)) {
				err = tail
			}
		}
	}
	switch {
	case errors.As(err, new(*http.MaxBytesError)):
		writeErr(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", MaxSubmitBytes)
		return
	case err != nil:
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	j, err := s.Submit(req)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, errShuttingDown) {
			code = http.StatusServiceUnavailable
		}
		writeErr(w, code, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{
		ID: j.id, Kind: j.kind, State: StateQueued, Cells: j.total,
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.list())
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.reg.get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", id)
	}
	return j, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.status())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	j.cancel()
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	st := j.status()
	if st.State != StateDone {
		writeErr(w, http.StatusConflict, "job %s is %s, not done", j.id, st.State)
		return
	}
	j.mu.Lock()
	body := j.result
	j.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// handleStream follows the job as NDJSON: the full event history
// replays first, then live events until the job is terminal (or the
// client goes away).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	idx := 0
	for {
		evs, isTerminal, changed := j.follow(idx)
		for _, e := range evs {
			enc.Encode(e)
		}
		idx += len(evs)
		if fl != nil {
			fl.Flush()
		}
		if isTerminal {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		case <-s.ctx.Done():
			return
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.stats.snapshot())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
