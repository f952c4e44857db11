package serve

import (
	"sync"

	"timeprot/internal/attacks"
	"timeprot/internal/experiment"
	"timeprot/internal/experiment/store"
)

// task is the scheduler's work unit: one group of cell units belonging
// to one job — an attack sweep's finalisation group, or a single proof
// or conformance cell. Every job's runner feeds its tasks into the one
// shared queue, so an idle worker steals the next group regardless of
// which tenant submitted it — cross-job work-stealing over the same
// partition unit the shard machinery uses.
type task struct {
	job   *Job
	wg    *sync.WaitGroup
	units []experiment.Unit
}

// scheduler is the bounded worker pool shared by every job. Each
// worker owns one reusable attacks.CellContext — the allocation-free
// hot path — recycled across cells of every tenant.
type scheduler struct {
	tasks  chan task
	flight *flightGroup
	store  *syncStore
	stats  *serverStats
	wg     sync.WaitGroup
}

func newScheduler(workers int, st *syncStore, stats *serverStats) *scheduler {
	s := &scheduler{
		tasks:  make(chan task),
		flight: newFlightGroup(),
		store:  st,
		stats:  stats,
	}
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// close drains the pool: the queue must no longer be fed (all job
// runners have exited) when this is called.
func (s *scheduler) close() {
	close(s.tasks)
	s.wg.Wait()
}

func (s *scheduler) worker() {
	defer s.wg.Done()
	cc := attacks.NewCellContext()
	for t := range s.tasks {
		for _, u := range t.units {
			s.runUnit(t.job, cc, u)
		}
		t.wg.Done()
	}
}

// runUnit resolves one cell into its slot under the dedup discipline;
// a joiner adopts the flight owner's result and reads nothing. A
// cancelled job's remaining cells are skipped silently — they are not
// failures, and another job that also wants them will flight them
// itself.
func (s *scheduler) runUnit(j *Job, cc *attacks.CellContext, u experiment.Unit) {
	if j.ctx.Err() != nil {
		return
	}
	var putErr error
	src, res, err := s.flight.Do(u.Key(), func() (string, any, error) {
		if u.Load(s.store) {
			return SourceStore, u.Result(), nil
		}
		var err error
		putErr, err = u.Execute(cc, s.store)
		return SourceExecuted, u.Result(), err
	})
	if src == SourceJoined {
		u.Join(res)
	}
	j.cellDone(u.Label(), src, err)
	s.stats.cellDone(src, putErr != nil)
}

// serverStats is the server-wide dedup ledger: distinct submitted keys
// on one side, executions on the other. The load-test harness asserts
// Executed <= DistinctKeys (== on a cold store) over this exact
// accounting.
type serverStats struct {
	mu             sync.Mutex
	jobs           int
	cellsSubmitted int
	executed       int
	hits           int
	joined         int
	failedPuts     int
	keys           map[store.Key]struct{}
}

func newServerStats() *serverStats {
	return &serverStats{keys: make(map[store.Key]struct{})}
}

// addJob records one accepted submission, folds its keys into the
// distinct-key union, and returns its cell count.
func (s *serverStats) addJob(groups [][]experiment.Unit) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs++
	n := 0
	for _, g := range groups {
		for _, u := range g {
			s.keys[u.Key()] = struct{}{}
			n++
		}
	}
	s.cellsSubmitted += n
	return n
}

// cellDone records one resolved cell and whether its write-back failed.
func (s *serverStats) cellDone(source string, failedPut bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if failedPut {
		s.failedPuts++
	}
	switch source {
	case SourceExecuted:
		s.executed++
	case SourceStore:
		s.hits++
	case SourceJoined:
		s.joined++
	}
}

func (s *serverStats) snapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Jobs:               s.jobs,
		CellsSubmitted:     s.cellsSubmitted,
		DistinctKeys:       len(s.keys),
		Executed:           s.executed,
		StoreHits:          s.hits,
		Joined:             s.joined,
		FailedPuts:         s.failedPuts,
		CellFingerprint:    experiment.Fingerprint(),
		ProofFingerprint:   experiment.ProverFingerprint(),
		ConformFingerprint: experiment.ConformFingerprint(),
	}
}
