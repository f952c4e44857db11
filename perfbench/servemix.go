package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"timeprot/internal/cliutil"
	"timeprot/internal/experiment"
	"timeprot/internal/experiment/store"
	"timeprot/internal/serve"
	"timeprot/internal/serve/loadtest"
)

// The serve-mixed workload: a long-lived in-process tpserved (two
// workers, a fresh packed store) behind a loopback listener, driven by
// a closed loop of two HTTP clients over a fixed schedule of rounds.
// Each round uses fresh seeds and runs four steps, both clients
// submitting at once and each waiting for its reply:
//
//  1. a small sweep, twice (the duplicate joins the first's flight),
//  2. the two 1/2 shards of a second small sweep,
//  3. a third small sweep, twice,
//  4. a proof job and a conformance job.
//
// A small sweep is one finalisation group — one scenario at one seed,
// the service's unit of work — so every sweep job takes about one
// group's time. Job latency is still multimodal: the conformance job
// is fastest, then the shards (which share both CPUs), the full
// sweeps, and the proof job. The full sweeps are half of all jobs and
// sit in the middle of that order, so the median job is always one of
// them, whichever way the shards fall.

const serveWorkers = 2

// serveScenario is the small sweeps' scenario.
const serveScenario = "T2"

// roundSeconds is the approximate length of one round, which sizes the
// fixed schedule from --seconds.
const roundSeconds = 0.55

// mix derives the independent seed of one job family of one round.
func mix(seed uint64, round, family int) uint64 {
	z := seed ^ uint64(round)<<32 ^ uint64(family)<<56
	z += 0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func smallSweep(seeds ...uint64) *experiment.Spec {
	return &experiment.Spec{Scenarios: []string{serveScenario}, Rounds: 60, Seeds: seeds}
}

// heavyAblations are the ablation rows of the proof and conformance
// jobs: one cell each, so in step 4 each job has a worker to itself
// and its latency does not depend on which request arrived first.
var heavyAblations = []string{"no flush"}

// roundJobs is the schedule of one round: one pair of requests per step.
func roundJobs(c config, round int) [][2]serve.SubmitRequest {
	x1 := smallSweep(mix(c.seed, round, 1))
	y := smallSweep(mix(c.seed, round, 2), mix(c.seed, round, 3))
	x2 := smallSweep(mix(c.seed, round, 4))
	hs := mix(c.seed, round, 5)
	return [][2]serve.SubmitRequest{
		{{Kind: serve.KindSweep, Sweep: x1}, {Kind: serve.KindSweep, Sweep: x1}},
		{{Kind: serve.KindSweep, Sweep: y, Shard: "0/2"}, {Kind: serve.KindSweep, Sweep: y, Shard: "1/2"}},
		{{Kind: serve.KindSweep, Sweep: x2}, {Kind: serve.KindSweep, Sweep: x2}},
		{
			{Kind: serve.KindProof, Proof: &experiment.ProofSpec{Ablations: heavyAblations, Models: []string{"base"},
				Families: []int{1}, Random: 0, Seeds: []uint64{hs}}},
			{Kind: serve.KindConform, Conform: &experiment.ConformanceSpec{Models: []string{"base"}, Ablations: heavyAblations,
				Pairs: 1, Rounds: 16, Families: 1, Seeds: []uint64{hs}}},
		},
	}
}

// service is one running tpserved with its client.
type service struct {
	srv    *serve.Server
	hs     *http.Server
	served sync.WaitGroup
	base   string
	client *loadtest.Client
	timed  *timedStore
}

// startService opens a fresh packed store in a new directory under
// tmp and serves it on a loopback port. With tr set the store is
// wrapped in the timing decorator.
func startService(c config, tr *tracer) (*service, error) {
	dir, err := os.MkdirTemp(c.tmp, "serve-")
	if err != nil {
		return nil, err
	}
	st, err := store.OpenBackend(store.BackendPacked, dir, store.PackedOptions{})
	if err != nil {
		return nil, err
	}
	s := &service{}
	if tr != nil {
		s.timed = newTimedStore(st, "serve", tr)
		st = s.timed
	}
	s.srv = serve.New(st, serve.Config{Workers: serveWorkers})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		return nil, err
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.served.Add(1)
	go func() {
		defer s.served.Done()
		s.hs.Serve(ln)
	}()
	s.base = "http://" + ln.Addr().String()
	s.client = loadtest.NewClient(s.base)
	return s, nil
}

// stop shuts the listener and the server down and waits for both.
func (s *service) stop() error {
	err := s.hs.Close()
	s.served.Wait()
	if cerr := s.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// jobRun is one job's outcome as the client saw it.
type jobRun struct {
	req    serve.SubmitRequest
	round  int
	status serve.JobStatus
	body   []byte
	err    error
	total  time.Duration
	submit time.Duration
	first  time.Duration // submit reply -> first cell event (traced only)
	result time.Duration
}

// doJob submits one job, waits for it and fetches its result bytes.
// Traced, it follows the event stream itself to time the first cell
// event and records the job as one pass of spans.
func (s *service) doJob(req serve.SubmitRequest, tr *tracer, pass int) jobRun {
	const wl = "serve-mixed"
	j := jobRun{req: req}
	start := time.Now()
	root := tr.open(wl, pass, 0, "bench", "job."+req.Kind)
	id := tr.open(wl, pass, root, "serve", "serve.submit")
	sub, err := s.client.Submit(req)
	tr.close(id)
	j.submit = time.Since(start)
	if err != nil {
		j.err = err
		return j
	}
	if tr == nil {
		j.status, j.err = s.client.Wait(sub.ID)
	} else {
		j.status, j.first, j.err = s.follow(sub.ID, tr, pass, root)
	}
	if j.err != nil {
		return j
	}
	t := time.Now()
	id = tr.open(wl, pass, root, "serve", "serve.result")
	j.body, j.err = s.client.Result(sub.ID)
	tr.close(id)
	j.result = time.Since(t)
	tr.close(root)
	j.total = time.Since(start)
	return j
}

// follow reads the job's NDJSON stream to its end, recording the wait
// for the first cell event (queue) and the rest (exec), then fetches
// the final status.
func (s *service) follow(id string, tr *tracer, pass, root int) (serve.JobStatus, time.Duration, error) {
	const wl = "serve-mixed"
	start := time.Now()
	resp, err := http.Get(s.base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		return serve.JobStatus{}, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return serve.JobStatus{}, 0, fmt.Errorf("stream %s: %s", id, resp.Status)
	}
	var first time.Time
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		if !first.IsZero() {
			continue
		}
		var ev serve.Event
		if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Type == "cell" {
			first = time.Now()
		}
	}
	if err := sc.Err(); err != nil {
		return serve.JobStatus{}, 0, err
	}
	end := time.Now()
	if first.IsZero() {
		first = end
	}
	tr.add(wl, pass, root, "queue", "serve.queue", start, first)
	tr.add(wl, pass, root, "exec", "serve.exec", first, end)
	t := time.Now()
	st, err := s.client.Status(id)
	tr.add(wl, pass, root, "serve", "serve.status", t, time.Now())
	return st, first.Sub(start), err
}

// roundRun is one round's jobs plus the server accounting around it.
type roundRun struct {
	jobs          []jobRun
	before, after serve.Stats
	wall          time.Duration
}

// runRounds drives rounds [from, to) of the schedule. Traced, each job
// is one trace pass, numbered from passBase.
func (s *service) runRounds(c config, from, to int, tr *tracer, passBase int) ([]roundRun, error) {
	var out []roundRun
	pass := passBase
	for round := from; round < to; round++ {
		rr := roundRun{}
		start := time.Now()
		var err error
		if rr.before, err = s.client.Stats(); err != nil {
			return nil, err
		}
		for _, step := range roundJobs(c, round) {
			var pair [2]jobRun
			var wg sync.WaitGroup
			for k := range step {
				wg.Add(1)
				go func(k, pass int) {
					defer wg.Done()
					pair[k] = s.doJob(step[k], tr, pass)
					pair[k].round = round
				}(k, pass+k)
			}
			wg.Wait()
			pass += len(step)
			rr.jobs = append(rr.jobs, pair[:]...)
		}
		if rr.after, err = s.client.Stats(); err != nil {
			return nil, err
		}
		rr.wall = time.Since(start)
		out = append(out, rr)
	}
	return out, nil
}

// serveSetup starts a service and runs one warm-up sweep job at a seed
// no round uses, so the first timed job does not pay the workers'
// one-time costs.
func serveSetup(c config, tr *tracer) (*service, time.Duration, error) {
	start := time.Now()
	s, err := startService(c, tr)
	if err != nil {
		return nil, 0, err
	}
	j := s.doJob(serve.SubmitRequest{Kind: serve.KindSweep, Sweep: smallSweep(mix(c.seed, -1, 0))}, nil, 0)
	if j.err == nil && j.status.State != serve.StateDone {
		j.err = fmt.Errorf("warm-up job finished %s: %s", j.status.State, j.status.Error)
	}
	if j.err != nil {
		s.stop()
		return nil, 0, j.err
	}
	return s, time.Since(start), nil
}

func scheduleRounds(c config) int {
	if c.min {
		return 1
	}
	return max(1, int(c.seconds/roundSeconds+0.5))
}

func serveMixed(c config) (*run, error) {
	r := newRun()
	var setups []float64
	var s *service
	for i := 0; i < 3; i++ {
		si, d, err := serveSetup(c, nil)
		if err != nil {
			if s != nil {
				s.stop()
			}
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if s != nil {
			if err := s.stop(); err != nil {
				si.stop()
				return nil, err
			}
		}
		s = si
	}

	heap := startHeapSampler()
	rounds, err := s.runRounds(c, 0, scheduleRounds(c), nil, 0)
	peak := heap.Stop()
	if serr := s.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}

	simOps, err := checkServe(r, c, rounds)
	if err != nil {
		return nil, err
	}
	var lat, jobRate, opsRate []float64
	for i, rr := range rounds {
		jobRate = append(jobRate, float64(len(rr.jobs))/rr.wall.Seconds())
		opsRate = append(opsRate, float64(simOps[i])/rr.wall.Seconds())
		for _, j := range rr.jobs {
			lat = append(lat, ms(j.total))
		}
	}
	t := tailOf(lat)
	for class, xs := range jobClasses(rounds) {
		r.note("serve-mixed: %s jobs: n=%d median %.1f ms", class, len(xs), median(xs))
	}
	r.set("setup_s", "s", median(setups))
	r.set("latency_ms", "ms", median(lat))
	r.set("latency_tail_ms", "ms", t.Value)
	r.set("work_per_s", "1/s", median(jobRate))
	r.set("simops_per_s", "1/s", median(opsRate))
	r.set("peak_live_heap_mb", "MB", peak)
	r.note("serve-mixed: %d rounds, %d jobs; work_per_s and simops_per_s are medians over rounds; latency_tail_ms is p%g of %d jobs; simops_per_s counts the simulated operations of the served sweep rows",
		len(rounds), len(lat), t.Pct, t.Samples)
	return r, nil
}

// checkServe checks every round: executed == distinct keys, the
// per-job accounting closes, and every served sweep report equals an
// in-process engine run of the same request. It returns the simulated
// operations of the served sweep rows, per round.
func checkServe(r *run, c config, rounds []roundRun) ([]uint64, error) {
	want, err := inProcessSweeps(rounds)
	if err != nil {
		return nil, err
	}
	simOps := make([]uint64, len(rounds))
	for i, rr := range rounds {
		executed := rr.after.Executed - rr.before.Executed
		distinct := rr.after.DistinctKeys - rr.before.DistinctKeys
		bad := 0
		if executed != distinct || rr.after.FailedPuts != rr.before.FailedPuts {
			bad = 1
		}
		r.check(1, bad, "serve-mixed: round executed %d cells for %d distinct keys (%d failed puts)",
			executed, distinct, rr.after.FailedPuts-rr.before.FailedPuts)
		for _, j := range rr.jobs {
			if err := checkJob(j); err != nil {
				r.check(1, 1, "serve-mixed: round %d %s job: %v", j.round, j.req.Kind, err)
				continue
			}
			if j.req.Kind != serve.KindSweep {
				r.check(1, 0, "")
				continue
			}
			if !bytes.Equal(j.body, want[reqKey(j.req)]) {
				r.check(1, 1, "serve-mixed: round %d sweep job %s (shard %q): served report differs from the in-process run",
					j.round, j.status.ID, j.req.Shard)
				continue
			}
			r.check(1, 0, "")
			var rep experiment.Report
			if err := json.Unmarshal(j.body, &rep); err != nil {
				return nil, err
			}
			simOps[i] += rep.TotalSimOps()
		}
	}
	return simOps, nil
}

func reqKey(req serve.SubmitRequest) string {
	b, _ := json.Marshal(req) // a SubmitRequest always encodes
	return string(b)
}

// inProcessSweeps runs every distinct sweep request of the rounds cold
// in-process, two at a time: the bytes the service must serve.
func inProcessSweeps(rounds []roundRun) (map[string][]byte, error) {
	var reqs []serve.SubmitRequest
	seen := map[string]bool{}
	for _, rr := range rounds {
		for _, j := range rr.jobs {
			if k := reqKey(j.req); j.req.Kind == serve.KindSweep && !seen[k] {
				seen[k] = true
				reqs = append(reqs, j.req)
			}
		}
	}
	out := make([][]byte, len(reqs))
	errs := make([]error, len(reqs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < serveWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = inProcessSweep(reqs[i])
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	want := map[string][]byte{}
	for i, req := range reqs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		want[reqKey(req)] = out[i]
	}
	return want, nil
}

// checkJob checks one job's state and accounting, as loadtest.Check
// does for its rounds.
func checkJob(j jobRun) error {
	if j.err != nil {
		return j.err
	}
	st := j.status
	switch {
	case st.State != serve.StateDone:
		return fmt.Errorf("finished %s (%s)", st.State, st.Error)
	case st.Done != st.Total || st.Executed+st.StoreHits+st.Joined != st.Done:
		return fmt.Errorf("accounting broken: total=%d done=%d executed=%d hits=%d joined=%d",
			st.Total, st.Done, st.Executed, st.StoreHits, st.Joined)
	case st.CellErrors > 0:
		return fmt.Errorf("%d cell errors", st.CellErrors)
	case len(j.body) == 0:
		return errors.New("empty result")
	}
	return nil
}

// inProcessSweep runs a sweep request cold in-process: the bytes the
// service must serve for it.
func inProcessSweep(req serve.SubmitRequest) ([]byte, error) {
	sh, err := cliutil.ParseShard(req.Shard)
	if err != nil {
		return nil, err
	}
	rep, err := experiment.Run(*req.Sweep, experiment.Options{Parallelism: 1, Shard: sh})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = experiment.WriteJSON(&buf, rep)
	return buf.Bytes(), err
}

// jobClass names a job's latency class: its kind, and for a sweep
// whether it was the first full sweep, its duplicate, or a shard.
func jobClass(j jobRun, k int) string {
	switch {
	case j.req.Kind != serve.KindSweep:
		return j.req.Kind
	case j.req.Shard != "":
		return "sweep_shard"
	case k%2 == 1:
		return "sweep_dup"
	}
	return "sweep_full"
}

func jobClasses(rounds []roundRun) map[string][]float64 {
	out := map[string][]float64{}
	for _, rr := range rounds {
		for k, j := range rr.jobs {
			out[jobClass(j, k)] = append(out[jobClass(j, k)], ms(j.total))
		}
	}
	return out
}
