package serve_test

import (
	"bytes"
	"net/http/httptest"
	"sync"
	"testing"

	"timeprot/internal/cliutil"
	"timeprot/internal/experiment"
	"timeprot/internal/experiment/store"
	"timeprot/internal/serve"
	"timeprot/internal/serve/loadtest"
)

// smallSweep is the union matrix the end-to-end tests share: T2 at low
// rounds over two seeds — six cells, three finalisation groups per
// seed, enough to shard and overlap.
func smallSweep() experiment.Spec {
	return experiment.Spec{Scenarios: []string{"T2"}, Rounds: 8, Seeds: []uint64{42, 43}}
}

// newTestServer boots a server over a fresh file store behind a real
// HTTP listener and returns its base URL and a client.
func newTestServer(t *testing.T, cfg serve.Config) (string, *loadtest.Client) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return serveStore(t, st, cfg)
}

// serveStore boots a server over st behind a real HTTP listener.
func serveStore(t *testing.T, st store.CellStore, cfg serve.Config) (string, *loadtest.Client) {
	t.Helper()
	srv := serve.New(st, cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return hs.URL, loadtest.NewClient(hs.URL)
}

// TestLoadDedupAndByteIdentity is the tentpole invariant end to end:
// four concurrent clients submit overlapping sweeps (full, 0/2, 1/2,
// full duplicate) and the server must execute each distinct cell key
// exactly once, serve a union report byte-identical to a cold
// single-process run, and serve a warm replay round with zero further
// executions.
func TestLoadDedupAndByteIdentity(t *testing.T) {
	base, _ := newTestServer(t, serve.Config{})
	spec := smallSweep()
	cold, err := loadtest.ColdReport(spec)
	if err != nil {
		t.Fatal(err)
	}
	opt := loadtest.Options{BaseURL: base, Clients: 4, Shards: 2, Spec: spec}

	res, err := loadtest.Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := loadtest.Check(res, serve.Stats{}, cold); err != nil {
		t.Fatal(err)
	}
	if res.Stats.Executed == 0 {
		t.Fatal("cold round executed nothing")
	}

	warm, err := loadtest.Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := loadtest.Check(warm, res.Stats, cold); err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Executed != res.Stats.Executed {
		t.Fatalf("warm round executed %d cells; want 0", warm.Stats.Executed-res.Stats.Executed)
	}
}

// TestSweepWithProofsByteIdentity drives the sweep+proofs composite
// through the service: the scheduler must fill both the cell and proof
// stores and the assembled report must match the cold engine run.
func TestSweepWithProofsByteIdentity(t *testing.T) {
	_, c := newTestServer(t, serve.Config{})
	spec := experiment.Spec{
		Scenarios: []string{"T4"}, Rounds: 20, Seeds: []uint64{11},
		Proofs: true, ProofFamilies: 1, ProofRandom: 5,
	}
	cold, err := loadtest.ColdReport(spec)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := c.Submit(serve.SubmitRequest{Kind: serve.KindSweep, Sweep: &spec})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != serve.StateDone || st.Executed != st.Total || st.CellErrors != 0 {
		t.Fatalf("job finished %+v", st)
	}
	body, err := c.Result(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, cold) {
		t.Fatalf("served sweep+proofs report diverges from the cold run (%d vs %d bytes)", len(body), len(cold))
	}
}

// TestProofJobByteIdentity: a proof-matrix job's served report must be
// the exact bytes RunProofMatrix + WriteProofsJSON emit cold.
func TestProofJobByteIdentity(t *testing.T) {
	_, c := newTestServer(t, serve.Config{})
	spec := experiment.ProofSpec{
		Models: []string{"base"}, Ablations: []string{"full protection", "no flush"},
		Families: []int{2}, Random: 5, Seeds: []uint64{7},
	}
	m, err := experiment.RunProofMatrix(spec, experiment.ProofOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var cold bytes.Buffer
	if err := experiment.WriteProofsJSON(&cold, m); err != nil {
		t.Fatal(err)
	}
	sub, err := c.Submit(serve.SubmitRequest{Kind: serve.KindProof, Proof: &spec})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != serve.StateDone || st.Executed != st.Total {
		t.Fatalf("job finished %+v", st)
	}
	body, err := c.Result(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, cold.Bytes()) {
		t.Fatal("served proof report diverges from the cold run")
	}
}

// TestConformJobByteIdentity: same contract for the conformance matrix.
func TestConformJobByteIdentity(t *testing.T) {
	_, c := newTestServer(t, serve.Config{})
	spec := experiment.ConformanceSpec{
		Models: []string{"base"}, Ablations: []string{"full protection", "no pad"},
		Pairs: 2, Rounds: 10, Families: 2, Seeds: []uint64{7},
	}
	m, err := experiment.RunConformance(spec, experiment.ConformanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var cold bytes.Buffer
	if err := experiment.WriteConformanceJSON(&cold, m); err != nil {
		t.Fatal(err)
	}
	sub, err := c.Submit(serve.SubmitRequest{Kind: serve.KindConform, Conform: &spec})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != serve.StateDone || st.Executed != st.Total {
		t.Fatalf("job finished %+v", st)
	}
	body, err := c.Result(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, cold.Bytes()) {
		t.Fatal("served conformance report diverges from the cold run")
	}
}

// TestWarmSecondSubmission: a repeat submission of an already-served
// spec must come entirely from the store — zero executions — and serve
// identical bytes.
func TestWarmSecondSubmission(t *testing.T) {
	_, c := newTestServer(t, serve.Config{})
	spec := smallSweep()
	req := serve.SubmitRequest{Kind: serve.KindSweep, Sweep: &spec}

	sub1, err := c.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(sub1.ID); err != nil {
		t.Fatal(err)
	}
	first, err := c.Result(sub1.ID)
	if err != nil {
		t.Fatal(err)
	}

	sub2, err := c.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := c.Wait(sub2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != serve.StateDone {
		t.Fatalf("second job finished %s (%s)", st2.State, st2.Error)
	}
	if st2.Executed != 0 || st2.StoreHits != st2.Total {
		t.Fatalf("second submission not fully warm: %+v", st2)
	}
	second, err := c.Result(sub2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("warm submission served different bytes")
	}
}

// TestCancel: cancelling a running job ends it canceled, its result
// endpoint conflicts, and completed cells stay behind in the store for
// the next tenant.
func TestCancel(t *testing.T) {
	_, c := newTestServer(t, serve.Config{Workers: 1})
	seeds := make([]uint64, 30)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	spec := experiment.Spec{Scenarios: []string{"T2"}, Rounds: 60, Seeds: seeds}
	sub, err := c.Submit(serve.SubmitRequest{Kind: serve.KindSweep, Sweep: &spec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(sub.ID); err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != serve.StateCanceled {
		t.Fatalf("job finished %s, want %s", st.State, serve.StateCanceled)
	}
	if _, err := c.Result(sub.ID); err == nil {
		t.Fatal("result of a canceled job did not error")
	}
}

// kindCase is one job kind for the cross-kind service tests: its
// request, and the bytes the in-process engine emits for a shard.
type kindCase struct {
	name string
	req  serve.SubmitRequest
	cold func(sh experiment.ShardSel) ([]byte, error)
}

func kindCases(sweep experiment.Spec) []kindCase {
	proof := experiment.ProofSpec{
		Models: []string{"base"}, Ablations: []string{"full protection", "no flush", "no pad"},
		Families: []int{1}, Random: 5, Seeds: []uint64{7},
	}
	conf := experiment.ConformanceSpec{
		Models: []string{"base"}, Ablations: []string{"full protection", "no pad"},
		Pairs: 2, Rounds: 10, Families: 1, Seeds: []uint64{7},
	}
	return []kindCase{
		{"sweep", serve.SubmitRequest{Kind: serve.KindSweep, Sweep: &sweep}, func(sh experiment.ShardSel) ([]byte, error) {
			rep, err := experiment.Run(sweep, experiment.Options{Shard: sh})
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			err = experiment.WriteJSON(&buf, rep)
			return buf.Bytes(), err
		}},
		{"proof", serve.SubmitRequest{Kind: serve.KindProof, Proof: &proof}, func(sh experiment.ShardSel) ([]byte, error) {
			m, err := experiment.RunProofMatrix(proof, experiment.ProofOptions{Shard: sh})
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			err = experiment.WriteProofsJSON(&buf, m)
			return buf.Bytes(), err
		}},
		{"conform", serve.SubmitRequest{Kind: serve.KindConform, Conform: &conf}, func(sh experiment.ShardSel) ([]byte, error) {
			m, err := experiment.RunConformance(conf, experiment.ConformanceOptions{Shard: sh})
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			err = experiment.WriteConformanceJSON(&buf, m)
			return buf.Bytes(), err
		}},
	}
}

// TestKindsDedupAndShards holds every job kind to the service contract
// the sweep load test checks: a job, its duplicate and its two 1/2
// shards submitted concurrently execute each distinct key exactly once,
// and every served report — full or sharded — is byte-identical to the
// in-process engine run with the same shard selection.
func TestKindsDedupAndShards(t *testing.T) {
	for _, kc := range kindCases(smallSweep()) {
		t.Run(kc.name, func(t *testing.T) {
			_, c := newTestServer(t, serve.Config{Workers: 2})
			shards := []string{"", "", "0/2", "1/2"}
			ids := make([]string, len(shards))
			errs := make([]error, len(shards))
			var wg sync.WaitGroup
			for i, sh := range shards {
				wg.Add(1)
				go func() {
					defer wg.Done()
					req := kc.req
					req.Shard = sh
					sub, err := c.Submit(req)
					if err != nil {
						errs[i] = err
						return
					}
					ids[i] = sub.ID
					_, errs[i] = c.Wait(sub.ID)
				}()
			}
			wg.Wait()
			for i, sh := range shards {
				if errs[i] != nil {
					t.Fatalf("job %q: %v", sh, errs[i])
				}
				st, err := c.Status(ids[i])
				if err != nil {
					t.Fatal(err)
				}
				if st.State != serve.StateDone || st.CellErrors != 0 ||
					st.Executed+st.StoreHits+st.Joined != st.Total {
					t.Fatalf("job %q finished %+v", sh, st)
				}
				sel, err := cliutil.ParseShard(sh)
				if err != nil {
					t.Fatal(err)
				}
				want, err := kc.cold(sel)
				if err != nil {
					t.Fatal(err)
				}
				got, err := c.Result(ids[i])
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("job %q: served report differs from the engine run with the same shard", sh)
				}
			}
			stats, err := c.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if stats.Executed != stats.DistinctKeys || stats.FailedPuts != 0 {
				t.Fatalf("dedup invariant violated: executed %d for %d distinct keys (%d failed puts)",
					stats.Executed, stats.DistinctKeys, stats.FailedPuts)
			}
		})
	}
}
