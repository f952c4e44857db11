package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"timeprot/internal/experiment"
	"timeprot/internal/experiment/store"
)

// The replay-warm workload: the CI docs flow. Every pass regenerates
// EXPERIMENTS.md and PROOFS.md warm from copies of the committed docs
// store, plus a small conformance matrix filled cold at set-up, on one
// engine worker so a pass is one chain of store reads. Passes alternate
// between the file backend (the committed layout) and a packed copy
// built with MergeFrom. No pass simulates anything.

// docsSweepSpec is the sweep behind EXPERIMENTS.md (the tpbench command
// embedded in that file).
func docsSweepSpec() experiment.Spec {
	return experiment.Spec{Scenarios: []string{"all"}, Rounds: 60, Seeds: []uint64{docsSeed},
		Trials: 1, Proofs: true, ProofFamilies: 5, ProofRandom: 200}
}

// docsProofSpec is the proof matrix behind PROOFS.md (the tpprove
// command embedded in that file).
func docsProofSpec() experiment.ProofSpec {
	return experiment.ProofSpec{Ablations: []string{"all"}, Models: []string{"all"},
		Families: []int{5}, Random: 200, Seeds: []uint64{docsSeed}}
}

// replayConformSpec is the small conformance matrix set-up fills cold.
func replayConformSpec(c config) experiment.ConformanceSpec {
	pairs := 2
	if c.min {
		pairs = 1
	}
	return experiment.ConformanceSpec{Models: []string{"base"}, Pairs: pairs, Rounds: 16, Families: 2,
		Seeds: []uint64{c.seed}}
}

// replayStores are one set-up's stores: the docs store copied as
// committed (file backend) and a packed copy, both holding the
// conformance matrix too.
type replayStores struct {
	backends [2]string
	stores   [2]store.CellStore
	// conform is the cold conformance report every warm pass must
	// reproduce.
	conform []byte
	openMS  [2]float64
}

func (s *replayStores) close() {
	for _, st := range s.stores {
		if st != nil {
			st.Close()
		}
	}
}

// replaySetup copies the docs store, opens it, fills the conformance
// matrix cold into it, and builds and reopens the packed copy.
func replaySetup(c config) (_ *replayStores, _ time.Duration, err error) {
	start := time.Now()
	s := &replayStores{backends: [2]string{store.BackendFile, store.BackendPacked}}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	dir, err := os.MkdirTemp(c.tmp, "replay-")
	if err != nil {
		return nil, 0, err
	}
	fileDir, packedDir := filepath.Join(dir, "file"), filepath.Join(dir, "packed")
	if err := copyDir(docsStore, fileDir); err != nil {
		return nil, 0, fmt.Errorf("copying the docs store: %w", err)
	}
	t := time.Now()
	if s.stores[0], err = store.OpenBackend(store.BackendFile, fileDir, store.PackedOptions{}); err != nil {
		return nil, 0, err
	}
	s.openMS[0] = ms(time.Since(t))
	m, err := experiment.RunConformance(replayConformSpec(c), experiment.ConformanceOptions{Parallelism: 1, Store: s.stores[0]})
	if err != nil {
		return nil, 0, err
	}
	var buf bytes.Buffer
	if err := experiment.WriteConformanceJSON(&buf, m); err != nil {
		return nil, 0, err
	}
	s.conform = buf.Bytes()
	p, err := store.OpenBackend(store.BackendPacked, packedDir, store.PackedOptions{})
	if err == nil {
		_, err = p.MergeFrom(fileDir)
		if cerr := p.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, 0, fmt.Errorf("packing the docs store: %w", err)
	}
	t = time.Now()
	if s.stores[1], err = store.OpenBackend(store.BackendPacked, packedDir, store.PackedOptions{}); err != nil {
		return nil, 0, err
	}
	s.openMS[1] = ms(time.Since(t))
	return s, time.Since(start), nil
}

// replayOut is one pass's outputs.
type replayOut struct {
	dur                   time.Duration
	experiments, proofs   []byte
	conform               []byte
	cells, hits, executed int
	simOps                uint64
}

// replayPass regenerates the three reports once from st. Under a
// tracer it records the engine calls and renders as spans, and ts (the
// timing decorator around st, when non-nil) records the store reads
// under them.
func replayPass(c config, st store.CellStore, ts *timedStore, tr *tracer, pass int) (replayOut, error) {
	const wl = "replay-warm"
	var o replayOut
	start := time.Now()
	root := tr.open(wl, pass, 0, "bench", "pass")
	engine := func(name string) int {
		id := tr.open(wl, pass, root, "engine", name)
		if ts != nil {
			ts.within(wl, pass, id)
		}
		return id
	}
	render := func(name string, write func(*bytes.Buffer) error) ([]byte, error) {
		id := tr.open(wl, pass, root, "render", name)
		defer tr.close(id)
		var buf bytes.Buffer
		err := write(&buf)
		return buf.Bytes(), err
	}

	var s1, s2, s3 experiment.CacheStats
	id := engine("engine.run.sweep")
	rep, err := experiment.Run(docsSweepSpec(), experiment.Options{Parallelism: 1, Store: st, Stats: &s1})
	tr.close(id)
	if err != nil {
		return o, err
	}
	if o.experiments, err = render("engine.render.experiments", func(b *bytes.Buffer) error { return experiment.WriteMarkdown(b, rep) }); err != nil {
		return o, err
	}
	id = engine("engine.run.proof")
	pm, err := experiment.RunProofMatrix(docsProofSpec(), experiment.ProofOptions{Parallelism: 1, Store: st, Stats: &s2})
	tr.close(id)
	if err != nil {
		return o, err
	}
	if o.proofs, err = render("engine.render.proofs", func(b *bytes.Buffer) error { return experiment.WriteProofsMarkdown(b, pm) }); err != nil {
		return o, err
	}
	id = engine("engine.run.conform")
	cm, err := experiment.RunConformance(replayConformSpec(c), experiment.ConformanceOptions{Parallelism: 1, Store: st, Stats: &s3})
	tr.close(id)
	if err != nil {
		return o, err
	}
	if o.conform, err = render("engine.render.conform", func(b *bytes.Buffer) error { return experiment.WriteConformanceJSON(b, cm) }); err != nil {
		return o, err
	}
	tr.close(root)
	o.dur = time.Since(start)
	if ts != nil {
		ts.within("", 0, 0)
	}
	o.cells = s1.Total + s1.ProofTotal + s2.Total + s3.Total
	o.hits = s1.Hits + s1.ProofHits + s2.Hits + s3.Hits
	o.executed = s1.Executed + s1.ProofExecuted + s2.Executed + s3.Executed
	o.simOps = rep.TotalSimOps()
	return o, nil
}

// replayRef is what every replay pass must reproduce byte for byte.
type replayRef struct{ experiments, proofs, conform []byte }

func loadReplayRef(conform []byte) (replayRef, error) {
	e, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		return replayRef{}, err
	}
	p, err := os.ReadFile("PROOFS.md")
	if err != nil {
		return replayRef{}, err
	}
	return replayRef{e, p, conform}, nil
}

// checkReplay counts one pass's replayed cells and fails every cell of
// a pass whose reports drift, that executed anything, or that missed.
func checkReplay(r *run, ref replayRef, o replayOut, pass int) {
	bad := o.cells - o.hits
	if o.executed > 0 {
		bad = max(bad, o.executed)
	}
	var drift []string
	if !bytes.Equal(o.experiments, ref.experiments) {
		drift = append(drift, "EXPERIMENTS.md")
	}
	if !bytes.Equal(o.proofs, ref.proofs) {
		drift = append(drift, "PROOFS.md")
	}
	if !bytes.Equal(o.conform, ref.conform) {
		drift = append(drift, "conformance report")
	}
	if len(drift) > 0 {
		bad = o.cells
	}
	r.check(o.cells, bad, "replay-warm: pass %d: %d misses, %d executions, drifted: %v", pass, o.cells-o.hits, o.executed, drift)
}

// replayTailWindow is how many consecutive passes form one window of
// latency_tail_ms: about three seconds of passes, whose tail is p95.
const replayTailWindow = 500

func replayWarm(c config) (*run, error) {
	r := newRun()
	var setups []float64
	var stores *replayStores
	for i := 0; i < 3; i++ {
		s, d, err := replaySetup(c)
		if err != nil {
			if stores != nil {
				stores.close()
			}
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if stores != nil {
			stores.close()
		}
		stores = s
	}
	defer stores.close()
	ref, err := loadReplayRef(stores.conform)
	if err != nil {
		return nil, err
	}

	heap := startHeapSampler()
	start := time.Now()
	var passMS []float64
	var last replayOut
	for i := 0; len(passMS) == 0 || time.Since(start).Seconds() < c.seconds; i++ {
		o, err := replayPass(c, stores.stores[(i+int(c.seed%2))%2], nil, nil, 0)
		if err != nil {
			heap.Stop()
			return nil, err
		}
		checkReplay(r, ref, o, i+1)
		passMS = append(passMS, ms(o.dur))
		last = o
	}
	peak := heap.Stop()

	lat := median(passMS)
	t, windows := windowTail(passMS, replayTailWindow)
	r.set("setup_s", "s", median(setups))
	r.set("latency_ms", "ms", lat)
	r.set("latency_tail_ms", "ms", t.Value)
	r.set("work_per_s", "1/s", float64(last.cells)/(lat/1e3))
	r.set("simops_per_s", "1/s", float64(last.simOps)/(lat/1e3))
	r.set("peak_live_heap_mb", "MB", peak)
	r.note("replay-warm: %d passes of %d cells; latency_tail_ms is the median over %d windows of each window's p%g of %d passes; simops_per_s counts the simulated operations of the replayed rows",
		len(passMS), last.cells, windows, t.Pct, t.Samples)
	return r, nil
}
