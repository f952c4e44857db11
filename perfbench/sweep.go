package main

import (
	"bytes"
	"encoding/json"
	"time"

	"timeprot/internal/experiment"
)

// The sweep-cold workload: the paper's attack x mitigation evaluation,
// cold (no store), on one engine worker, with the proof matrix off.
// One engine worker keeps a pass a single chain of cells (two workers
// on two CPUs spread a pass far more); the cold prover is GC-bound and
// spreads widely, so it is measured by replay-warm and serve-mixed
// instead.

// docsSeed is the seed EXPERIMENTS.md and testdata/docs-store were made
// with.
const docsSeed = 42

func sweepSpec(c config) experiment.Spec {
	rounds := 60
	if c.min {
		rounds = 1 // each scenario raises it to its own minimum
	}
	return experiment.Spec{Scenarios: []string{"all"}, Rounds: rounds, Seeds: []uint64{c.seed}}
}

// sweepPass is one timed matrix pass.
type sweepPass struct {
	dur     time.Duration
	rep     *experiment.Report
	json    []byte
	cellMS  []float64 // per-cell time, in completion order
	cellIDs []string  // scenario of each cellMS entry
	// finalize is the engine's time after the last cell: cross-row
	// post-processing and report assembly (one worker only).
	finalize time.Duration
}

// runSweepPass runs the matrix once and renders its JSON report. With
// one worker it records each cell's time from the engine's progress
// callback; under a tracer it records the pass as spans.
func runSweepPass(spec experiment.Spec, workers int, tr *tracer, pass int) (sweepPass, error) {
	const wl = "sweep-cold"
	var p sweepPass
	start := time.Now()
	root := tr.open(wl, pass, 0, "bench", "pass")
	runSpan := tr.open(wl, pass, root, "engine", "engine.run")
	opt := experiment.Options{Parallelism: workers}
	last := time.Now()
	if workers == 1 {
		opt.Progress = func(done, total int, c experiment.Cell) {
			now := time.Now()
			p.cellMS = append(p.cellMS, ms(now.Sub(last)))
			p.cellIDs = append(p.cellIDs, c.ScenarioID)
			tr.add(wl, pass, runSpan, "attacks", "attacks.cell."+c.ScenarioID, last, now)
			last = now
		}
	}
	rep, err := experiment.Run(spec, opt)
	tr.close(runSpan)
	p.finalize = time.Since(last)
	if err != nil {
		return p, err
	}
	render := tr.open(wl, pass, root, "render", "engine.render")
	var buf bytes.Buffer
	if err := experiment.WriteJSON(&buf, rep); err != nil {
		return p, err
	}
	tr.close(render)
	tr.close(root)
	p.dur = time.Since(start)
	p.rep, p.json = rep, buf.Bytes()
	return p, nil
}

// sweepSetup is the time until the first timed pass can be issued:
// expanding the matrix and running its first scenario once as a
// warm-up, which pays the engine's lazy one-time costs (code and
// runtime warm-up, pooled machines growing to size).
func sweepSetup(spec experiment.Spec) (time.Duration, error) {
	t := time.Now()
	cells, err := spec.Cells()
	if err != nil {
		return 0, err
	}
	warm := spec
	warm.Scenarios = []string{cells[0].ScenarioID}
	if _, err := experiment.Run(warm, experiment.Options{Parallelism: 1}); err != nil {
		return 0, err
	}
	return time.Since(t), nil
}

func sweepCold(c config) (*run, error) {
	r := newRun()
	spec := sweepSpec(c)
	var setups []float64
	for i := 0; i < 5; i++ {
		d, err := sweepSetup(spec)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}

	heap := startHeapSampler()
	start := time.Now()
	var passes []sweepPass
	for len(passes) == 0 || time.Since(start).Seconds() < c.seconds {
		p, err := runSweepPass(spec, 1, nil, 0)
		if err != nil {
			heap.Stop()
			return nil, err
		}
		passes = append(passes, p)
	}
	peak := heap.Stop()

	if err := checkSweep(r, c, spec, passes); err != nil {
		return nil, err
	}

	var passMS []float64
	for _, p := range passes {
		passMS = append(passMS, ms(p.dur))
	}
	t := tailOf(cellMedians(passes))
	cells := float64(len(passes[0].rep.Cells))
	lat := median(passMS)
	r.set("setup_s", "s", median(setups))
	r.set("latency_ms", "ms", lat)
	r.set("work_per_s", "1/s", cells/(lat/1e3))
	r.set("simops_per_s", "1/s", float64(passes[0].rep.TotalSimOps())/(lat/1e3))
	r.set("latency_tail_ms", "ms", t.Value)
	r.set("peak_live_heap_mb", "MB", peak)
	r.note("sweep-cold: %d passes of %d cells; latency_ms is one pass; latency_tail_ms is p%g of the %d cells' times (each cell's median over passes)",
		len(passes), int(cells), t.Pct, t.Samples)
	return r, nil
}

// cellMedians is each cell's median time over the passes. A small
// cell's time jitters by tens of percent from one pass to the next; the
// median keeps that jitter out of the tail.
func cellMedians(passes []sweepPass) []float64 {
	out := make([]float64, len(passes[0].cellMS))
	for i := range out {
		var xs []float64
		for _, p := range passes {
			if i < len(p.cellMS) {
				xs = append(xs, p.cellMS[i])
			}
		}
		out[i] = median(xs)
	}
	return out
}

// checkSweep checks every pass's rows. At the docs seed the reference
// is the committed docs store replayed warm (warm == cold); at any
// other seed it is the first pass (every pass is byte-identical).
func checkSweep(r *run, c config, spec experiment.Spec, passes []sweepPass) error {
	ref := passes[0].rep
	if c.seed == docsSeed {
		st, err := openDocsCopy(c.tmp, "sweep-ref")
		if err != nil {
			return err
		}
		defer st.Close()
		var stats experiment.CacheStats
		ref, err = experiment.Run(spec, experiment.Options{Parallelism: 1, Store: st, Stats: &stats})
		if err != nil {
			return err
		}
		r.check(1, stats.Executed, "sweep-cold: docs store replay executed %d cells; want 0", stats.Executed)
	}
	for i, p := range passes {
		bad := 0
		for j, cell := range p.rep.Cells {
			if cell.Err != "" || j >= len(ref.Cells) || !sameJSON(cell, ref.Cells[j]) {
				bad++
			}
		}
		if len(p.rep.Cells) != len(ref.Cells) {
			bad += len(ref.Cells)
		}
		r.check(len(p.rep.Cells), bad, "sweep-cold: pass %d: %d of %d cells differ from the reference (or failed)", i+1, bad, len(p.rep.Cells))
	}
	return nil
}

// sameJSON reports whether two values encode to the same JSON bytes.
func sameJSON(a, b any) bool {
	x, err1 := json.Marshal(a)
	y, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(x, y)
}
