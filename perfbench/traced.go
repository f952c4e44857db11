package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"timeprot/internal/experiment"
)

// tracedReport is the --trace 1 run: it runs every workload once more,
// untraced and then traced, and prints the per-layer metrics of all of
// them together with the repository's micro-benchmarks. Spans are kept
// in memory and written to tracePath once at the end.
func tracedReport(c config, tracePath string) (*run, error) {
	r := newRun()
	tr := newTracer()
	if err := traceSweep(r, c, tr); err != nil {
		return nil, fmt.Errorf("sweep-cold: %w", err)
	}
	if err := traceReplay(r, c, tr); err != nil {
		return nil, fmt.Errorf("replay-warm: %w", err)
	}
	if err := traceServe(r, c, tr); err != nil {
		return nil, fmt.Errorf("serve-mixed: %w", err)
	}
	if err := runMicro(r, c.min); err != nil {
		return nil, err
	}
	for _, wl := range []string{"sweep-cold", "replay-warm", "serve-mixed"} {
		p := tr.profile(wl)
		if p.passes == 0 {
			return nil, fmt.Errorf("%s: no traced pass", wl)
		}
		layers := make([]string, 0, len(p.selfMS))
		for l := range p.selfMS {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			r.set("selftime_ms."+wl+"."+l, "ms", p.selfMS[l]/float64(p.passes))
		}
		r.set("trace.accounting_err_pct."+wl, "%", 100*p.worstErr)
		r.check(p.passes, boolInt(p.worstErr > 0.01),
			"%s: layer self times miss a traced pass's wall time by %.2f%%", wl, 100*p.worstErr)
		r.note("%s: self times over %d traced passes add up to %.1f ms of %.1f ms pass wall time",
			wl, p.passes, sumValues(p.selfMS), p.wallMS)
	}
	return r, tr.write(tracePath)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func sumValues(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}

func overheadPct(traced, untraced float64) float64 { return 100 * (traced - untraced) / untraced }

// traceSweep: one untraced pass (the baseline, and the GC and
// allocation figures), one traced pass (cell and engine spans), and one
// untraced pass on two workers for the worker-scaling pair. All three
// must render the same report.
func traceSweep(r *run, c config, tr *tracer) error {
	const wl = "sweep-cold"
	spec := sweepSpec(c)
	if _, err := sweepSetup(spec); err != nil {
		return err
	}
	var expand []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		if _, err := spec.Cells(); err != nil {
			return err
		}
		expand = append(expand, ms(time.Since(t)))
	}
	r.set("engine.expand_ms", "ms", median(expand))

	before := memNow()
	plain, err := runSweepPass(spec, 1, nil, 0)
	if err != nil {
		return err
	}
	mem := memSince(before)
	traced, err := runSweepPass(spec, 1, tr, 1)
	if err != nil {
		return err
	}
	w2, err := runSweepPass(spec, 2, nil, 0)
	if err != nil {
		return err
	}
	for _, p := range []sweepPass{traced, w2} {
		r.check(len(p.rep.Cells), boolInt(!bytes.Equal(p.json, plain.json))*len(p.rep.Cells),
			"%s: traced or two-worker pass differs from the untraced pass", wl)
	}

	cells := float64(len(plain.rep.Cells))
	perScen := map[string]float64{}
	var cellTotal float64
	for i, id := range traced.cellIDs {
		perScen[id] += traced.cellMS[i]
		cellTotal += traced.cellMS[i]
	}
	for id, v := range perScen {
		r.set("attacks.cell_ms."+id, "ms", v)
	}
	var samples int
	for _, cr := range traced.rep.Cells {
		samples += cr.N
	}
	simops := float64(traced.rep.TotalSimOps())
	r.set("kernel.simops", "count", simops)
	r.set("kernel.ns_per_simop", "ns", cellTotal*1e6/simops)
	r.set("channel.samples", "count", float64(samples))
	renderMS := tr.profile(wl).selfMS["render"]
	r.set("engine.report_ms", "ms", renderMS+ms(traced.finalize))
	r.set("engine.cells_per_s.w1", "1/s", cells/plain.dur.Seconds())
	r.set("engine.cells_per_s.w2", "1/s", cells/w2.dur.Seconds())
	r.set("runtime.gc_cycles.sweep-cold", "count", mem.gcCycles)
	r.set("runtime.alloc_mb.sweep-cold", "MB", mem.allocMB)
	r.set("runtime.allocs_per_cell", "count", mem.mallocs/cells)
	r.set("trace.overhead_pct.sweep-cold", "%", overheadPct(ms(traced.dur), ms(plain.dur)))
	return nil
}

// replayTracePasses is how many passes each side of the replay-warm
// overhead comparison runs.
const replayTracePasses = 200

// traceReplay: set-up once (the store open times), then passes
// untraced on the plain stores and traced on the timing decorators.
func traceReplay(r *run, c config, tr *tracer) error {
	const wl = "replay-warm"
	stores, _, err := replaySetup(c)
	if err != nil {
		return err
	}
	defer stores.close()
	ref, err := loadReplayRef(stores.conform)
	if err != nil {
		return err
	}
	r.set("store.open_ms.file", "ms", stores.openMS[0])
	r.set("store.open_ms.packed", "ms", stores.openMS[1])

	keyUS, err := replayKeyUS(c)
	if err != nil {
		return err
	}
	r.set("engine.key_us", "us", keyUS)

	n := replayTracePasses
	if c.min {
		n = 4
	}
	var timed [2]*timedStore
	for i := range timed {
		timed[i] = newTimedStore(stores.stores[i], stores.backends[i], tr)
	}
	var plainMS, tracedMS []float64
	before := memNow()
	for i := 0; i < n; i++ {
		o, err := replayPass(c, stores.stores[i%2], nil, nil, 0)
		if err != nil {
			return err
		}
		checkReplay(r, ref, o, i+1)
		plainMS = append(plainMS, ms(o.dur))
	}
	mem := memSince(before)
	for i := 0; i < n; i++ {
		o, err := replayPass(c, timed[i%2], timed[i%2], tr, i+1)
		if err != nil {
			return err
		}
		checkReplay(r, ref, o, n+i+1)
		tracedMS = append(tracedMS, ms(o.dur))
	}

	gets, misses := 0, 0
	for i, ts := range timed {
		for k, st := range ts.snapshot() {
			if k.op != "get" {
				continue
			}
			gets += st.calls
			misses += st.misses
			r.set(fmt.Sprintf("store.get_us.%s.%s", k.kind, stores.backends[i]), "us",
				float64(st.total.Microseconds())/float64(st.calls))
		}
	}
	r.set("store.gets", "count", float64(gets)/float64(n))
	r.set("store.misses", "count", float64(misses))
	r.check(1, boolInt(misses > 0), "%s: %d store misses in traced passes; want 0", wl, misses)
	p := tr.profile(wl)
	r.set("engine.run_self_ms", "ms", p.selfMS["engine"]/float64(p.passes))
	r.set("engine.render_ms", "ms", p.selfMS["render"]/float64(p.passes))
	r.set("runtime.gc_cycles.replay-warm", "count", mem.gcCycles/float64(n))
	r.set("runtime.alloc_mb.replay-warm", "MB", mem.allocMB/float64(n))
	r.set("trace.overhead_pct.replay-warm", "%", overheadPct(median(tracedMS), median(plainMS)))
	return nil
}

// replayKeyUS is the time, in µs, to derive the store keys of every
// cell a replay pass reads (median of five).
func replayKeyUS(c config) (float64, error) {
	sweep, err := docsSweepSpec().Cells()
	if err != nil {
		return 0, err
	}
	sweepProofs, err := experiment.SweepProofSpec(docsSweepSpec()).Cells()
	if err != nil {
		return 0, err
	}
	proofs, err := docsProofSpec().Cells()
	if err != nil {
		return 0, err
	}
	proofs = append(proofs, sweepProofs...)
	conform, err := replayConformSpec(c).Cells()
	if err != nil {
		return 0, err
	}
	var times []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		for _, cell := range sweep {
			experiment.CellKey(cell)
		}
		for _, cell := range proofs {
			experiment.ProofKey(cell)
		}
		for _, cell := range conform {
			experiment.ConformKey(cell)
		}
		times = append(times, float64(time.Since(t).Nanoseconds())/1e3)
	}
	return median(times), nil
}

// serveTraceRounds is how many rounds each side of the serve-mixed
// overhead comparison runs.
const serveTraceRounds = 6

// traceServe: one service with the timing decorator around its store;
// rounds untraced, then rounds traced (each job one pass of spans).
func traceServe(r *run, c config, tr *tracer) error {
	const wl = "serve-mixed"
	s, _, err := serveSetup(c, tr)
	if err != nil {
		return err
	}
	n := serveTraceRounds
	if c.min {
		n = 1
	}
	plain, err := s.runRounds(c, 0, n, nil, 0)
	if err != nil {
		s.stop()
		return err
	}
	before := memNow()
	traced, err := s.runRounds(c, n, 2*n, tr, 1)
	mem := memSince(before)
	if err != nil {
		s.stop()
		return err
	}
	final, err := s.client.Stats()
	if err != nil {
		s.stop()
		return err
	}
	counters := s.timed.snapshot()
	if err := s.stop(); err != nil {
		return err
	}
	if _, err := checkServe(r, c, append(plain, traced...)); err != nil {
		return err
	}

	jobMS := func(rounds []roundRun) []float64 {
		var out []float64
		for _, rr := range rounds {
			for _, j := range rr.jobs {
				out = append(out, ms(j.total))
			}
		}
		return out
	}
	var submit, first, result []float64
	kinds := map[string][]float64{}
	for _, rr := range traced {
		for _, j := range rr.jobs {
			submit = append(submit, ms(j.submit))
			first = append(first, ms(j.first))
			result = append(result, ms(j.result))
			kinds[j.req.Kind] = append(kinds[j.req.Kind], ms(j.total))
		}
	}
	r.set("serve.submit_ms", "ms", median(submit))
	r.set("serve.first_event_ms", "ms", median(first))
	r.set("serve.result_ms", "ms", median(result))
	for _, k := range []string{"sweep", "proof", "conform"} {
		r.set("serve.job_ms."+k, "ms", median(kinds[k]))
	}
	all := append(plain, traced...)
	for class, xs := range jobClasses(all) {
		r.note("%s: %s jobs: %d of %d, median %.1f ms", wl, class, len(xs), len(jobMS(all)), median(xs))
	}
	r.set("serve.executed", "count", float64(final.Executed))
	r.set("serve.distinct_keys", "count", float64(final.DistinctKeys))
	r.set("serve.joined", "count", float64(final.Joined))
	r.set("serve.store_hits", "count", float64(final.StoreHits))
	epd := float64(final.Executed) / float64(final.DistinctKeys)
	r.set("serve.exec_per_distinct", "ratio", epd)
	r.check(1, boolInt(final.Executed != final.DistinctKeys), "%s: %d executions for %d distinct keys", wl, final.Executed, final.DistinctKeys)

	var puts int
	var putTime time.Duration
	for k, st := range counters {
		switch k.op {
		case "put":
			puts += st.calls
			putTime += st.total
		case "get":
			r.set("store.get_us."+k.kind+".serve", "us", float64(st.total.Microseconds())/float64(st.calls))
		}
	}
	r.set("store.puts", "count", float64(puts))
	r.set("store.put_us.packed", "us", float64(putTime.Microseconds())/float64(max(puts, 1)))
	r.set("runtime.gc_cycles.serve-mixed", "count", mem.gcCycles/float64(n))
	r.set("trace.overhead_pct.serve-mixed", "%", overheadPct(median(jobMS(traced)), median(jobMS(plain))))
	return nil
}
