package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder is the percentiles a tail figure is chosen from.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tail is the highest percentile of a sample set that still has at
// least ten samples beyond it, with the percentile and sample count it
// was taken at.
type tail struct {
	Value   float64
	Pct     float64
	Samples int
}

// tailOf picks the highest ladder percentile p with at least ten of the
// n samples above it and returns the nearest-rank value at p. With
// fewer than 20 samples no percentile qualifies and the maximum is
// returned as p100.
func tailOf(xs []float64) tail {
	n := len(xs)
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range tailLadder {
		rank := int(math.Ceil(p / 100 * float64(n))) // nearest rank, 1-based
		if rank >= 1 && n-rank >= 10 {
			return tail{Value: s[rank-1], Pct: p, Samples: n}
		}
	}
	if n == 0 {
		return tail{}
	}
	return tail{Value: s[n-1], Pct: 100, Samples: n}
}

// windowTail splits samples, in the order they were taken, into
// consecutive windows of size samples and returns the median of the
// windows' tails (a short run is one window). One burst of host
// contention can fill the top percent of a whole run's samples and
// move its p99 two- to threefold; it moves the tail of only the
// windows it falls in.
func windowTail(xs []float64, size int) (t tail, windows int) {
	if len(xs) < 2*size {
		return tailOf(xs), 1
	}
	var vals []float64
	for i := 0; i+size <= len(xs); i += size {
		t = tailOf(xs[i : i+size])
		vals = append(vals, t.Value)
	}
	t.Value = median(vals)
	return t, len(vals)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// heapSampler tracks the live heap — the heap marked live by the most
// recent GC cycle — by polling runtime/metrics while a workload runs.
// The figure it reports is the median over five-second windows of each
// window's peak: the all-run maximum hangs on where one GC cycle
// happened to land and spread by 15% between identical runs.
type heapSampler struct {
	stop  chan struct{}
	done  sync.WaitGroup
	peaks []float64 // completed windows' peaks, bytes
	peak  uint64    // current window's peak
}

const (
	liveHeapMetric = "/gc/heap/live:bytes"
	heapWindow     = 5 * time.Second
)

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{{Name: liveHeapMetric}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		window := time.Now()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			if time.Since(window) >= heapWindow {
				h.peaks = append(h.peaks, float64(h.peak))
				h.peak, window = 0, time.Now()
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the median window peak in MB (the
// peak of the whole run when it was shorter than one window).
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	h.done.Wait()
	if len(h.peaks) == 0 {
		return float64(h.peak) / (1 << 20)
	}
	return median(h.peaks) / (1 << 20)
}

// memDelta is the GC and allocation activity between two points.
type memDelta struct {
	gcCycles float64
	allocMB  float64
	mallocs  float64
}

func memNow() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := memNow()
	return memDelta{
		gcCycles: float64(after.NumGC - before.NumGC),
		allocMB:  float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		mallocs:  float64(after.Mallocs - before.Mallocs),
	}
}
