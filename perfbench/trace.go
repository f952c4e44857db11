package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary. Spans of one pass
// (a sweep pass, a replay pass, a served job) share Pass; the pass's
// root span has Parent 0.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Pass     int    `json:"pass"`
	Workload string `json:"workload"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps every span in memory; write dumps them once at the end.
// A nil *tracer is the untraced mode: every method is a no-op.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a completed span and returns its id.
func (t *tracer) add(workload string, pass, parent int, layer, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Pass: pass, Workload: workload, Layer: layer, Name: name,
		StartNS: int64(start.Sub(t.epoch)), EndNS: int64(end.Sub(t.epoch)),
	})
	return id
}

// open records a span whose end is not known yet; close sets it.
func (t *tracer) open(workload string, pass, parent int, layer, name string) int {
	now := time.Now()
	return t.add(workload, pass, parent, layer, name, now, now)
}

func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	end := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].EndNS = end
	t.mu.Unlock()
}

// write dumps every span as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

// passProfile is the self-time breakdown of one workload's passes.
type passProfile struct {
	// selfMS is each layer's self time summed over all passes, in ms.
	selfMS map[string]float64
	// wallMS is the summed wall time of the passes' root spans.
	wallMS float64
	// worstErr is the largest |sum of self times - root wall| / root
	// wall over the passes: the accounting check.
	worstErr float64
	passes   int
}

// profile computes per-layer self time over every pass of a workload.
// A span's self time is its duration minus the union of its children's
// intervals (clipped to it), so for a pass whose children run one after
// another the self times of all its spans add up to the root's wall
// time exactly; worstErr reports how far any pass is from that.
func (t *tracer) profile(workload string) passProfile {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	byPass := map[int][]span{}
	for _, s := range t.spans {
		if s.Workload != workload || s.Pass <= 0 {
			continue
		}
		byPass[s.Pass] = append(byPass[s.Pass], s)
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	p := passProfile{selfMS: map[string]float64{}}
	for _, spans := range byPass {
		var rootMS, sumSelf float64
		for _, s := range spans {
			self := ms(s.dur() - covered(s, children[s.ID]))
			p.selfMS[s.Layer] += self
			sumSelf += self
			if s.Parent == 0 {
				rootMS += ms(s.dur())
			}
		}
		if rootMS > 0 {
			p.wallMS += rootMS
			p.passes++
			if e := math.Abs(sumSelf-rootMS) / rootMS; e > p.worstErr {
				p.worstErr = e
			}
		}
	}
	return p
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.StartNS, parent.StartNS), min(k.EndNS, parent.EndNS)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = -1 << 62
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return time.Duration(total)
}
