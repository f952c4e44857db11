package kernel

import (
	"testing"

	"timeprot/internal/core"
	"timeprot/internal/hw"
	"timeprot/internal/hw/mem"
	"timeprot/internal/hw/platform"
)

// Engine microbenchmarks: the simulation cost (host ns per simulated
// operation) of instruction streams and of the domain-switch protocol.
// The "simops/s" metric is simulated operations per wall-clock second.
// The "Direct" names date from when a second, goroutine-based
// execution path existed; external tooling runs them by name.

// streamKind selects the benchmarked instruction stream.
type streamKind int

const (
	streamRead streamKind = iota
	streamCompute
	streamNow
	streamYield
)

// streamProgram issues n operations of one kind — the benchmark
// workload.
type streamProgram struct {
	kind streamKind
	n    int
	i    int
}

func (p *streamProgram) Step(m *Machine) Status {
	if p.i == p.n {
		return Done
	}
	p.i++
	switch p.kind {
	case streamRead:
		return m.ReadHeap(uint64(p.i%256) * hw.LineSize)
	case streamCompute:
		return m.Compute(50)
	case streamYield:
		return m.Yield()
	default:
		return m.Now()
	}
}

// streamSystem builds a single-domain uniprocessor that never
// domain-switches, so the measurement isolates per-operation engine
// cost. Endpoint 0 carries same-domain IPC streams.
func streamSystem(b testing.TB, maxOps int) *System {
	b.Helper()
	pcfg := platform.DefaultConfig()
	pcfg.Cores = 1
	sys, err := NewSystem(SystemConfig{
		Platform:   pcfg,
		Protection: core.NoProtection(),
		Domains: []core.DomainSpec{
			{Name: "A", SliceCycles: 1_000_000, PadCycles: 0, Colors: mem.ColorRange(1, 32), CodePages: 2, HeapPages: 16},
		},
		Schedule:  [][]int{{0}},
		Endpoints: []EndpointSpec{{ID: 0}},
		MaxCycles: uint64(maxOps)*3_000 + 50_000_000,
	})
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

func benchStream(b *testing.B, kind streamKind) {
	sys := streamSystem(b, b.N)
	if _, err := sys.SpawnProgram(0, "stream", 0, &streamProgram{kind: kind, n: b.N}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	rep, err := sys.Run()
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if len(rep.Errors) > 0 {
		b.Fatal(rep.Errors)
	}
	if rep.HitMaxCycles {
		b.Fatal("benchmark hit the cycle cap")
	}
	if el := b.Elapsed().Seconds(); el > 0 {
		b.ReportMetric(float64(rep.Ops)/el, "simops/s")
	}
}

func BenchmarkDirectRead(b *testing.B)    { benchStream(b, streamRead) }
func BenchmarkDirectCompute(b *testing.B) { benchStream(b, streamCompute) }
func BenchmarkDirectNow(b *testing.B)     { benchStream(b, streamNow) }

// computeProgram burns fixed-size compute chunks forever; the slice
// preemptions between two such programs drive the full padded
// domain-switch protocol.
type computeProgram struct{ n, i int }

func (p *computeProgram) Step(m *Machine) Status {
	if p.i == p.n {
		return Done
	}
	p.i++
	return m.Compute(400)
}

// switchSystem builds a fully protected two-domain uniprocessor whose
// threads each run n compute chunks, so every slice ends in a padded,
// flushing domain switch.
func switchSystem(b testing.TB, n int) *System {
	b.Helper()
	pcfg := platform.DefaultConfig()
	pcfg.Cores = 1
	sys, err := NewSystem(SystemConfig{
		Platform:   pcfg,
		Protection: core.FullProtection(),
		Domains: []core.DomainSpec{
			{Name: "A", SliceCycles: 2_000, PadCycles: 3_000, Colors: mem.ColorRange(1, 32), CodePages: 2, HeapPages: 4},
			{Name: "B", SliceCycles: 2_000, PadCycles: 3_000, Colors: mem.ColorRange(32, 64), CodePages: 2, HeapPages: 4},
		},
		Schedule:  [][]int{{0, 1}},
		MaxCycles: uint64(n)*20_000 + 10_000_000,
	})
	if err != nil {
		b.Fatal(err)
	}
	for d, name := range []string{"a", "b"} {
		if _, err := sys.SpawnProgram(d, name, 0, &computeProgram{n: n}); err != nil {
			b.Fatal(err)
		}
	}
	return sys
}

// BenchmarkDirectDomainSwitch measures one full domain-switch cycle
// (two switches: A->B and B->A, including flush and padding) per
// iteration pair.
func BenchmarkDirectDomainSwitch(b *testing.B) {
	sys := switchSystem(b, b.N)
	b.ResetTimer()
	rep, err := sys.Run()
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if len(rep.Errors) > 0 {
		b.Fatal(rep.Errors)
	}
	b.ReportMetric(float64(rep.Switches)/float64(b.N), "switches/op")
}
