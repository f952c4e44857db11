// Quickstart: build a two-domain protected system, run workloads in both
// domains, observe cache-mediated latencies, and verify the
// time-protection invariants over the completed run.
package main

import (
	"fmt"
	"log"

	"timeprot"
)

func main() {
	pcfg := timeprot.DefaultPlatform()
	pcfg.Cores = 1

	sys, err := timeprot.NewSystem(timeprot.SystemConfig{
		Platform:   pcfg,
		Protection: timeprot.FullProtection(),
		Domains: []timeprot.DomainSpec{
			// Colour 0 is reserved for kernel global data; the two
			// domains split the remaining 63 LLC colours.
			{Name: "Hi", SliceCycles: 50_000, PadCycles: 15_000, Colors: timeprot.ColorRange(1, 32), CodePages: 4, HeapPages: 16},
			{Name: "Lo", SliceCycles: 50_000, PadCycles: 15_000, Colors: timeprot.ColorRange(32, 64), CodePages: 4, HeapPages: 16},
		},
		Schedule:    [][]int{{0, 1}}, // round-robin on CPU 0
		EnableTrace: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Install the flush-invariant monitor before running.
	fm := timeprot.NewFlushMonitor(sys)

	// A program is a step function: each call issues one operation
	// and sees the previous one's result, so loops become counters.

	// Hi: a busy secret-processing workload with phase-varying cache
	// dirtiness (the padded switch must hide the variation). Each of
	// its 24 rounds dirties a varying number of lines, then computes.
	var round, i uint64
	hi := timeprot.ProgramFunc(func(m *timeprot.Machine) timeprot.ProgramStatus {
		for ; round < 24; round, i = round+1, 0 {
			dirty := 20 + (round%4)*200
			if i < dirty {
				off := (i * 64) % m.HeapBytes()
				i++
				return m.WriteHeap(off)
			}
			if i < dirty+120 {
				i++
				return m.Compute(150)
			}
		}
		return timeprot.Done
	})
	if _, err := sys.SpawnProgram(0, "hi-worker", 0, hi); err != nil {
		log.Fatal(err)
	}

	// Lo: observes its own memory latencies — all an attacker has.
	var step, cold uint64
	lo := timeprot.ProgramFunc(func(m *timeprot.Machine) timeprot.ProgramStatus {
		step++
		switch step {
		case 1:
			return m.ReadHeap(0)
		case 2:
			cold = m.Latency()
			return m.ReadHeap(0)
		case 3:
			fmt.Printf("lo: cold read %d cycles, hot read %d cycles (the timing signal attacks exploit)\n", cold, m.Latency())
		}
		if n := step - 3; n < 8000 {
			return m.ReadHeap((n * 128) % m.HeapBytes())
		}
		return timeprot.Done
	})
	if _, err := sys.SpawnProgram(1, "lo-observer", 0, lo); err != nil {
		log.Fatal(err)
	}

	rep, err := sys.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("run complete: %d cycles on CPU 0, %d domain switches\n", rep.CPUCycles[0], rep.Switches)

	// Verify the functional properties time protection reduces to (§5).
	inv := timeprot.CheckInvariants(sys, fm)
	fmt.Print(inv)
	if inv.Pass() {
		fmt.Println("all time-protection invariants hold.")
	}
}
