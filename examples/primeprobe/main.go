// Prime-and-probe: the cache covert channel of §3.1, shown bit by bit.
//
// A Trojan in the Hi domain transmits a message by touching one of four
// L1 cache-set groups per time slice; a spy in the Lo domain primes the
// cache and decodes each symbol from which group probes slowly. The
// example runs the attack against an unprotected kernel (message comes
// through) and a protected one (decoder output is noise), printing the
// decoded stream next to the transmitted one.
package main

import (
	"fmt"
	"log"

	"timeprot"
)

const (
	groups       = 4
	setsPerGroup = 16
	pageBytes    = 4096
	lineBytes    = 64
)

// message is what the Trojan exfiltrates, two bits per slice.
var message = []int{2, 1, 3, 0, 0, 3, 1, 2, 2, 0, 1, 3, 3, 1, 0, 2}

func run(prot timeprot.Config) []int {
	pcfg := timeprot.DefaultPlatform()
	pcfg.Cores = 1
	sys, err := timeprot.NewSystem(timeprot.SystemConfig{
		Platform:   pcfg,
		Protection: prot,
		Domains: []timeprot.DomainSpec{
			{Name: "Hi", SliceCycles: 100_000, PadCycles: 25_000, Colors: timeprot.ColorRange(1, 32), CodePages: 4, HeapPages: 16},
			{Name: "Lo", SliceCycles: 100_000, PadCycles: 25_000, Colors: timeprot.ColorRange(32, 64), CodePages: 4, HeapPages: 16},
		},
		Schedule: [][]int{{0, 1}},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Each program is a sequence of phases — heap-read sweeps and
	// spins to the next slice — built up front and run by seq.

	// Trojan: per slice, fill every way of every set in group m. The
	// first slice is left idle so the spy's initial prime lands before
	// the first symbol.
	var trojanEpoch uint64
	trojan := []timeprot.Program{spin(&trojanEpoch, true)}
	for _, m := range message {
		trojan = append(trojan, reads(8*setsPerGroup, func(i int) int { // 8 ways
			pg, set := i/setsPerGroup, m*setsPerGroup+i%setsPerGroup
			return pg*pageBytes + set*lineBytes
		}, nil), spin(&trojanEpoch, false))
	}
	if _, err := sys.SpawnProgram(0, "trojan", 0, seq(trojan...)); err != nil {
		log.Fatal(err)
	}

	// Spy: probe all groups at slice start; slowest group = symbol.
	var decoded []int
	probe := func(decode bool) timeprot.Program {
		const perGroup = 2 * setsPerGroup // prime 2 ways
		var lat, bestLat uint64
		best := 0
		return reads(groups*perGroup, func(i int) int {
			g, pg, s := i/perGroup, i%perGroup/setsPerGroup, i%setsPerGroup
			return pg*pageBytes + (g*setsPerGroup+s)*lineBytes
		}, func(i int, cycles uint64) {
			lat += cycles
			if (i+1)%perGroup != 0 {
				return
			}
			if lat > bestLat {
				bestLat, best = lat, i/perGroup
			}
			lat = 0
			if i+1 == groups*perGroup && decode {
				decoded = append(decoded, best)
			}
		})
	}
	var spyEpoch uint64
	spy := []timeprot.Program{probe(false), spin(&spyEpoch, true)} // initial prime
	for range message {
		spy = append(spy, probe(true), spin(&spyEpoch, false))
	}
	if _, err := sys.SpawnProgram(1, "spy", 0, seq(spy...)); err != nil {
		log.Fatal(err)
	}

	if _, err := sys.Run(); err != nil {
		log.Fatal(err)
	}
	return decoded
}

// seq runs programs one after another as a single program.
func seq(ps ...timeprot.Program) timeprot.Program {
	return timeprot.ProgramFunc(func(m *timeprot.Machine) timeprot.ProgramStatus {
		for ; len(ps) > 0; ps = ps[1:] {
			if ps[0].Step(m) == timeprot.Running {
				return timeprot.Running
			}
		}
		return timeprot.Done
	})
}

// reads is a program of n heap reads, the i-th at byte offset off(i);
// a non-nil lat receives each read's latency.
func reads(n int, off func(i int) int, lat func(i int, cycles uint64)) timeprot.Program {
	i := 0
	return timeprot.ProgramFunc(func(m *timeprot.Machine) timeprot.ProgramStatus {
		if i > 0 && lat != nil {
			lat(i-1, m.Latency())
		}
		if i == n {
			return timeprot.Done
		}
		i++
		return m.ReadHeap(uint64(off(i - 1)))
	})
}

// spin burns the rest of a slice without touching the data cache: it
// polls the slice counter, computing between polls, until the counter
// moves past *epoch, and stores the new value there. With first set,
// an initial poll reads the current slice into *epoch.
func spin(epoch *uint64, first bool) timeprot.Program {
	polled := false
	return timeprot.ProgramFunc(func(m *timeprot.Machine) timeprot.ProgramStatus {
		if !polled {
			polled = true
			return m.Epoch()
		}
		switch e := m.Value(); {
		case first:
			first, *epoch = false, e
			return m.Epoch()
		case e != *epoch:
			*epoch = e
			return timeprot.Done
		}
		polled = false
		return m.Compute(180)
	})
}

func score(dec []int) int {
	ok := 0
	for i := range dec {
		if i < len(message) && dec[i] == message[i] {
			ok++
		}
	}
	return ok
}

func main() {
	fmt.Println("prime-and-probe covert channel through the L1-D cache (§3.1)")
	fmt.Printf("transmitted:  %v\n\n", message)

	dec := run(timeprot.NoProtection())
	fmt.Printf("UNPROTECTED decoded: %v  (%d/%d correct)\n", dec, score(dec), len(message))

	dec = run(timeprot.FullProtection())
	fmt.Printf("PROTECTED   decoded: %v  (%d/%d correct — chance is %d)\n",
		dec, score(dec), len(message), len(message)/groups)

	fmt.Println("\nFlushing on domain switch resets the L1 to a defined state, so the")
	fmt.Println("spy's probe sees uniform misses whatever the Trojan did (§4.1/§4.2).")
}
