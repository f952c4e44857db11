package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// microBench is one of the repository's existing Go benchmarks, run
// as it is with go test and recorded under a per-layer name.
type microBench struct {
	pkg, name string
	// iters fixes the iteration count (-benchtime Nx) so a run does
	// the same work every time.
	iters  int
	metric string
	unit   string
	scale  float64 // ns/op is divided by this
}

// microBenches are the kernel, hw, attacks and store benchmarks the
// repository carries. The Legacy* kernel benchmarks measure the
// goroutine-bridge path that is due for deletion and are left out.
var microBenches = []microBench{
	{"./internal/hw/cache", "BenchmarkCacheAccess", 2000000, "hw.cache_access_ns", "ns", 1},
	{"./internal/kernel", "BenchmarkDirectRead", 500000, "kernel.read_ns", "ns", 1},
	{"./internal/kernel", "BenchmarkDirectCompute", 1000000, "kernel.compute_ns", "ns", 1},
	{"./internal/kernel", "BenchmarkDirectNow", 1000000, "kernel.now_ns", "ns", 1},
	{"./internal/kernel", "BenchmarkDirectDomainSwitch", 20000, "kernel.domain_switch_ns", "ns", 1},
	{"./internal/attacks", "BenchmarkWarmCell", 20, "attacks.warm_cell_ms", "ms", 1e6},
	{"./internal/experiment/store", "BenchmarkPackedWarmGet", 50000, "store.packed_warm_get_ns", "ns", 1},
	{"./internal/experiment/store", "BenchmarkFileWarmGet", 20000, "store.file_warm_get_ns", "ns", 1},
}

var benchLine = regexp.MustCompile(`^(Benchmark\w+)(-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// runMicro runs every micro-benchmark with go test and records its
// ns/op. In the self-test's minimum size each runs once.
func runMicro(r *run, min bool) error {
	for _, b := range microBenches {
		iters := b.iters
		if min {
			iters = 1
		}
		cmd := exec.Command("go", "test", "-run", "^$", "-bench", "^"+b.name+"$",
			"-benchtime", fmt.Sprintf("%dx", iters), "-count", "1", b.pkg)
		var out, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("go test -bench %s %s: %v\n%s%s", b.name, b.pkg, err, out.String(), stderr.String())
		}
		ns, err := parseBench(out.String(), b.name)
		if err != nil {
			return err
		}
		r.set(b.metric, b.unit, ns/b.scale)
	}
	return nil
}

func parseBench(out, name string) (float64, error) {
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m != nil && m[1] == name {
			return strconv.ParseFloat(m[3], 64)
		}
	}
	return 0, fmt.Errorf("no result for %s in go test output:\n%s", name, out)
}
