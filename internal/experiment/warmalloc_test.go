package experiment

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"timeprot/internal/experiment/store"
)

// TestWarmReplayAllocsBounded gates the garbage of one warm replay
// pass — the CI docs flow and the warm assembly of every service job:
// EXPERIMENTS.md and PROOFS.md, plus a small conformance matrix and its
// JSON report, all served from a copy of the committed docs store on
// each backend. The pass executes nothing, so what it allocates is key
// derivation, store reads, payload decoding and rendering. Decoding
// payloads with encoding/json, rendering through growing builders and
// re-expanding the matrices from rebuilt tables cost 454 KB (file) and
// 408 KB (packed) per pass; the bounds are half of that, and the pass
// now allocates about 175 KB and 145 KB.
func TestWarmReplayAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	dir := t.TempDir()
	fileDir, packedDir := filepath.Join(dir, "file"), filepath.Join(dir, "packed")
	if err := os.CopyFS(fileDir, os.DirFS(filepath.Join("..", "..", "testdata", "docs-store"))); err != nil {
		t.Fatal(err)
	}
	sweep := Spec{Scenarios: []string{"all"}, Rounds: 60, Seeds: []uint64{42}, Trials: 1,
		Proofs: true, ProofFamilies: 5, ProofRandom: 200}
	proofs := ProofSpec{Ablations: []string{"all"}, Models: []string{"all"}, Families: []int{5},
		Random: 200, Seeds: []uint64{42}}
	conform := ConformanceSpec{Models: []string{"base"}, Pairs: 1, Rounds: 16, Families: 2, Seeds: []uint64{42}}

	fs, err := store.OpenBackend(store.BackendFile, fileDir, store.PackedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if _, err := RunConformance(conform, ConformanceOptions{Parallelism: 1, Store: fs}); err != nil {
		t.Fatal(err)
	}
	ps, err := store.OpenBackend(store.BackendPacked, packedDir, store.PackedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	if _, err := ps.MergeFrom(fileDir); err != nil {
		t.Fatal(err)
	}

	for _, b := range []struct {
		name     string
		st       store.CellStore
		maxBytes uint64 // per pass
	}{{"file", fs, 227 << 10}, {"packed", ps, 204 << 10}} {
		pass := func() {
			var s1, s2, s3 CacheStats
			rep, err := Run(sweep, Options{Parallelism: 1, Store: b.st, Stats: &s1})
			if err == nil {
				err = WriteMarkdown(io.Discard, rep)
			}
			var pm *ProofMatrix
			if err == nil {
				pm, err = RunProofMatrix(proofs, ProofOptions{Parallelism: 1, Store: b.st, Stats: &s2})
			}
			if err == nil {
				err = WriteProofsMarkdown(io.Discard, pm)
			}
			var cm *ConformanceMatrix
			if err == nil {
				cm, err = RunConformance(conform, ConformanceOptions{Parallelism: 1, Store: b.st, Stats: &s3})
			}
			if err == nil {
				err = WriteConformanceJSON(io.Discard, cm)
			}
			if err != nil {
				t.Fatal(err)
			}
			if hits, total := s1.Hits+s1.ProofHits+s2.Hits+s3.Hits, s1.Total+s1.ProofTotal+s2.Total+s3.Total; hits != total {
				t.Fatalf("%s: %d of %d cells missed; the pass is not warm", b.name, total-hits, total)
			}
		}
		pass() // build the field plans and fill the pools
		const passes = 5
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < passes; i++ {
			pass()
		}
		runtime.ReadMemStats(&m1)
		perPass := (m1.TotalAlloc - m0.TotalAlloc) / passes
		t.Logf("%s: %d KB allocated per warm pass", b.name, perPass>>10)
		if perPass > b.maxBytes {
			t.Errorf("%s: a warm pass allocates %d KB, want ≤ %d KB", b.name, perPass>>10, b.maxBytes>>10)
		}
	}
}

// TestConcurrentRendersAgree renders every report kind from several
// goroutines at once: renders that overlap share no buffer or encoder,
// so each one writes exactly the bytes of a render on its own.
func TestConcurrentRendersAgree(t *testing.T) {
	rep, err := Run(Spec{Scenarios: []string{"T2"}, Rounds: 30}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pm, err := RunProofMatrix(ProofSpec{Models: []string{"base"}, Families: []int{1}, Random: 1}, ProofOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := RunConformance(ConformanceSpec{Models: []string{"base"}, Pairs: 1, Rounds: 12, Families: 1, Seeds: []uint64{1}}, ConformanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	renders := []func(io.Writer) error{
		func(w io.Writer) error { return WriteMarkdown(w, rep) },
		func(w io.Writer) error { return WriteJSON(w, rep) },
		func(w io.Writer) error { return WriteProofsMarkdown(w, pm) },
		func(w io.Writer) error { return WriteProofsJSON(w, pm) },
		func(w io.Writer) error { return WriteConformanceJSON(w, cm) },
	}
	want := make([][]byte, len(renders))
	for i, render := range renders {
		var b bytes.Buffer
		if err := render(&b); err != nil {
			t.Fatal(err)
		}
		want[i] = b.Bytes()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				i := (g + n) % len(renders)
				var b bytes.Buffer
				if err := renders[i](&b); err != nil || !bytes.Equal(b.Bytes(), want[i]) {
					t.Errorf("render %d from goroutine %d differs from its serial render (err %v)", i, g, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
