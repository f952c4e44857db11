package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"timeprot/internal/experiment/store"
)

// docsStore is the committed store behind EXPERIMENTS.md and PROOFS.md.
// The benchmark only ever reads it, through copyDir; every store it
// opens is a copy under its scratch directory.
var docsStore = filepath.Join("testdata", "docs-store")

// copyDir copies the regular files of the tree at src to dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return fmt.Errorf("copying %s: not a regular file", path)
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// openDocsCopy copies the docs store into a fresh directory under tmp
// and opens the copy with the file backend.
func openDocsCopy(tmp, name string) (store.CellStore, error) {
	dir, err := os.MkdirTemp(tmp, name+"-")
	if err != nil {
		return nil, err
	}
	if err := copyDir(docsStore, dir); err != nil {
		return nil, fmt.Errorf("copying the docs store: %w", err)
	}
	return store.OpenBackend(store.BackendFile, dir, store.PackedOptions{})
}
