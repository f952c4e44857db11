package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"timeprot/internal/attacks"
)

// CellStore is the backend-agnostic contract of the content-addressed
// result store: everything the experiment engine and the CLIs need
// from a store, over all four entry kinds (attack cells, proof
// verdicts, conformance outcomes, discovery evaluations).
//
// Two backends implement it:
//
//   - *Store — one checksummed JSON file per cell under two-hex-digit
//     shard directories. Every Put is individually durable (fsync +
//     directory sync) and safe across processes. Right for small
//     matrices, concurrent multi-process shard runs into one
//     directory, and stores that are committed to git.
//
//   - *Packed — an append-only log of checksummed, length-prefixed
//     records in segment files with an in-memory key index. One or a
//     handful of inodes for millions of cells, no open/read/close per
//     warm hit, sequential scans. Right for huge matrices; single
//     process at a time.
//
// Both backends store byte-identical entry envelopes, so MergeFrom
// works across backend boundaries in either direction and a store can
// be migrated back and forth without changing a single served byte.
// Both share one crash-consistency contract: a torn, truncated, or
// bit-flipped entry reads as a miss, never as a wrong row.
type CellStore interface {
	// Dir returns the store's root directory.
	Dir() string
	MatrixStore
	// GetDiscover returns the discovery evaluation stored under k.
	GetDiscover(k Key) (DiscoverV1, bool)
	// PutDiscover stores a discovery evaluation under k.
	PutDiscover(k Key, d DiscoverV1) error
	// Keys lists every entry's key in sorted order.
	Keys() ([]Key, error)
	// Len counts the entries without building or sorting a key list.
	Len() (int, error)
	// MergeFrom folds every valid entry of the store rooted at src —
	// either backend, detected from the layout — into this store.
	MergeFrom(src string) (added int, err error)
	// Close releases the store. For the packed backend it syncs the
	// active segment and persists the index sidecar for a fast reopen;
	// for the file backend it is a no-op.
	Close() error
}

// MatrixStore is the part of a CellStore the matrix engine reads and
// writes: the attack-cell, proof, and conformance entries.
type MatrixStore interface {
	// Get returns the row stored under k; every failure mode is a miss.
	Get(k Key) (attacks.Row, bool)
	// Put stores a measured row under k.
	Put(k Key, row attacks.Row) error
	// GetProof returns the proof verdict stored under k.
	GetProof(k Key) (ProofV1, bool)
	// PutProof stores a proof verdict under k.
	PutProof(k Key, p ProofV1) error
	// GetConform returns the conformance outcome stored under k.
	GetConform(k Key) (ConformV1, bool)
	// PutConform stores a conformance outcome under k.
	PutConform(k Key, c ConformV1) error
}

// Backend names for OpenBackend and DetectBackend.
const (
	BackendFile   = "file"
	BackendPacked = "packed"
	BackendAuto   = "auto"
)

// DetectBackend reports which backend owns the store directory at dir:
// a packed layout (a MANIFEST or seg-*.log segment files) is packed,
// anything else — including a directory that does not exist yet — is
// the file backend, preserving the historical default for new stores.
func DetectBackend(dir string) string {
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
		return BackendPacked
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "seg-*"+segSuffix)); len(segs) > 0 {
		return BackendPacked
	}
	return BackendFile
}

// OpenBackend opens the store at dir with the named backend ("file",
// "packed", or "auto" to detect from the on-disk layout). popt applies
// only when the packed backend is selected.
func OpenBackend(backend, dir string, popt PackedOptions) (CellStore, error) {
	if backend == "" || backend == BackendAuto {
		backend = DetectBackend(dir)
	}
	switch backend {
	case BackendFile:
		return Open(dir)
	case BackendPacked:
		return OpenPacked(dir, popt)
	default:
		return nil, fmt.Errorf("store: unknown backend %q (want %s, %s, or %s)", backend, BackendFile, BackendPacked, BackendAuto)
	}
}

// rawStore is the merge-level view of a backend: validated envelope
// bytes by key. Both backends implement it, which is what makes
// MergeFrom work across backend boundaries — the envelope bytes are
// the unit of exchange, identical in both layouts.
type rawStore interface {
	Keys() ([]Key, error)
	getRaw(k Key) ([]byte, bool)
	hasValid(k Key) bool
	putRaw(k Key, data []byte) error
}

// mergeInto folds the store rooted at srcDir (either backend) into
// dst: for every key the source holds a valid entry for and dst does
// not, the envelope bytes are copied verbatim. Corrupt source entries
// are skipped; corrupt destination entries are repaired (a corrupt
// entry is a miss by contract, so a valid source entry replaces it).
func mergeInto(dst rawStore, srcDir string) (added int, err error) {
	src, closeSrc, err := openMergeSource(srcDir)
	if err != nil {
		return 0, err
	}
	defer closeSrc()
	keys, err := src.Keys()
	if err != nil {
		return 0, err
	}
	for _, k := range keys {
		if dst.hasValid(k) {
			continue
		}
		data, ok := src.getRaw(k)
		if !ok {
			continue // never propagate a corrupt entry
		}
		if err := dst.putRaw(k, data); err != nil {
			return added, err
		}
		added++
	}
	return added, nil
}

// openMergeSource opens srcDir read-only under whichever backend owns
// it. The file backend needs no handles (and must not sweep temp files
// of a store it does not own), so it is constructed directly.
func openMergeSource(srcDir string) (rawStore, func(), error) {
	if _, err := os.Stat(srcDir); err != nil {
		return nil, nil, fmt.Errorf("store: merge source: %v", err)
	}
	if DetectBackend(srcDir) == BackendPacked {
		p, err := openPacked(srcDir, PackedOptions{}, true)
		if err != nil {
			return nil, nil, err
		}
		return p, func() { p.Close() }, nil
	}
	return &Store{dir: srcDir}, func() {}, nil
}

// sortKeys sorts a key slice in the canonical (hex-string) order every
// backend's Keys() promises. Lowercase hex preserves byte order, so the
// raw bytes are compared without rendering either key.
func sortKeys(keys []Key) {
	slices.SortFunc(keys, func(a, b Key) int { return bytes.Compare(a[:], b[:]) })
}
