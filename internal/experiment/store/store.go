package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"timeprot/internal/attacks"
	"timeprot/internal/channel"
)

// Store is the file-per-cell CellStore backend, rooted at a directory.
// Cells live one per file under two-hex-digit shard subdirectories
// (dir/ab/abcdef….json), named by their key. Store values are safe for
// concurrent use by multiple goroutines and multiple processes.
type Store struct {
	dir string
}

// tempMaxAge is how old a .put-* temp file must be before Open sweeps
// it as a crashed writer's orphan. The age guard keeps Open from
// deleting the temp file of a concurrent live writer mid-Put; a healthy
// Put holds its temp file for milliseconds, never minutes.
const tempMaxAge = 10 * time.Minute

// Open opens (creating if needed) the file-per-cell store rooted at
// dir, sweeping any temp files orphaned by crashed writers.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %v", err)
	}
	s := &Store{dir: dir}
	s.sweepTemps()
	return s, nil
}

// sweepTemps removes .put-* temp files orphaned by writers that crashed
// between CreateTemp and the commit rename. Without the sweep they
// accumulate in shard directories forever (nothing else ever unlinks
// them). Only temps older than tempMaxAge go; a younger one may belong
// to a live concurrent writer. Best-effort: a failed removal is not an
// open error.
func (s *Store) sweepTemps() {
	shards, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-tempMaxAge)
	for _, sh := range shards {
		if !sh.IsDir() || len(sh.Name()) != 2 {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, sh.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			if f.IsDir() || !strings.HasPrefix(f.Name(), ".put-") {
				continue
			}
			info, err := f.Info()
			if err != nil || info.ModTime().After(cutoff) {
				continue
			}
			os.Remove(filepath.Join(s.dir, sh.Name(), f.Name()))
		}
	}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Close is a no-op: the file backend holds no open handles and every
// Put is individually durable. It exists to satisfy CellStore.
func (s *Store) Close() error { return nil }

// path maps a key to its file, dir/ab/abcdef….json: two-hex-digit
// fan-out keeps directories small even for million-cell matrices. The
// path is appended into one stack buffer, so the string os.Open takes
// is the only allocation.
func (s *Store) path(k Key) string {
	b := append(make([]byte, 0, 256), filepath.Clean(s.dir)...)
	if !os.IsPathSeparator(b[len(b)-1]) {
		b = append(b, filepath.Separator)
	}
	b = append(hex.AppendEncode(b, k[:1]), filepath.Separator)
	b = append(hex.AppendEncode(b, k[:]), ".json"...)
	return string(b)
}

// fileV1 is the on-disk envelope. Cell stays raw so Sum is computed
// over the exact stored bytes: any truncation or bit-flip of the
// payload fails the checksum and the entry reads as a miss.
type fileV1 struct {
	V    int             `json:"v"`
	Key  string          `json:"key"`
	Sum  string          `json:"sum"`
	Cell json.RawMessage `json:"cell"`
}

// fileVersion is the store format version; unrecognised versions are
// misses, so a future format change cannot be mis-served. Version 2
// added the capacity confidence interval and the effective/total rounds
// of the adaptive sampler to the stored cell.
const fileVersion = 2

// cellV1 is the stored measurement: a pre-finalisation attacks.Row with
// every float carried as its IEEE-754 bit pattern, so NaN and ±Inf
// values (legal in raw rows) round-trip bit-exactly through JSON.
type cellV1 struct {
	Label        string `json:"label"`
	CapacityBits uint64 `json:"capacity_bits"`
	MIUniform    uint64 `json:"mi_uniform"`
	FloorBits    uint64 `json:"floor_bits"`
	CILow        uint64 `json:"ci_lo"`
	CIHigh       uint64 `json:"ci_hi"`
	N            int    `json:"n"`
	Bins         int    `json:"bins"`
	ErrRate      uint64 `json:"err_rate"`
	Rounds       int    `json:"rounds"`
	RoundsRun    int    `json:"rounds_run"`
	SimOps       uint64 `json:"sim_ops"`
	Extra        []kvV1 `json:"extra,omitempty"`
}

type kvV1 struct {
	K string `json:"k"`
	V uint64 `json:"v"`
}

// encodeRow converts a measured row to its stored form.
func encodeRow(row attacks.Row) cellV1 {
	c := cellV1{
		Label:        row.Label,
		CapacityBits: math.Float64bits(row.Est.CapacityBits),
		MIUniform:    math.Float64bits(row.Est.MIUniform),
		FloorBits:    math.Float64bits(row.Est.FloorBits),
		CILow:        math.Float64bits(row.Est.CILow),
		CIHigh:       math.Float64bits(row.Est.CIHigh),
		N:            row.Est.N,
		Bins:         row.Est.Bins,
		ErrRate:      math.Float64bits(row.ErrRate),
		Rounds:       row.Rounds,
		RoundsRun:    row.RoundsRun,
		SimOps:       row.SimOps,
	}
	for _, kv := range row.Extra {
		c.Extra = append(c.Extra, kvV1{K: kv.K, V: math.Float64bits(kv.V)})
	}
	return c
}

// decodeRow reconstructs the measured row.
func decodeRow(c cellV1) attacks.Row {
	row := attacks.Row{
		Label: c.Label,
		Est: channel.Estimate{
			CapacityBits: math.Float64frombits(c.CapacityBits),
			MIUniform:    math.Float64frombits(c.MIUniform),
			FloorBits:    math.Float64frombits(c.FloorBits),
			CILow:        math.Float64frombits(c.CILow),
			CIHigh:       math.Float64frombits(c.CIHigh),
			N:            c.N,
			Bins:         c.Bins,
		},
		ErrRate:   math.Float64frombits(c.ErrRate),
		Rounds:    c.Rounds,
		RoundsRun: c.RoundsRun,
		SimOps:    c.SimOps,
	}
	for _, kv := range c.Extra {
		row.Extra = append(row.Extra, attacks.KV{K: kv.K, V: math.Float64frombits(kv.V)})
	}
	return row
}

// encodeCellEntry builds the checksummed on-disk envelope for a
// measured row — the byte representation shared by every backend (the
// file backend stores it one file per entry, the packed backend as a
// length-prefixed segment record).
func encodeCellEntry(k Key, row attacks.Row) ([]byte, error) {
	cell, err := json.Marshal(encodeRow(row))
	if err != nil {
		return nil, fmt.Errorf("store: encoding cell %s: %v", k, err)
	}
	sum := sha256.Sum256(cell)
	data, err := json.Marshal(fileV1{
		V:    fileVersion,
		Key:  k.String(),
		Sum:  hex.EncodeToString(sum[:]),
		Cell: cell,
	})
	if err != nil {
		return nil, fmt.Errorf("store: encoding entry %s: %v", k, err)
	}
	return data, nil
}

// Put stores a measured row under key k. The write is atomic: a temp
// file in the destination shard directory is renamed into place, so a
// concurrent reader sees either nothing or a complete entry, and
// concurrent writers of the same key (which, by content addressing,
// write identical payloads) cannot corrupt each other.
func (s *Store) Put(k Key, row attacks.Row) error { return putFile(s, k, row, encodeCellEntry) }

// putFile encodes v and writes it as k's entry file.
func putFile[T any](s *Store, k Key, v T, encode func(Key, T) ([]byte, error)) error {
	data, err := encode(k, v)
	if err != nil {
		return err
	}
	return s.writeAtomic(k, data)
}

// writeAtomic writes a complete entry file for k with the store's
// crash-consistency contract: the entry bytes are fsynced before the
// commit rename, and the shard directory is fsynced after it. Without
// the file sync a crash shortly after Put could leave an empty or torn
// file committed under the final name (a permanent miss at best);
// without the directory sync the rename itself could vanish, leaving a
// stale dirent pointing at recycled blocks.
func (s *Store) writeAtomic(k Key, data []byte) error {
	path := s.path(k)
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %v", err)
	}
	tmp, err := os.CreateTemp(dir, ".put-*")
	if err != nil {
		return fmt.Errorf("store: %v", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: writing %s: %v", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: syncing %s: %v", path, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: closing %s: %v", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: committing %s: %v", path, err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("store: syncing dir of %s: %v", path, err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-committed rename survives a
// crash. Filesystems that cannot sync directories report an error on
// Sync, which is surfaced; all mainstream Linux filesystems support it.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Get returns the row stored under k. Every failure mode — missing
// file, truncation, bit rot, key mismatch, unknown format version —
// reports a miss; a corrupt entry is never served as a result.
func (s *Store) Get(k Key) (attacks.Row, bool) { return getFile(s, k, decodeEntry) }

// getFile reads k's entry file into a pooled buffer and decodes it;
// every failure is a miss. Decoding copies everything it keeps.
func getFile[T any](s *Store, k Key, decode func(Key, []byte) (T, error)) (T, bool) {
	var zero T
	bp := scratchBufs.Get().(*[]byte)
	defer scratchBufs.Put(bp)
	data, err := readFileInto((*bp)[:0], s.path(k))
	*bp = data
	if err != nil {
		return zero, false
	}
	v, err := decode(k, data)
	if err != nil {
		return zero, false
	}
	return v, true
}

// readFileInto appends the named file's contents to buf.
func readFileInto(buf []byte, name string) ([]byte, error) {
	f, err := os.Open(name)
	if err != nil {
		return buf, err
	}
	defer f.Close()
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 512)
		}
		n, err := f.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// decodeEntry validates and decodes one cell entry's bytes against
// the key it is supposed to hold.
func decodeEntry(k Key, data []byte) (attacks.Row, error) {
	c, err := decodePayload[cellV1](k, data, fileVersion, "", "cell")
	if err != nil {
		return attacks.Row{}, err
	}
	return decodeRow(c), nil
}

// decodePayload opens k's envelope and decodes its payload into a T,
// which must be json.Marshal's exact encoding of the value.
func decodePayload[T any](k Key, data []byte, version int, kind, field string) (T, error) {
	payload, err := openEnvelope(k, data, version, kind, field)
	if err != nil {
		var zero T
		return zero, err
	}
	v, ok := decodeCanonical[T](payload)
	if !ok {
		return v, fmt.Errorf("store: entry %s: %s payload is not in canonical form", k, field)
	}
	return v, nil
}

// openEnvelope returns the payload of data when data is exactly the
// envelope json.Marshal writes for key k,
//
//	{"v":N[,"kind":"<kind>"],"key":"<k>","sum":"<sum>","<field>":<payload>}
//
// and sum is the lowercase hex SHA-256 of payload. Every entry the
// encoders write has this form, so anything else — the wrong version,
// kind or key, a checksum mismatch, but also valid JSON with reordered
// fields, whitespace or an unknown field — is refused (fails closed).
// The payload is left for decodeCanonical, which holds it to the same
// rule.
func openEnvelope(k Key, data []byte, version int, kind, field string) ([]byte, error) {
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], k[:])
	rest := data
	ok := eat(&rest, `{"v":`) && eat(&rest, strconv.Itoa(version))
	if ok && kind != "" {
		ok = eat(&rest, `,"kind":"`) && eat(&rest, kind) && eat(&rest, `"`)
	}
	ok = ok && eat(&rest, `,"key":"`) && len(rest) >= len(key) && bytes.Equal(rest[:len(key)], key[:])
	if ok {
		rest = rest[len(key):]
		ok = eat(&rest, `","sum":"`) && len(rest) >= len(key)
	}
	if !ok {
		return nil, fmt.Errorf("store: entry %s: not a canonical v%d %q envelope for its key", k, version, kind)
	}
	want := rest[:len(key)]
	rest = rest[len(key):]
	// The payload is a JSON object, and the envelope's closing brace
	// follows it directly.
	if !eat(&rest, `","`) || !eat(&rest, field) || !eat(&rest, `":{`) || len(rest) < 2 || rest[len(rest)-2] != '}' || rest[len(rest)-1] != '}' {
		return nil, fmt.Errorf("store: entry %s: no %s payload", k, field)
	}
	payload := data[len(data)-len(rest)-1 : len(data)-1]
	var got [2 * sha256.Size]byte
	sum := sha256.Sum256(payload)
	hex.Encode(got[:], sum[:])
	if !bytes.Equal(got[:], want) {
		return nil, fmt.Errorf("store: entry %s: checksum mismatch", k)
	}
	return payload, nil
}

// eat consumes prefix from the front of *b, reporting whether it was
// there.
func eat(b *[]byte, prefix string) bool {
	if len(*b) < len(prefix) || string((*b)[:len(prefix)]) != prefix {
		return false
	}
	*b = (*b)[len(prefix):]
	return true
}

// validateEntry reports whether data is a valid entry of any kind
// under k, and the record kind it is, for the merge path.
func validateEntry(k Key, data []byte) (recKind byte, ok bool) {
	if _, err := decodeEntry(k, data); err == nil {
		return recKindCell, true
	}
	if _, err := decodeProofEntry(k, data); err == nil {
		return recKindProof, true
	}
	if _, err := decodeConformEntry(k, data); err == nil {
		return recKindConform, true
	}
	if _, err := decodeDiscoverEntry(k, data); err == nil {
		return recKindDiscover, true
	}
	return 0, false
}

// walkEntries calls fn for every well-formed entry filename present.
// Temp files (.put-*), misnamed files, and stray directories are
// invisible: presence is by well-formed filename only, and Get still
// validates content.
func (s *Store) walkEntries(fn func(k Key)) error {
	shards, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %v", err)
	}
	for _, sh := range shards {
		if !sh.IsDir() || len(sh.Name()) != 2 {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, sh.Name()))
		if err != nil {
			return fmt.Errorf("store: %v", err)
		}
		for _, f := range files {
			name := f.Name()
			if filepath.Ext(name) != ".json" {
				continue
			}
			k, err := ParseKey(name[:len(name)-len(".json")])
			if err != nil || k.String()[:2] != sh.Name() {
				continue
			}
			fn(k)
		}
	}
	return nil
}

// Keys lists the keys of every entry file present, in sorted order.
func (s *Store) Keys() ([]Key, error) {
	var keys []Key
	if err := s.walkEntries(func(k Key) { keys = append(keys, k) }); err != nil {
		return nil, err
	}
	sortKeys(keys)
	return keys, nil
}

// Len counts the entries present (by filename). It walks the shard
// directories once and counts — no key slice is built or sorted, so
// counting a huge store costs directory reads only.
func (s *Store) Len() (int, error) {
	n := 0
	if err := s.walkEntries(func(Key) { n++ }); err != nil {
		return 0, err
	}
	return n, nil
}

// MergeFrom copies into s every valid entry of the store rooted at src
// that s does not already hold, returning the number added. All three
// entry kinds — measured cells, proof verdicts, and conformance
// outcomes — merge, and the source may use either backend (file or
// packed; the layout is detected). Content addressing makes merging
// associative and commutative — equal keys hold equal payloads — so
// shard stores produced by independent processes (or machines) combine
// in any order into the same store. Corrupt or truncated source entries
// are skipped, and entries already present in s are kept, never
// overwritten.
func (s *Store) MergeFrom(src string) (added int, err error) {
	return mergeInto(s, src)
}

// getRaw returns the validated envelope bytes stored under k, for the
// cross-backend merge path.
func (s *Store) getRaw(k Key) ([]byte, bool) {
	data, err := os.ReadFile(s.path(k))
	if err != nil {
		return nil, false
	}
	_, ok := validateEntry(k, data)
	return data, ok
}

// hasValid reports whether s holds a valid entry under k. "Present but
// corrupt" is false: a corrupt destination entry is a miss by contract,
// so a valid source entry must replace it during a merge rather than be
// skipped.
func (s *Store) hasValid(k Key) bool {
	_, ok := s.getRaw(k)
	return ok
}

// putRaw commits pre-validated envelope bytes under k.
func (s *Store) putRaw(k Key, data []byte) error {
	return s.writeAtomic(k, data)
}
