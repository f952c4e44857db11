package store

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"timeprot/internal/attacks"
)

// Packed is the segment-backed CellStore: entries live as checksummed,
// length-prefixed records in a handful of append-only segment files,
// located through an in-memory key index that Open rebuilds by
// sequential scan (or loads from the index sidecar when it still
// matches the directory). Compared to the file backend it trades
// multi-process write sharing for O(1) inodes and no per-hit
// open/read/close syscall triple, which is what a matrix of millions
// of cells needs.
//
// Durability: appends are single write syscalls onto the active
// segment with fsyncs on a byte cadence (syncEvery), at rotation, and
// on Close. A crash can therefore lose the tail written since the last
// sync, but never corrupt what came before it: the recovery scan stops
// at the first record whose CRC fails, so a torn tail reads as misses
// — the same corrupt-entry-as-miss contract the file backend keeps,
// with a bounded (re-computable) miss window instead of a per-Put
// fsync.
type Packed struct {
	dir      string
	opt      PackedOptions
	readOnly bool

	mu       sync.Mutex
	closed   bool
	segs     []*packedSeg
	index    map[Key]packedLoc
	active   *os.File // last segment, open for appends (nil when readOnly)
	activeAt int64    // append offset in the active segment
	nextID   uint64   // id for the next rotated or compacted segment
	unsynced int64    // bytes appended since the last fsync
	dead     int      // superseded records discovered by the open scan
	appendBf []byte   // record-encoding scratch, reused across Puts
}

// packedSeg is one on-disk segment.
type packedSeg struct {
	name string
	f    *os.File
	size int64 // valid bytes (scan-verified); the file may be longer
}

// packedLoc locates one live record.
type packedLoc struct {
	seg        int
	kind       byte
	tag        string
	payloadOff int64
	payloadLen uint32
}

// PackedOptions tunes a packed store. The zero value is valid.
type PackedOptions struct {
	// CellTag, ProofTag, ConformTag and DiscoverTag are the current
	// engine fingerprints for each entry kind. New records are tagged
	// with them, and Compact drops records whose non-empty tag no
	// longer matches — fingerprint garbage collection without decoding
	// a payload. An empty tag means "unknown fingerprint": such records
	// are written for merged entries and are never collected.
	CellTag     string
	ProofTag    string
	ConformTag  string
	DiscoverTag string
	// SegmentBytes rotates the active segment once it exceeds this
	// size. 0 means the default (256 MiB).
	SegmentBytes int64
	// SyncBytes fsyncs the active segment every time this many bytes
	// accumulate unsynced. 0 means the default (8 MiB); negative syncs
	// every Put.
	SyncBytes int64
	// NoAutoCompact disables the compaction pass Open runs when more
	// than a quarter of the scanned records are dead or stale.
	NoAutoCompact bool
}

const (
	manifestName     = "MANIFEST"
	manifestMagic    = "tpmanv1\n"
	defaultSegBytes  = 256 << 20
	defaultSyncBytes = 8 << 20
	// autoCompactRatio is the dead+stale record fraction above which
	// Open compacts before returning.
	autoCompactRatio = 0.25
)

func (o PackedOptions) segmentBytes() int64 {
	if o.SegmentBytes > 0 {
		return o.SegmentBytes
	}
	return defaultSegBytes
}

func (o PackedOptions) syncBytes() int64 {
	if o.SyncBytes != 0 {
		return o.SyncBytes
	}
	return defaultSyncBytes
}

// tagFor is the current fingerprint tag for a record kind.
func (o PackedOptions) tagFor(kind byte) string {
	switch kind {
	case recKindCell:
		return o.CellTag
	case recKindProof:
		return o.ProofTag
	case recKindConform:
		return o.ConformTag
	case recKindDiscover:
		return o.DiscoverTag
	}
	return ""
}

// staleTag reports whether a record tag is provably from an old
// fingerprint: both the record's tag and the current tag for its kind
// must be known, and differ. Unknown on either side keeps the record.
func (o PackedOptions) staleTag(kind byte, tag string) bool {
	cur := o.tagFor(kind)
	return tag != "" && cur != "" && tag != cur
}

// OpenPacked opens (creating if necessary) the packed store rooted at
// dir for reading and writing.
func OpenPacked(dir string, opt PackedOptions) (*Packed, error) {
	return openPacked(dir, opt, false)
}

func openPacked(dir string, opt PackedOptions, readOnly bool) (*Packed, error) {
	if !readOnly {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: creating %s: %v", dir, err)
		}
	}
	p := &Packed{dir: dir, opt: opt, readOnly: readOnly, index: make(map[Key]packedLoc)}
	names, haveManifest, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	if !haveManifest {
		// No manifest (fresh store, or one lost to crash-before-sync):
		// adopt every segment file in name order. Name order is
		// creation order, which newest-record-wins needs.
		globbed, _ := filepath.Glob(filepath.Join(dir, "seg-*"+segSuffix))
		for _, g := range globbed {
			names = append(names, filepath.Base(g))
		}
		sort.Strings(names)
	} else if !readOnly {
		// Segment files the manifest does not list are crash garbage
		// from an interrupted rotation or compaction; drop them so
		// their ids can be reused safely.
		p.removeUnlisted(names)
	}
	if err := p.load(names); err != nil {
		p.closeFiles()
		return nil, err
	}
	if p.readOnly {
		return p, nil
	}
	if err := p.openActive(haveManifest, names); err != nil {
		p.closeFiles()
		return nil, err
	}
	if !opt.NoAutoCompact && p.shouldAutoCompact() {
		if err := p.compactLocked(); err != nil {
			p.closeFiles()
			return nil, err
		}
	}
	return p, nil
}

// load opens the named segments and builds the key index, preferring
// the sidecar when it still describes this exact segment layout and
// falling back to a full sequential scan.
func (p *Packed) load(names []string) error {
	if p.loadFromSidecar(names) {
		return nil
	}
	for _, name := range names {
		f, err := os.Open(filepath.Join(p.dir, name))
		if err != nil {
			return fmt.Errorf("store: opening segment %s: %v", name, err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return fmt.Errorf("store: segment %s: %v", name, err)
		}
		segIdx := len(p.segs)
		validEnd, skipped, err := scanSegment(f, st.Size(), 0, func(r scannedRecord) {
			if _, ok := p.index[r.key]; ok {
				p.dead++
			}
			p.index[r.key] = packedLoc{seg: segIdx, kind: r.kind, tag: r.tag, payloadOff: r.payloadOff, payloadLen: r.payloadLen}
		})
		if err != nil {
			f.Close()
			return err
		}
		p.dead += skipped
		p.segs = append(p.segs, &packedSeg{name: name, f: f, size: validEnd})
	}
	return nil
}

// loadFromSidecar tries the persisted index. It is trusted only when
// it names exactly the live segments and every sealed segment still
// has its recorded size; the last segment may have grown (appends
// after the sidecar was written) and its tail is re-scanned.
func (p *Packed) loadFromSidecar(names []string) bool {
	idxSegs, tags, entries, ok := readIndexFile(p.dir)
	if !ok || len(idxSegs) != len(names) {
		return false
	}
	files := make([]*os.File, 0, len(idxSegs))
	bail := func() bool {
		for _, f := range files {
			f.Close()
		}
		return false
	}
	sizes := make([]int64, len(idxSegs))
	for i, sg := range idxSegs {
		if sg.name != names[i] {
			return bail()
		}
		f, err := os.Open(filepath.Join(p.dir, sg.name))
		if err != nil {
			return bail()
		}
		files = append(files, f)
		st, err := f.Stat()
		if err != nil {
			return bail()
		}
		sizes[i] = st.Size()
		grownOK := i == len(idxSegs)-1 && st.Size() >= sg.size
		if st.Size() != sg.size && !grownOK {
			return bail()
		}
	}
	for i, sg := range idxSegs {
		p.segs = append(p.segs, &packedSeg{name: sg.name, f: files[i], size: sg.size})
	}
	for _, e := range entries {
		p.index[e.key] = packedLoc{seg: int(e.seg), kind: e.kind, tag: tags[e.tag], payloadOff: int64(e.payloadOff), payloadLen: e.payloadLen}
	}
	if n := len(p.segs); n > 0 && sizes[n-1] > p.segs[n-1].size {
		// Appends landed after the sidecar was persisted: scan just
		// the tail, resuming at the sidecar's record boundary.
		last := p.segs[n-1]
		validEnd, skipped, err := scanSegment(last.f, sizes[n-1], last.size, func(r scannedRecord) {
			if _, ok := p.index[r.key]; ok {
				p.dead++
			}
			p.index[r.key] = packedLoc{seg: n - 1, kind: r.kind, tag: r.tag, payloadOff: r.payloadOff, payloadLen: r.payloadLen}
		})
		if err != nil {
			p.segs = nil
			return bail()
		}
		p.dead += skipped
		last.size = validEnd
	}
	return true
}

// openActive prepares the last segment for appends, creating the first
// segment (and the manifest) for a fresh store. Any torn tail past the
// last valid record is truncated away so new appends extend a clean
// prefix.
func (p *Packed) openActive(haveManifest bool, names []string) error {
	if len(p.segs) == 0 {
		name := segName(1)
		f, err := newSegmentFile(p.dir, name)
		if err != nil {
			return err
		}
		p.segs = append(p.segs, &packedSeg{name: name, f: f, size: int64(segHeaderSize)})
		p.nextID = 2
		return p.writeManifest()
	}
	last := p.segs[len(p.segs)-1]
	f, err := os.OpenFile(filepath.Join(p.dir, last.name), os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("store: reopening segment %s: %v", last.name, err)
	}
	if err := f.Truncate(last.size); err != nil {
		f.Close()
		return fmt.Errorf("store: truncating torn tail of %s: %v", last.name, err)
	}
	last.f.Close()
	last.f = f
	p.nextID = nextSegID(p.segs)
	if !haveManifest {
		// Adopted segments without a manifest: persist one now so the
		// layout is explicit from here on.
		return p.writeManifest()
	}
	return nil
}

// nextSegID is one past the highest id among the live segments.
func nextSegID(segs []*packedSeg) uint64 {
	var max uint64
	for _, sg := range segs {
		var id uint64
		if _, err := fmt.Sscanf(sg.name, "seg-%d"+segSuffix, &id); err == nil && id > max {
			max = id
		}
	}
	return max + 1
}

// shouldAutoCompact reports whether the open scan found enough dead or
// stale records to justify a compaction pass.
func (p *Packed) shouldAutoCompact() bool {
	stale := 0
	for _, loc := range p.index {
		if p.opt.staleTag(loc.kind, loc.tag) {
			stale++
		}
	}
	total := len(p.index) + p.dead
	if total == 0 {
		return false
	}
	return float64(p.dead+stale)/float64(total) > autoCompactRatio
}

// removeUnlisted deletes segment files the manifest does not name.
func (p *Packed) removeUnlisted(names []string) {
	listed := make(map[string]bool, len(names))
	for _, n := range names {
		listed[n] = true
	}
	globbed, _ := filepath.Glob(filepath.Join(p.dir, "seg-*"+segSuffix))
	for _, g := range globbed {
		if !listed[filepath.Base(g)] {
			os.Remove(g)
		}
	}
}

// readManifest loads the segment list. A missing manifest is not an
// error (ok=false lets the caller adopt loose segments); a present but
// malformed one is, because silently ignoring it could resurrect
// compacted-away garbage.
func readManifest(dir string) (names []string, ok bool, err error) {
	data, rerr := os.ReadFile(filepath.Join(dir, manifestName))
	if rerr != nil {
		if os.IsNotExist(rerr) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("store: reading manifest: %v", rerr)
	}
	s := string(data)
	if !strings.HasPrefix(s, manifestMagic) {
		return nil, false, fmt.Errorf("store: manifest: bad magic")
	}
	for _, line := range strings.Split(s[len(manifestMagic):], "\n") {
		if line == "" {
			continue
		}
		if filepath.Base(line) != line || !strings.HasSuffix(line, segSuffix) {
			return nil, false, fmt.Errorf("store: manifest: bad segment name %q", line)
		}
		names = append(names, line)
	}
	return names, true, nil
}

// writeManifest atomically publishes the current segment list: temp
// file, fsync, rename, directory sync. Readers see the old complete
// list or the new complete list, never a partial one.
func (p *Packed) writeManifest() error {
	var b strings.Builder
	b.WriteString(manifestMagic)
	for _, sg := range p.segs {
		b.WriteString(sg.name)
		b.WriteByte('\n')
	}
	tmp, err := os.CreateTemp(p.dir, ".man-*")
	if err != nil {
		return fmt.Errorf("store: manifest temp: %v", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.WriteString(b.String()); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: writing manifest: %v", err)
	}
	if err := os.Rename(tmpName, filepath.Join(p.dir, manifestName)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: publishing manifest: %v", err)
	}
	return syncDir(p.dir)
}

// Dir returns the store's root directory.
func (p *Packed) Dir() string { return p.dir }

// append writes one record for k with the current fingerprint tag for
// its kind.
func (p *Packed) append(k Key, kind byte, payload []byte) error {
	return p.appendTagged(k, kind, p.opt.tagFor(kind), payload)
}

// appendTagged writes one record and maintains the index, rotating and
// syncing per policy. Existing keys are content-addressed duplicates
// and skipped, matching the file backend's effective behaviour.
func (p *Packed) appendTagged(k Key, kind byte, tag string, payload []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.readOnly {
		return fmt.Errorf("store: %s opened read-only", p.dir)
	}
	if _, ok := p.index[k]; ok {
		return nil
	}
	if len(tag) > 255 {
		tag = tag[:255] // must mirror appendRecord's clamp for payloadOff
	}
	p.appendBf = appendRecord(p.appendBf[:0], k, kind, tag, payload)
	rec := p.appendBf
	segIdx := len(p.segs) - 1
	active := p.segs[segIdx]
	if _, err := active.f.WriteAt(rec, active.size); err != nil {
		return fmt.Errorf("store: appending to %s: %v", active.name, err)
	}
	loc := packedLoc{
		seg:        segIdx,
		kind:       kind,
		tag:        tag,
		payloadOff: active.size + int64(recHeaderSize) + int64(len(tag)),
		payloadLen: uint32(len(payload)),
	}
	active.size += int64(len(rec))
	p.unsynced += int64(len(rec))
	p.index[k] = loc
	if p.unsynced >= p.opt.syncBytes() || p.opt.SyncBytes < 0 {
		if err := active.f.Sync(); err != nil {
			return fmt.Errorf("store: syncing %s: %v", active.name, err)
		}
		p.unsynced = 0
	}
	if active.size >= p.opt.segmentBytes() {
		return p.rotateLocked()
	}
	return nil
}

// rotateLocked seals the active segment (final fsync) and starts a new
// one: create + sync the file, sync the directory, then publish the
// new manifest atomically. A crash between those steps leaves either
// the old manifest (the header-only new segment is unlisted garbage,
// removed on next open) or the new one — never a lost record.
func (p *Packed) rotateLocked() error {
	active := p.segs[len(p.segs)-1]
	if err := active.f.Sync(); err != nil {
		return fmt.Errorf("store: syncing %s: %v", active.name, err)
	}
	p.unsynced = 0
	name := segName(p.nextID)
	f, err := newSegmentFile(p.dir, name)
	if err != nil {
		return err
	}
	p.nextID++
	p.segs = append(p.segs, &packedSeg{name: name, f: f, size: int64(segHeaderSize)})
	return p.writeManifest()
}

// readPayload reads a located record's payload into buf, reusing its
// storage when it is large enough. The caller holds p.mu.
func (p *Packed) readPayload(loc packedLoc, buf []byte) ([]byte, error) {
	buf = slices.Grow(buf[:0], int(loc.payloadLen))[:loc.payloadLen]
	if _, err := p.segs[loc.seg].f.ReadAt(buf, loc.payloadOff); err != nil {
		return buf, err
	}
	return buf, nil
}

// readRecord looks k up and reads its record's payload into buf, so
// the caller decodes it after p.mu is released and concurrent Gets
// decode in parallel. want filters the record kind; anyKind accepts
// every kind.
func (p *Packed) readRecord(k Key, want byte, buf []byte) (data []byte, kind byte, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	loc, ok := p.index[k]
	if !ok || (want != anyKind && loc.kind != want) {
		return buf, 0, false
	}
	data, err := p.readPayload(loc, buf)
	return data, loc.kind, err == nil
}

// anyKind is readRecord's wildcard record kind (no record kind is 0xff).
const anyKind = 0xff

// getEntry returns the value stored under k when its record has the
// wanted kind; every failure mode is a miss. The payload is read into
// a pooled buffer: decoding copies everything it keeps.
func getEntry[T any](p *Packed, k Key, kind byte, decode func(Key, []byte) (T, error)) (T, bool) {
	var zero T
	bp := scratchBufs.Get().(*[]byte)
	defer scratchBufs.Put(bp)
	data, _, ok := p.readRecord(k, kind, *bp)
	*bp = data
	if !ok {
		return zero, false
	}
	v, err := decode(k, data)
	if err != nil {
		return zero, false
	}
	return v, true
}

// putEntry encodes v and appends it under k as a record of the kind.
func putEntry[T any](p *Packed, k Key, kind byte, v T, encode func(Key, T) ([]byte, error)) error {
	data, err := encode(k, v)
	if err != nil {
		return err
	}
	return p.append(k, kind, data)
}

// Get returns the row stored under k; every failure mode is a miss.
func (p *Packed) Get(k Key) (attacks.Row, bool) { return getEntry(p, k, recKindCell, decodeEntry) }

// Put stores a measured row under k.
func (p *Packed) Put(k Key, row attacks.Row) error {
	return putEntry(p, k, recKindCell, row, encodeCellEntry)
}

// GetProof returns the proof verdict stored under k.
func (p *Packed) GetProof(k Key) (ProofV1, bool) {
	return getEntry(p, k, recKindProof, decodeProofEntry)
}

// PutProof stores a proof verdict under k.
func (p *Packed) PutProof(k Key, pr ProofV1) error {
	return putEntry(p, k, recKindProof, pr, encodeProofEntry)
}

// GetConform returns the conformance outcome stored under k.
func (p *Packed) GetConform(k Key) (ConformV1, bool) {
	return getEntry(p, k, recKindConform, decodeConformEntry)
}

// PutConform stores a conformance outcome under k.
func (p *Packed) PutConform(k Key, c ConformV1) error {
	return putEntry(p, k, recKindConform, c, encodeConformEntry)
}

// GetDiscover returns the discovery evaluation stored under k.
func (p *Packed) GetDiscover(k Key) (DiscoverV1, bool) {
	return getEntry(p, k, recKindDiscover, decodeDiscoverEntry)
}

// PutDiscover stores a discovery evaluation under k.
func (p *Packed) PutDiscover(k Key, d DiscoverV1) error {
	return putEntry(p, k, recKindDiscover, d, encodeDiscoverEntry)
}

// Keys lists every live entry's key in sorted order.
func (p *Packed) Keys() ([]Key, error) {
	p.mu.Lock()
	keys := make([]Key, 0, len(p.index))
	for k := range p.index {
		keys = append(keys, k)
	}
	p.mu.Unlock()
	sortKeys(keys)
	return keys, nil
}

// Len counts the live entries; the index makes it O(1).
func (p *Packed) Len() (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.index), nil
}

// MergeFrom folds every valid entry of the store rooted at src (either
// backend) into this one.
func (p *Packed) MergeFrom(src string) (added int, err error) {
	return mergeInto(p, src)
}

// getRaw returns the validated envelope bytes stored under k (a fresh
// copy, safe to retain).
func (p *Packed) getRaw(k Key) ([]byte, bool) {
	data, kind, ok := p.readRecord(k, anyKind, nil)
	if !ok {
		return nil, false
	}
	if vk, ok := validateEntry(k, data); !ok || vk != kind {
		return nil, false
	}
	return data, true
}

// hasValid reports whether k resolves to a valid entry.
func (p *Packed) hasValid(k Key) bool {
	_, ok := p.getRaw(k)
	return ok
}

// putRaw stores envelope bytes under k. The record's kind is the kind
// the envelope validates as, and bytes valid as no kind are refused.
// Its fingerprint tag is left empty — the original fingerprint is
// unknowable here, and an empty tag is never garbage-collected.
func (p *Packed) putRaw(k Key, data []byte) error {
	kind, ok := validateEntry(k, data)
	if !ok {
		return fmt.Errorf("store: entry %s is not a valid entry of any kind", k)
	}
	return p.appendTagged(k, kind, "", data)
}

// Close syncs the active segment, persists the index sidecar for a
// fast reopen, and releases every file handle. Data written before
// Close survives a process crash even without it; only the sidecar
// acceleration and the final unsynced tail need Close to run.
func (p *Packed) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	var firstErr error
	if !p.readOnly && len(p.segs) > 0 {
		active := p.segs[len(p.segs)-1]
		if err := active.f.Sync(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("store: syncing %s: %v", active.name, err)
		}
		p.unsynced = 0
		if err := p.writeSidecarLocked(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	p.closeFiles()
	return firstErr
}

// writeSidecarLocked persists the in-memory index as the sidecar file.
func (p *Packed) writeSidecarLocked() error {
	segs := make([]idxSegment, len(p.segs))
	for i, sg := range p.segs {
		segs[i] = idxSegment{name: sg.name, size: sg.size}
	}
	keys := make([]Key, 0, len(p.index))
	for k := range p.index {
		keys = append(keys, k)
	}
	sortKeys(keys)
	tags, tagIdx := buildTagTable(func(i int) string { return p.index[keys[i]].tag }, len(keys))
	entries := make([]idxEntry, len(keys))
	for i, k := range keys {
		loc := p.index[k]
		entries[i] = idxEntry{
			key:        k,
			kind:       loc.kind,
			seg:        uint32(loc.seg),
			tag:        tagIdx[i],
			payloadOff: uint64(loc.payloadOff),
			payloadLen: loc.payloadLen,
		}
	}
	return writeIndexFile(p.dir, segs, tags, entries)
}

// closeFiles releases every segment handle (safe on partial opens).
func (p *Packed) closeFiles() {
	for _, sg := range p.segs {
		if sg.f != nil {
			sg.f.Close()
			sg.f = nil
		}
	}
}

// PackedStats summarizes a packed store's physical state.
type PackedStats struct {
	Segments int // live segment files
	Live     int // live (indexed) records
	Dead     int // superseded or duplicate records found by the open scan
	Stale    int // live records under a provably old fingerprint
	Bytes    int64
}

// Stats reports the store's physical state (for tpstore stat and the
// auto-compaction heuristic's visibility).
func (p *Packed) Stats() PackedStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := PackedStats{Segments: len(p.segs), Live: len(p.index), Dead: p.dead}
	for _, loc := range p.index {
		if p.opt.staleTag(loc.kind, loc.tag) {
			st.Stale++
		}
	}
	for _, sg := range p.segs {
		st.Bytes += sg.size
	}
	return st
}
