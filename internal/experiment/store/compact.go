package store

import (
	"fmt"
	"os"
	"path/filepath"
)

// Compaction rewrites the store's live records into a fresh generation
// of segments, dropping two kinds of garbage:
//
//   - dead records: superseded duplicates of a key (the recovery
//     scan's newest-record-wins already hides them, compaction
//     reclaims their bytes);
//   - stale records: live records whose fingerprint tag provably
//     predates the current engine fingerprint for their kind — cells
//     the engine would never serve again because the fingerprint is
//     hashed into every key it looks up. Records with an empty tag
//     (merged from another store) are conservatively kept.
//
// The pass is crash-atomic without any write-ahead machinery: new
// segments are written and fsynced under fresh ids, then one atomic
// manifest rename flips the store from the old generation to the new,
// then the old files are unlinked. A crash before the rename leaves
// the old generation intact (the new files are unlisted garbage,
// removed on next open); a crash after it leaves the new generation
// with some already-deleted stragglers that the next open's
// removeUnlisted sweep finishes off.

// Compact rewrites live, non-stale records into a new segment
// generation and reclaims the rest. It reports how many records were
// dropped. The store remains open and usable after it returns.
func (p *Packed) Compact() (dropped int, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.readOnly {
		return 0, fmt.Errorf("store: %s opened read-only", p.dir)
	}
	before := len(p.index) + p.dead
	if err := p.compactLocked(); err != nil {
		return 0, err
	}
	return before - len(p.index), nil
}

// compactLocked does the rewrite. Caller holds p.mu (or is Open, which
// has exclusive access).
func (p *Packed) compactLocked() error {
	// Collect the surviving records in key order for a deterministic
	// output layout: same live set, same bytes, regardless of the
	// arrival order that produced the input generation.
	keys := make([]Key, 0, len(p.index))
	for k := range p.index {
		if p.opt.staleTag(p.index[k].kind, p.index[k].tag) {
			continue
		}
		keys = append(keys, k)
	}
	sortKeys(keys)

	segBytes := p.opt.segmentBytes()
	var (
		newSegs  []*packedSeg
		newIndex = make(map[Key]packedLoc, len(keys))
		buf      []byte
		payload  []byte
	)
	fail := func(err error) error {
		for _, sg := range newSegs {
			sg.f.Close()
			os.Remove(filepath.Join(p.dir, sg.name))
		}
		return err
	}
	openNext := func() error {
		name := segName(p.nextID)
		f, err := newSegmentFile(p.dir, name)
		if err != nil {
			return err
		}
		p.nextID++
		newSegs = append(newSegs, &packedSeg{name: name, f: f, size: int64(segHeaderSize)})
		return nil
	}
	if err := openNext(); err != nil {
		return fail(err)
	}
	for _, k := range keys {
		loc := p.index[k]
		var err error
		if payload, err = p.readPayload(loc, payload); err != nil {
			// Unreadable bytes behind a live index entry: the entry is
			// a miss by contract, so dropping it is the repair.
			continue
		}
		buf = appendRecord(buf[:0], k, loc.kind, loc.tag, payload)
		cur := newSegs[len(newSegs)-1]
		if cur.size+int64(len(buf)) > segBytes && cur.size > int64(segHeaderSize) {
			if err := cur.f.Sync(); err != nil {
				return fail(fmt.Errorf("store: syncing %s: %v", cur.name, err))
			}
			if err := openNext(); err != nil {
				return fail(err)
			}
			cur = newSegs[len(newSegs)-1]
		}
		if _, err := cur.f.WriteAt(buf, cur.size); err != nil {
			return fail(fmt.Errorf("store: appending to %s: %v", cur.name, err))
		}
		newIndex[k] = packedLoc{
			seg:        len(newSegs) - 1,
			kind:       loc.kind,
			tag:        loc.tag,
			payloadOff: cur.size + int64(recHeaderSize) + int64(len(loc.tag)),
			payloadLen: loc.payloadLen,
		}
		cur.size += int64(len(buf))
	}
	for _, sg := range newSegs {
		if err := sg.f.Sync(); err != nil {
			return fail(fmt.Errorf("store: syncing %s: %v", sg.name, err))
		}
	}

	// The flip: publish the new generation's manifest atomically, then
	// reclaim the old files.
	oldSegs := p.segs
	p.segs = newSegs
	if err := p.writeManifest(); err != nil {
		p.segs = oldSegs
		return fail(err)
	}
	p.index = newIndex
	p.dead = 0
	p.unsynced = 0
	for _, sg := range oldSegs {
		sg.f.Close()
		os.Remove(filepath.Join(p.dir, sg.name))
	}
	// The old sidecar describes deleted segments; it would fail its
	// layout check anyway, but removing it avoids a pointless load.
	os.Remove(filepath.Join(p.dir, indexName))
	return nil
}
