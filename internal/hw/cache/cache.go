// Package cache implements a set-associative, write-back, write-allocate
// cache with true-LRU replacement, per-line dirty bits, and per-line owner
// attribution.
//
// Owner attribution is not part of the architectural state of any real
// cache — it exists so that (a) attack harnesses can introspect conflict
// patterns and (b) the partitioning invariant checkers of internal/prove
// can verify that no cache set colour ever holds lines of two different
// security domains when cache colouring is enabled (§4.1 of the paper).
//
// The flush operation reports the number of dirty lines written back; the
// flush *latency* is computed by the caller from that count, which is the
// history-dependent component that makes the flush itself a timing channel
// unless padded (§4.2).
package cache

import (
	"fmt"

	"timeprot/internal/hw"
)

// Indexing says which address the set index is computed from. A virtually
// indexed cache (typical L1) cannot be partitioned by page colouring,
// because the index bits come from the virtual address under the
// attacker's control; it must be flushed instead. A physically indexed
// cache (typical LLC) can be coloured (§4.1).
type Indexing int

const (
	// PhysIndexed caches compute the set from the physical address.
	PhysIndexed Indexing = iota
	// VirtIndexed caches compute the set from the virtual address
	// (tags remain physical).
	VirtIndexed
)

// String implements fmt.Stringer.
func (i Indexing) String() string {
	switch i {
	case PhysIndexed:
		return "phys-indexed"
	case VirtIndexed:
		return "virt-indexed"
	default:
		return fmt.Sprintf("Indexing(%d)", int(i))
	}
}

// Config describes a cache's geometry.
type Config struct {
	// Name identifies the cache in traces and error messages.
	Name string
	// Sets is the number of cache sets; must be a power of two.
	Sets int
	// Ways is the associativity.
	Ways int
	// Indexing selects virtual or physical set indexing.
	Indexing Indexing
}

// Validate reports an error if the geometry is unusable.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache %s: Sets must be a positive power of two, got %d", c.Name, c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache %s: Ways must be positive, got %d", c.Name, c.Ways)
	}
	return nil
}

// SizeBytes returns the capacity of the cache in bytes.
func (c Config) SizeBytes() int { return c.Sets * c.Ways * hw.LineSize }

// Colors returns the number of page colours this cache induces: the number
// of distinct values the set-index bits above the page offset can take.
// For caches whose sets fit within a page (Sets*LineSize <= PageSize) this
// is 1: every page maps to all sets and colouring cannot partition it.
func (c Config) Colors() int {
	colors := c.Sets * hw.LineSize / hw.PageSize
	if colors < 1 {
		return 1
	}
	return colors
}

// line is one cache line's bookkeeping, packed into 24 bytes so a set's
// ways scan densely. The zero value is an invalid line.
type line struct {
	tag uint64
	// lru is a monotonically increasing use stamp; the smallest stamp
	// in a set is the LRU victim.
	lru   uint64
	owner int32 // hw.DomainID of the filling domain
	valid bool
	dirty bool
}

// Stats accumulates access statistics.
type Stats struct {
	Hits         uint64
	Misses       uint64
	Evictions    uint64
	Writebacks   uint64
	Flushes      uint64
	FlushedDirty uint64
}

// Cache is a set-associative cache. It is not safe for concurrent use;
// the simulator serialises all hardware access through its event loop.
type Cache struct {
	cfg   Config
	sets  []line // flattened [set*ways + way]
	clock uint64 // LRU stamp source
	stats Stats
}

// New constructs a cache with the given geometry. It panics if the
// geometry is invalid, since geometry is always a compile-time decision
// of the experiment configuration.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Cache{
		cfg:  cfg,
		sets: make([]line, cfg.Sets*cfg.Ways),
	}
}

// Config returns the cache's geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the statistics counters.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Reset restores the cache to its freshly constructed state: every line
// invalid, the LRU clock and all statistics zero. It exists
// for machine pooling — a Reset cache is indistinguishable from New(cfg),
// so reusing one across experiment cells cannot change a measurement.
func (c *Cache) Reset() {
	clear(c.sets)
	c.clock = 0
	c.stats = Stats{}
}

// SetIndex computes the set index for a global line number (an address
// right-shifted by LineBits). The caller chooses whether the line number
// came from a virtual or physical address according to cfg.Indexing.
func (c *Cache) SetIndex(lineNum uint64) int {
	return int(lineNum & uint64(c.cfg.Sets-1))
}

// Tag computes the tag for a global line number.
func (c *Cache) Tag(lineNum uint64) uint64 {
	return lineNum >> uint(log2(c.cfg.Sets))
}

// AccessResult describes the outcome of a cache access. The victim
// fields are meaningful only on a miss.
type AccessResult struct {
	// Hit is true if the line was present.
	Hit bool
	// Evicted is true if a valid line was displaced by the fill.
	Evicted bool
	// WritebackVictim is true if a dirty line was evicted to make room.
	WritebackVictim bool
	// VictimOwner is the owner of the evicted line, or hw.NoOwner if
	// the fill took an invalid way.
	VictimOwner hw.DomainID
	// VictimTag is the tag of the evicted line, if any.
	VictimTag uint64
}

// Access looks up the line identified by (set, tag); on a miss it fills
// the line, evicting the LRU victim. write marks the line dirty; owner
// attributes the fill. The returned result says whether it hit and whether
// a dirty victim needs writing back.
func (c *Cache) Access(set int, tag uint64, write bool, owner hw.DomainID) AccessResult {
	base := set * c.cfg.Ways
	ways := c.sets[base : base+c.cfg.Ways]
	c.clock++
	for i := range ways {
		ln := &ways[i]
		if ln.tag == tag && ln.valid {
			ln.lru = c.clock
			ln.dirty = ln.dirty || write
			// A hit leaves the line's owner unchanged: a hit by
			// another domain on a shared line (e.g. shared kernel
			// text) is precisely the sharing the paper warns
			// about, and keeping the original owner lets the
			// partition checker see the cross-domain hit.
			c.stats.Hits++
			return AccessResult{Hit: true}
		}
	}
	return c.fill(ways, tag, write, owner)
}

// fill handles a miss in one set's ways: it takes the first invalid way,
// or else the LRU victim, and installs (tag, owner) there.
func (c *Cache) fill(ways []line, tag uint64, write bool, owner hw.DomainID) AccessResult {
	c.stats.Misses++
	victim := 0
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].lru < ways[victim].lru {
			victim = i
		}
	}
	ln := &ways[victim]
	res := AccessResult{VictimOwner: hw.NoOwner}
	if ln.valid {
		c.stats.Evictions++
		if ln.dirty {
			c.stats.Writebacks++
		}
		res = AccessResult{Evicted: true, WritebackVictim: ln.dirty, VictimOwner: hw.DomainID(ln.owner), VictimTag: ln.tag}
	}
	*ln = line{tag: tag, lru: c.clock, owner: int32(owner), valid: true, dirty: write}
	return res
}

// Invalidate drops the line (set, tag) if present, reporting whether it
// was found and whether it was dirty. Used for the back-invalidation an
// inclusive LLC performs on its private caches when it evicts a line —
// the mechanism that makes cross-core LLC prime-and-probe observable.
func (c *Cache) Invalidate(set int, tag uint64) (found, dirty bool) {
	base := set * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		ln := &c.sets[base+w]
		if ln.valid && ln.tag == tag {
			found, dirty = true, ln.dirty
			*ln = line{}
			return found, dirty
		}
	}
	return false, false
}

// Probe reports whether (set, tag) is present without disturbing any
// state. Attack harnesses must NOT use this — it exists for tests and for
// the invariant checkers.
func (c *Cache) Probe(set int, tag uint64) bool {
	base := set * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		ln := &c.sets[base+w]
		if ln.valid && ln.tag == tag {
			return true
		}
	}
	return false
}

// FlushAll invalidates every line and returns the number of dirty lines
// that had to be written back. The caller converts that count into flush
// latency; the count's dependence on execution history is the secondary
// timing channel that padding closes (§4.2).
func (c *Cache) FlushAll() (dirty int) {
	for i := range c.sets {
		if c.sets[i].valid && c.sets[i].dirty {
			dirty++
		}
		c.sets[i] = line{}
	}
	c.stats.Flushes++
	c.stats.FlushedDirty += uint64(dirty)
	return dirty
}

// AppendDirtyLines appends the tags of all dirty lines to out in a
// deterministic (set-major, way-minor) order and returns the extended
// slice. The CPU model stores full line numbers as tags, so the result
// identifies the lines to write back on a flush; passing a reused
// buffer keeps the flush allocation-free.
func (c *Cache) AppendDirtyLines(out []uint64) []uint64 {
	for set := 0; set < c.cfg.Sets; set++ {
		base := set * c.cfg.Ways
		for w := 0; w < c.cfg.Ways; w++ {
			ln := &c.sets[base+w]
			if ln.valid && ln.dirty {
				out = append(out, ln.tag)
			}
		}
	}
	return out
}

// DirtyCount returns the number of dirty lines currently held.
func (c *Cache) DirtyCount() int {
	n := 0
	for i := range c.sets {
		if c.sets[i].valid && c.sets[i].dirty {
			n++
		}
	}
	return n
}

// ValidCount returns the number of valid lines currently held.
func (c *Cache) ValidCount() int {
	n := 0
	for i := range c.sets {
		if c.sets[i].valid {
			n++
		}
	}
	return n
}

// OwnersInSet returns the distinct owners of valid lines in a set, in way
// order. Used by the partitioning invariant checker.
func (c *Cache) OwnersInSet(set int) []hw.DomainID {
	base := set * c.cfg.Ways
	var owners []hw.DomainID
	seen := make(map[hw.DomainID]bool, 4)
	for w := 0; w < c.cfg.Ways; w++ {
		ln := &c.sets[base+w]
		if o := hw.DomainID(ln.owner); ln.valid && !seen[o] {
			seen[o] = true
			owners = append(owners, o)
		}
	}
	return owners
}

// OccupancyByOwner returns, for each owner, the number of valid lines it
// holds across the whole cache.
func (c *Cache) OccupancyByOwner() map[hw.DomainID]int {
	occ := make(map[hw.DomainID]int)
	for i := range c.sets {
		if c.sets[i].valid {
			occ[hw.DomainID(c.sets[i].owner)]++
		}
	}
	return occ
}

// SetColor returns the page colour a set belongs to: sets within the same
// page-offset window share a colour.
func (c *Cache) SetColor(set int) int {
	return set / (hw.PageSize / hw.LineSize) % c.Config().Colors()
}

func log2(n int) int {
	k := 0
	for 1<<uint(k) < n {
		k++
	}
	return k
}
