package cache

import (
	"maps"
	"slices"
	"testing"

	"timeprot/internal/hw"
	"timeprot/internal/rng"
)

// refLine and refCache are a reference copy of the original cache model:
// unpacked lines, one loop that mixes the hit scan with fill and evict,
// and an owner reset to hw.NoOwner on every invalid line. The
// differential test below holds Cache to it operation by operation.
type refLine struct {
	valid bool
	tag   uint64
	dirty bool
	owner hw.DomainID
	lru   uint64
}

type refCache struct {
	ways  int
	sets  []refLine
	clock uint64
	stats Stats
}

func newRef(cfg Config) *refCache {
	r := &refCache{ways: cfg.Ways, sets: make([]refLine, cfg.Sets*cfg.Ways)}
	for i := range r.sets {
		r.sets[i].owner = hw.NoOwner
	}
	return r
}

func (c *refCache) access(set int, tag uint64, write bool, owner hw.DomainID) AccessResult {
	var res AccessResult
	base := set * c.ways
	c.clock++
	for w := 0; w < c.ways; w++ {
		ln := &c.sets[base+w]
		if ln.valid && ln.tag == tag {
			ln.lru = c.clock
			if write {
				ln.dirty = true
			}
			res.Hit = true
			c.stats.Hits++
			return res
		}
	}
	c.stats.Misses++
	victim := -1
	var oldest uint64 = ^uint64(0)
	for w := 0; w < c.ways; w++ {
		ln := &c.sets[base+w]
		if !ln.valid {
			victim = w
			break
		}
		if ln.lru < oldest {
			oldest = ln.lru
			victim = w
		}
	}
	ln := &c.sets[base+victim]
	if ln.valid {
		c.stats.Evictions++
		res.Evicted = true
		if ln.dirty {
			c.stats.Writebacks++
			res.WritebackVictim = true
		}
		res.VictimOwner = ln.owner
		res.VictimTag = ln.tag
	} else {
		res.VictimOwner = hw.NoOwner
	}
	*ln = refLine{valid: true, tag: tag, dirty: write, owner: owner, lru: c.clock}
	return res
}

func (c *refCache) invalidate(set int, tag uint64) (found, dirty bool) {
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		ln := &c.sets[base+w]
		if ln.valid && ln.tag == tag {
			found, dirty = true, ln.dirty
			*ln = refLine{owner: hw.NoOwner}
			return found, dirty
		}
	}
	return false, false
}

func (c *refCache) flushAll() (dirty int) {
	for i := range c.sets {
		if c.sets[i].valid && c.sets[i].dirty {
			dirty++
		}
		c.sets[i] = refLine{owner: hw.NoOwner}
	}
	c.stats.Flushes++
	c.stats.FlushedDirty += uint64(dirty)
	return dirty
}

func (c *refCache) dirtyLines() []uint64 {
	var out []uint64
	for _, ln := range c.sets {
		if ln.valid && ln.dirty {
			out = append(out, ln.tag)
		}
	}
	return out
}

func (c *refCache) occupancyByOwner() map[hw.DomainID]int {
	occ := make(map[hw.DomainID]int)
	for _, ln := range c.sets {
		if ln.valid {
			occ[ln.owner]++
		}
	}
	return occ
}

// TestAccessMatchesReference drives Cache and the reference model with
// the same random stream of accesses, invalidations and flushes on a
// small geometry (4 sets x 2 ways, so evictions are frequent) and
// requires identical results and observable state after every operation.
func TestAccessMatchesReference(t *testing.T) {
	cfg := Config{Name: "diff", Sets: 4, Ways: 2, Indexing: PhysIndexed}
	for seed := uint64(1); seed <= 20; seed++ {
		c, ref := New(cfg), newRef(cfg)
		r := rng.New(seed)
		for op := 0; op < 2000; op++ {
			set, tag := r.Intn(cfg.Sets), r.Uint64n(6)
			switch k := r.Intn(40); {
			case k == 0:
				if got, want := c.FlushAll(), ref.flushAll(); got != want {
					t.Fatalf("seed %d op %d: FlushAll = %d, want %d", seed, op, got, want)
				}
			case k < 4:
				gf, gd := c.Invalidate(set, tag)
				wf, wd := ref.invalidate(set, tag)
				if gf != wf || gd != wd {
					t.Fatalf("seed %d op %d: Invalidate(%d,%d) = (%v,%v), want (%v,%v)", seed, op, set, tag, gf, gd, wf, wd)
				}
			default:
				write, owner := r.Bool(), hw.DomainID(r.Intn(4)-2)
				if got, want := c.Access(set, tag, write, owner), ref.access(set, tag, write, owner); got != want {
					t.Fatalf("seed %d op %d: Access(%d,%d,%v,%d) = %+v, want %+v", seed, op, set, tag, write, owner, got, want)
				}
			}
			if c.Stats() != ref.stats {
				t.Fatalf("seed %d op %d: Stats = %+v, want %+v", seed, op, c.Stats(), ref.stats)
			}
			if got, want := c.AppendDirtyLines(nil), ref.dirtyLines(); !slices.Equal(got, want) {
				t.Fatalf("seed %d op %d: AppendDirtyLines = %v, want %v", seed, op, got, want)
			}
			if got, want := c.OccupancyByOwner(), ref.occupancyByOwner(); !maps.Equal(got, want) {
				t.Fatalf("seed %d op %d: OccupancyByOwner = %v, want %v", seed, op, got, want)
			}
		}
	}
}
