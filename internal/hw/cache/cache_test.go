package cache

import (
	"testing"
	"testing/quick"

	"timeprot/internal/hw"
	"timeprot/internal/rng"
)

func testCfg() Config {
	return Config{Name: "L1D", Sets: 64, Ways: 8, Indexing: VirtIndexed}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"ok", Config{Name: "c", Sets: 64, Ways: 8}, false},
		{"zero sets", Config{Name: "c", Sets: 0, Ways: 8}, true},
		{"non power of two", Config{Name: "c", Sets: 48, Ways: 8}, true},
		{"zero ways", Config{Name: "c", Sets: 64, Ways: 0}, true},
		{"negative sets", Config{Name: "c", Sets: -64, Ways: 2}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if (err != nil) != tc.wantErr {
				t.Fatalf("Validate() = %v, wantErr=%v", err, tc.wantErr)
			}
		})
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid config did not panic")
		}
	}()
	New(Config{Name: "bad", Sets: 3, Ways: 1})
}

func TestSizeAndColors(t *testing.T) {
	llc := Config{Name: "LLC", Sets: 4096, Ways: 16, Indexing: PhysIndexed}
	if got, want := llc.SizeBytes(), 4096*16*hw.LineSize; got != want {
		t.Errorf("SizeBytes = %d, want %d", got, want)
	}
	// 4096 sets * 64B lines / 4KiB pages = 64 colours, the paper's
	// "modern last-level caches have at least 64 different colors".
	if got := llc.Colors(); got != 64 {
		t.Errorf("Colors = %d, want 64", got)
	}
	l1 := testCfg()
	if got := l1.Colors(); got != 1 {
		t.Errorf("L1 Colors = %d, want 1 (fits within a page, uncolourable)", got)
	}
}

func TestMissThenHit(t *testing.T) {
	c := New(testCfg())
	res := c.Access(3, 0x42, false, 1)
	if res.Hit {
		t.Fatal("first access should miss")
	}
	res = c.Access(3, 0x42, false, 1)
	if !res.Hit {
		t.Fatal("second access should hit")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit 1 miss", st)
	}
}

func TestLRUEviction(t *testing.T) {
	cfg := Config{Name: "tiny", Sets: 2, Ways: 2, Indexing: PhysIndexed}
	c := New(cfg)
	c.Access(0, 1, false, 1) // fills way 0
	c.Access(0, 2, false, 1) // fills way 1
	c.Access(0, 1, false, 1) // touch tag 1; tag 2 is now LRU
	res := c.Access(0, 3, false, 1)
	if res.Hit {
		t.Fatal("expected miss")
	}
	if res.VictimTag != 2 {
		t.Fatalf("evicted tag %d, want 2 (LRU)", res.VictimTag)
	}
	if !c.Probe(0, 1) || !c.Probe(0, 3) || c.Probe(0, 2) {
		t.Fatal("post-eviction contents wrong")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	cfg := Config{Name: "tiny", Sets: 1, Ways: 1, Indexing: PhysIndexed}
	c := New(cfg)
	c.Access(0, 1, true, 1) // dirty fill
	res := c.Access(0, 2, false, 1)
	if !res.WritebackVictim {
		t.Fatal("evicting a dirty line must report a writeback")
	}
	if res.VictimOwner != 1 {
		t.Fatalf("victim owner = %d, want 1", res.VictimOwner)
	}
	res = c.Access(0, 3, false, 2)
	if res.WritebackVictim {
		t.Fatal("evicting a clean line must not report a writeback")
	}
}

func TestFlushAllCountsDirtyAndResets(t *testing.T) {
	c := New(testCfg())
	for i := 0; i < 10; i++ {
		c.Access(i, uint64(i), i%2 == 0, 1) // 5 dirty, 5 clean
	}
	if got := c.DirtyCount(); got != 5 {
		t.Fatalf("DirtyCount = %d, want 5", got)
	}
	dirty := c.FlushAll()
	if dirty != 5 {
		t.Fatalf("FlushAll returned %d dirty, want 5", dirty)
	}
	if c.ValidCount() != 0 {
		t.Fatal("flush must invalidate everything")
	}
	// After a flush the state must be history-independent: a second
	// flush reports zero dirty lines.
	if d := c.FlushAll(); d != 0 {
		t.Fatalf("second flush reported %d dirty lines, want 0", d)
	}
}

func TestOwnersInSetTracksDistinctOwners(t *testing.T) {
	c := New(testCfg())
	c.Access(7, 1, false, 1)
	c.Access(7, 2, false, 2)
	c.Access(7, 3, false, 2)
	owners := c.OwnersInSet(7)
	if len(owners) != 2 {
		t.Fatalf("owners = %v, want two distinct owners", owners)
	}
	occ := c.OccupancyByOwner()
	if occ[1] != 1 || occ[2] != 2 {
		t.Fatalf("occupancy = %v", occ)
	}
}

func TestSetIndexTagRoundTrip(t *testing.T) {
	c := New(testCfg())
	f := func(lineNum uint64) bool {
		set := c.SetIndex(lineNum)
		tag := c.Tag(lineNum)
		if set < 0 || set >= c.Config().Sets {
			return false
		}
		// (set, tag) must uniquely determine lineNum.
		return uint64(set)|tag<<6 == lineNum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetColorPartition(t *testing.T) {
	llc := New(Config{Name: "LLC", Sets: 4096, Ways: 16, Indexing: PhysIndexed})
	colors := llc.Config().Colors()
	// All lines of one page land in sets of a single colour, and that
	// colour is PFN mod colors.
	r := rng.New(7)
	for trial := 0; trial < 200; trial++ {
		pfn := r.Uint64n(1 << 20)
		want := int(pfn % uint64(colors))
		for l := uint64(0); l < hw.LinesPerPage; l++ {
			lineNum := pfn*hw.LinesPerPage + l
			set := llc.SetIndex(lineNum)
			if got := llc.SetColor(set); got != want {
				t.Fatalf("pfn %d line %d: colour %d, want %d", pfn, l, got, want)
			}
		}
	}
}

// TestConflictVisibility is the microarchitectural premise of
// prime-and-probe: after a victim touches a set, a prior occupant of that
// set observes a miss, and only in that set.
func TestConflictVisibility(t *testing.T) {
	cfg := Config{Name: "pp", Sets: 8, Ways: 2, Indexing: PhysIndexed}
	c := New(cfg)
	// Prime: attacker (domain 1) fills every way of every set.
	for set := 0; set < cfg.Sets; set++ {
		for w := 0; w < cfg.Ways; w++ {
			c.Access(set, uint64(100+w), false, 1)
		}
	}
	// Victim (domain 2) touches both ways of set 5 only.
	c.Access(5, 900, false, 2)
	c.Access(5, 901, false, 2)
	// Probe: attacker re-touches its lines; misses only in set 5.
	for set := 0; set < cfg.Sets; set++ {
		for w := 0; w < cfg.Ways; w++ {
			res := c.Access(set, uint64(100+w), false, 1)
			wantHit := set != 5
			if res.Hit != wantHit {
				t.Fatalf("set %d way %d: hit=%v, want %v", set, w, res.Hit, wantHit)
			}
		}
	}
}

// Property: flushing always leaves zero valid and zero dirty lines no
// matter the access history.
func TestFlushPropertyRandomHistory(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		c := New(testCfg())
		r := rng.New(seed)
		for i := 0; i < int(n%512); i++ {
			c.Access(r.Intn(c.Config().Sets), r.Uint64n(1<<20), r.Bool(), hw.DomainID(r.Intn(3)))
		}
		c.FlushAll()
		return c.ValidCount() == 0 && c.DirtyCount() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: the number of writebacks reported by FlushAll equals the
// number of distinct dirty lines written.
func TestFlushDirtyCountMatchesWrites(t *testing.T) {
	f := func(seed uint64) bool {
		c := New(testCfg())
		r := rng.New(seed)
		written := make(map[[2]uint64]bool)
		for i := 0; i < 200; i++ {
			set := r.Intn(c.Config().Sets)
			tag := r.Uint64n(4) // small tag space to force evictions
			write := r.Bool()
			res := c.Access(set, tag, write, 1)
			key := [2]uint64{uint64(set), tag}
			if write {
				written[key] = true
			}
			if res.WritebackVictim {
				delete(written, [2]uint64{uint64(set), res.VictimTag})
			} else if !res.Hit && res.VictimOwner != hw.NoOwner {
				// clean eviction
				delete(written, [2]uint64{uint64(set), res.VictimTag})
			}
		}
		return c.FlushAll() == len(written)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	c := New(Config{Name: "LLC", Sets: 4096, Ways: 16, Indexing: PhysIndexed})
	r := rng.New(1)
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = r.Uint64n(1 << 22)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ln := addrs[i%len(addrs)]
		c.Access(c.SetIndex(ln), c.Tag(ln), i%7 == 0, 1)
	}
}
