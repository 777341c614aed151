package blockstore

import (
	"os"
	"sync/atomic"
	"testing"

	"datablocks/internal/core"
	"datablocks/internal/types"
)

func testBlock(t testing.TB, n int, base int64) *core.Block {
	t.Helper()
	ints := make([]int64, n)
	strs := make([]string, n)
	for i := range ints {
		ints[i] = base + int64(i)
		strs[i] = []string{"red", "green", "blue"}[i%3]
	}
	blk, err := core.Freeze([]core.ColumnData{
		{Kind: types.Int64, Ints: ints},
		{Kind: types.String, Strs: strs},
	}, n, core.FreezeOptions{SortBy: -1})
	if err != nil {
		t.Fatal(err)
	}
	return blk
}

var testKinds = []types.Kind{types.Int64, types.String}

func TestStorePutLoadRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	blk := testBlock(t, 100, 1000)
	h, err := s.Put(blk)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Load(h, testKinds)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != blk.Rows() {
		t.Fatalf("rows %d, want %d", got.Rows(), blk.Rows())
	}
	for row := 0; row < blk.Rows(); row++ {
		if got.Int(0, row) != blk.Int(0, row) || got.Str(1, row) != blk.Str(1, row) {
			t.Fatalf("row %d differs after reload", row)
		}
	}
	st := s.Stats()
	if st.Puts != 1 || st.Loads != 1 || st.Blocks != 1 || st.DiskBytes <= 0 {
		t.Fatalf("unexpected stats %+v", st)
	}
}

func TestStoreLoadErrors(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, lerr := s.Load(0, testKinds); lerr == nil {
		t.Fatal("zero handle load succeeded")
	}
	if _, lerr := s.Load(99, testKinds); lerr == nil {
		t.Fatal("missing block load succeeded")
	}
	h, err := s.Put(testBlock(t, 50, 0))
	if err != nil {
		t.Fatal(err)
	}
	path := s.path(h)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.ReadDirectory(h, testKinds)
	if err != nil {
		t.Fatal(err)
	}
	rewrite := func(buf []byte) {
		t.Helper()
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	errs := func() int64 { return s.Stats().LoadErrors }
	base := errs() // the missing file; the zero handle never reached the disk
	if base != 1 {
		t.Fatalf("LoadErrors = %d, want 1", base)
	}

	// A flipped byte in attribute 1 (the last section byte before the
	// trailer): loads that ask for attribute 1 fail, loads of attribute 0
	// alone keep working — the per-attribute CRC verifies what was read.
	bad := append([]byte(nil), pristine...)
	bad[len(bad)-9] ^= 0x40
	rewrite(bad)
	if _, lerr := s.Load(h, testKinds); lerr == nil {
		t.Fatal("whole-block load of a corrupt block succeeded")
	}
	if _, _, lerr := s.LoadAttrs(h, d, nil, []int{1}); lerr == nil {
		t.Fatal("load of the corrupt attribute succeeded")
	}
	blk, n, err := s.LoadAttrs(h, d, nil, []int{0})
	if err != nil {
		t.Fatalf("load of the intact attribute failed: %v", err)
	}
	if n != d.AttrBytes(0) || !blk.Has([]int{0}) || blk.Has([]int{1}) {
		t.Fatalf("read %d bytes (attribute 0 is %d), Has(0)=%v Has(1)=%v", n, d.AttrBytes(0), blk.Has([]int{0}), blk.Has([]int{1}))
	}
	if blk.Int(0, 7) != 7 {
		t.Fatalf("attribute 0 row 7 = %d", blk.Int(0, 7))
	}
	if got := errs() - base; got != 2 {
		t.Fatalf("corrupt attribute counted %d load errors, want 2", got)
	}

	// A corrupt directory fails everything that needs to read it.
	bad = append([]byte(nil), pristine...)
	bad[30] ^= 0x01
	rewrite(bad)
	if _, err := s.ReadDirectory(h, testKinds); err == nil {
		t.Fatal("corrupt directory went undetected")
	}
	if _, err := s.Load(h, testKinds); err == nil {
		t.Fatal("load through a corrupt directory succeeded")
	}

	// A file cut short: the directory read notices the size mismatch, and
	// a reader that still holds the old directory gets a short read.
	rewrite(pristine[:len(pristine)-20])
	if _, err := s.ReadDirectory(h, testKinds); err == nil {
		t.Fatal("truncated file went undetected")
	}
	if _, _, err := s.LoadAttrs(h, d, nil, nil); err == nil {
		t.Fatal("short read went undetected")
	}

	// The pristine bytes load again: nothing above was cached.
	rewrite(pristine)
	if _, err := s.Load(h, testKinds); err != nil {
		t.Fatalf("pristine block rejected: %v", err)
	}
}

func TestStoreReopenResumesHandles(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := s1.Put(testBlock(t, 10, 0))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := s2.Put(testBlock(t, 10, 100))
	if err != nil {
		t.Fatal(err)
	}
	if h2 <= h1 {
		t.Fatalf("reopened store reused handle space: %d then %d", h1, h2)
	}
	// Both blocks must still load through the reopened store.
	for _, h := range []Handle{h1, h2} {
		if _, err := s2.Load(h, testKinds); err != nil {
			t.Fatalf("load %d: %v", h, err)
		}
	}
	if got := s2.handlesByID(); len(got) != 2 {
		t.Fatalf("reopened store sees %d blocks, want 2", len(got))
	}
}

func TestStoreRemove(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.Put(testBlock(t, 10, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(h); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(h, testKinds); err == nil {
		t.Fatal("removed block still loads")
	}
	if st := s.Stats(); st.Blocks != 0 || st.DiskBytes != 0 {
		t.Fatalf("stats after remove: %+v", st)
	}
}

// fakeOwner implements Owner for cache tests.
type fakeOwner struct {
	temp   atomic.Uint64
	pinned atomic.Bool
}

func (f *fakeOwner) Temperature() uint64 { return f.temp.Load() }
func (f *fakeOwner) Pinned() bool        { return f.pinned.Load() }

func TestCacheVictimsColdestFirst(t *testing.T) {
	c := NewCache(250)
	owners := make([]*fakeOwner, 4)
	for i := range owners {
		owners[i] = &fakeOwner{}
		owners[i].temp.Store(uint64(10 * (i + 1))) // owner 0 is coldest
		c.Insert(owners[i], 100)
	}
	if got := c.Used(); got != 400 {
		t.Fatalf("used %d, want 400", got)
	}
	if !c.OverBudget() {
		t.Fatal("400 bytes against a 250 budget is not over budget?")
	}
	victims := c.Victims()
	if len(victims) != 2 {
		t.Fatalf("%d victims to shed 150 bytes of 100-byte blocks, want 2", len(victims))
	}
	if victims[0] != owners[0] || victims[1] != owners[1] {
		t.Fatal("victims are not the two coldest owners")
	}
	for _, v := range victims {
		c.Drop(v)
	}
	if c.OverBudget() {
		t.Fatalf("still over budget after evictions: %d", c.Used())
	}
	if st := c.Stats(); st.Evictions != 2 || st.Resident != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// TestCacheCyclicScanKeepsPrefix replays the access pattern that used to
// defeat the cache: a cyclic scan over n equally sized blocks with room for
// k of them, every pass touching every owner once (what Snapshot does), so
// all temperatures tie. Most-recently-installed-first keeps a resident
// prefix — at least k−1 hits per pass — where coldest-first over map order
// evicted at random, and the total order makes every run nominate the same
// victims.
func TestCacheCyclicScanKeepsPrefix(t *testing.T) {
	const n, k, size, passes = 8, 3, 100, 5
	run := func() (victims []int, hits []int) {
		c := NewCache(k * size)
		owners := make([]*fakeOwner, n)
		index := make(map[Owner]int, n)
		for i := range owners {
			owners[i] = &fakeOwner{}
			index[owners[i]] = i
		}
		resident := make([]bool, n)
		for p := 0; p < passes; p++ {
			for _, o := range owners {
				o.temp.Add(1)
			}
			h := 0
			for i, o := range owners {
				if resident[i] {
					h++
					continue
				}
				// Reload under a pin, then let the evictor run.
				o.pinned.Store(true)
				c.Insert(o, size)
				resident[i] = true
				o.pinned.Store(false)
				for _, v := range c.Victims() {
					c.Drop(v)
					resident[index[v]] = false
					victims = append(victims, index[v])
				}
				if c.OverBudget() {
					t.Fatalf("pass %d: over budget after eviction", p)
				}
			}
			hits = append(hits, h)
		}
		return victims, hits
	}
	victims, hits := run()
	for p, h := range hits[1:] {
		if h < k-1 {
			t.Fatalf("pass %d: %d hits with room for %d blocks, want >= %d (hits per pass %v)", p+1, h, k, k-1, hits)
		}
	}
	for i := 0; i < 3; i++ {
		again, _ := run()
		if len(again) != len(victims) {
			t.Fatalf("run %d evicted %d blocks, first run %d", i, len(again), len(victims))
		}
		for j := range again {
			if again[j] != victims[j] {
				t.Fatalf("run %d: victim %d is block %d, first run evicted block %d", i, j, again[j], victims[j])
			}
		}
	}
}

func TestCacheReserveCountsAgainstBudget(t *testing.T) {
	c := NewCache(150)
	a, b := &fakeOwner{}, &fakeOwner{}
	c.Insert(a, 60)
	c.Insert(b, 60)
	if c.OverBudget() {
		t.Fatal("120 of 150 bytes is over budget?")
	}
	c.Reserve(40) // e.g. the directories of evicted blocks
	if got := c.Stats().ResidentBytes; got != 160 {
		t.Fatalf("resident %d, want 160", got)
	}
	victims := c.Victims()
	if len(victims) != 1 || victims[0] != b {
		t.Fatalf("want the most recently installed owner as the one victim, got %d", len(victims))
	}
	c.Drop(b)
	if c.OverBudget() || c.Used() != 100 {
		t.Fatalf("used %d after the eviction", c.Used())
	}
}

func TestCacheSkipsPinnedOwners(t *testing.T) {
	c := NewCache(100)
	cold, hot := &fakeOwner{}, &fakeOwner{}
	hot.temp.Store(99)
	cold.pinned.Store(true) // coldest, but in use by a scan
	c.Insert(cold, 80)
	c.Insert(hot, 80)
	victims := c.Victims()
	if len(victims) != 1 || victims[0] != hot {
		t.Fatalf("expected only the unpinned owner as victim, got %d", len(victims))
	}
}

func TestCacheUnboundedNeverEvicts(t *testing.T) {
	c := NewCache(0)
	o := &fakeOwner{}
	c.Insert(o, 1<<40)
	if c.OverBudget() || c.Victims() != nil {
		t.Fatal("unbounded cache nominated victims")
	}
}

func TestCacheReinsertUpdatesSize(t *testing.T) {
	c := NewCache(0)
	o := &fakeOwner{}
	c.Insert(o, 100)
	c.Insert(o, 60)
	if got := c.Used(); got != 60 {
		t.Fatalf("used %d after re-insert, want 60", got)
	}
	c.Drop(o)
	c.Drop(o) // second drop is a no-op
	if got := c.Used(); got != 0 {
		t.Fatalf("used %d after drop, want 0", got)
	}
}
