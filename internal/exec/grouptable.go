package exec

// groupTable is the slot array of the one hash table of internal/exec,
// keyTable: open addressing with linear probing over two parallel flat
// arrays (combined key hash, entry id), one slot per distinct key, for
// aggregation groups and join keys alike. Power-of-two capacity keeps the
// slot computation a mask, a probe step touches 12 bytes, and neither
// array holds pointers, so the collector never scans a table however
// large the build side or the group count.
//
// The table knows hashes, not keys. A slot matches a probe only if its
// stored hash equals the probe hash AND the keyTable verifies the entry's
// key columns (keyCol, verifyRow) against the probing row, so equal-hash
// distinct keys can never merge: they occupy separate slots on the same
// probe chain.
type groupTable struct {
	hashes []uint64
	slots  []uint32 // entry id + 1; 0 marks an empty slot
	mask   uint64
	used   int
	// displaced counts insert-probe steps past an occupied slot — the
	// table's collision telemetry (OperatorProfile.SpilledGroups).
	displaced int
}

// groupTableMinSize is the initial slot count; most aggregations (a few
// groups) never grow past it. 64 slots = one KB of hashes + slots.
const groupTableMinSize = 64

// ensure allocates the initial slot arrays, so probe loops can assume
// non-nil tables (an empty table then simply misses every probe).
func (t *groupTable) ensure() {
	if t.slots == nil {
		t.resize(groupTableMinSize)
	}
}

// reserve sizes the table for n entries up front, so a bulk load (the
// join build) does not rehash on the way.
func (t *groupTable) reserve(n int) {
	size := groupTableMinSize
	for size*3 <= n*4 {
		size *= 2
	}
	if size > len(t.slots) {
		t.resize(size)
	}
}

// insert stores id under hash h in a fresh slot, without looking for an
// existing one: keyTable.resolve has looked. Called once per new entry —
// never per probed row — so it may allocate (first use, growth). The load
// factor stays below 3/4, so every probe chain ends at an empty slot.
func (t *groupTable) insert(h uint64, id uint32) {
	t.ensure()
	if (t.used+1)*4 >= len(t.slots)*3 {
		t.resize(2 * len(t.slots))
	}
	i := h & t.mask
	for t.slots[i] != 0 {
		i = (i + 1) & t.mask
		t.displaced++
	}
	t.hashes[i] = h
	t.slots[i] = id + 1
	t.used++
}

// resize reallocates the table at n slots (a power of two) and rehashes
// every occupied slot. Out of line so the allocation cost is attributed
// here, not to the hot loops that insert.
//
//go:noinline
func (t *groupTable) resize(n int) {
	oldHashes, oldSlots := t.hashes, t.slots
	t.hashes = make([]uint64, n)
	t.slots = make([]uint32, n)
	t.mask = uint64(n - 1)
	for j, s := range oldSlots {
		if s == 0 {
			continue
		}
		h := oldHashes[j]
		i := h & t.mask
		for t.slots[i] != 0 {
			i = (i + 1) & t.mask
		}
		t.hashes[i] = h
		t.slots[i] = s
	}
}
