package exec

import (
	"math"
	"math/bits"

	"datablocks/internal/core"
	"datablocks/internal/simd"
	"datablocks/internal/types"
)

// hashTable is the build side of a hash join: a keyTable of the build
// side's distinct keys and, for an inner join, the build rows of each.
// Every join kind fills it from the same per-worker buildSinks. A semi or
// anti join needs the keys alone: a probe row matches iff its key is an
// entry. An inner join's build rows are kept by the sinks in segments
// (rows, one segCol per build column), the sinks' segments taken in sink
// order, and chained per entry: first[e] is entry e's first row, next[row]
// the row after row (-1 ends a chain). A chain reads in ascending row
// order, which fixes the join's emission order and with it every
// downstream float sum. A NULL key is an entry like any other: the prober
// drops the match of a probe row whose key is NULL, so NULL keys never
// join.
//
// A key-passed join over dense keys is keyed (keyFilter.span): its
// entries are found at dir[key−lo], with no slots, hashes or tags.
// Otherwise tags holds the tag bits of the entries' hashes — our analogue
// of HyPer's tagged hash-table pointers (Appendix E, [20]) — that probes
// test before touching the table. When keySide picks the probe side, ep
// holds the entries' non-NULL keys, which the probe scan tests early
// (earlyProbeFor), to drop probe rows before unpacking them: exactly, as
// bits, when their range is small enough.
type hashTable struct {
	keyTable
	first []int32
	next  []int32
	rows  []segCol
	tags  tagSet
	ep    *keyFilter
}

// setTags sets the tag of every entry's hash: one pass over the slots of
// the finished table, branch-free, since whether a slot is occupied is
// random (an empty slot ORs in a zero bit).
func (ht *hashTable) setTags() {
	hashes := ht.hashes[:len(ht.slots)]
	for i, s := range ht.slots {
		tag := hashes[i] >> 48
		ht.tags[tag>>6] |= uint64(min(s, 1)) << (tag & 63)
	}
}

// tagSet is a 2^16-bit filter over the top 16 bits of key hashes.
type tagSet [1024]uint64

func (s *tagSet) set(h uint64) {
	tag := h >> 48
	s[tag>>6] |= 1 << (tag & 63)
}

func (s *tagSet) test(h uint64) bool {
	tag := h >> 48
	return s[tag>>6]>>(tag&63)&1 == 1
}

// segRows is the size of the segments an inner-join sink keeps its rows
// in: each is allocated once, at its full size, and filled in place, so a
// kept row is copied once and no array is regrown. Row id's cells are at
// offset id&(segRows-1) of segment id>>segBits; a sink's last segment,
// partly filled, leaves ids behind its rows that no chain links. 256 rows
// keep that tail small for the many small build sides (nation, region).
const (
	segBits = 8
	segRows = 1 << segBits
)

// segCol is one build column of an inner join's kept rows, segment by
// segment; of the value lists only the one of the column's kind is used.
type segCol struct {
	kind   types.Kind
	ints   []*[segRows]int64
	floats []*[segRows]float64
	strs   []*[segRows]string
	nulls  []*[segRows]bool
}

// put copies src's n cells from row from on into the last segment at
// offset at, appending a new segment first when at is 0.
func (c *segCol) put(src *core.BatchCol, at, from, n int) {
	switch c.kind {
	case types.Int64:
		c.ints = putSeg(c.ints, at, n, src.Ints[from:])
	case types.Float64:
		c.floats = putSeg(c.floats, at, n, src.Floats[from:])
	default:
		c.strs = putSeg(c.strs, at, n, src.Strs[from:])
	}
	var nulls []bool
	if src.Nulls != nil {
		nulls = src.Nulls[from:]
	}
	c.nulls = putSeg(c.nulls, at, n, nulls)
}

func putSeg[T any](segs []*[segRows]T, at, n int, src []T) []*[segRows]T {
	if at == 0 {
		segs = append(segs, new([segRows]T))
	}
	if src != nil {
		copy(segs[len(segs)-1][at:at+n], src)
	}
	return segs
}

// gather copies the cells of rows ids into dst, as a batch column.
func (c *segCol) gather(dst *core.BatchCol, ids []uint32) {
	dst.Kind = c.kind
	switch c.kind {
	case types.Int64:
		dst.Ints = gatherSegs(dst.Ints, c.ints, ids)
	case types.Float64:
		dst.Floats = gatherSegs(dst.Floats, c.floats, ids)
	default:
		dst.Strs = gatherSegs(dst.Strs, c.strs, ids)
	}
	dst.Nulls = gatherSegs(dst.Nulls, c.nulls, ids)
}

// gatherSegs gathers the cells of rows ids, reusing dst.
//
//dbvet:hotpath
func gatherSegs[T any](dst []T, segs []*[segRows]T, ids []uint32) []T {
	d := resize(dst, len(ids))[:len(ids)]
	for i, id := range ids {
		d[i] = segs[id>>segBits][id&(segRows-1)]
	}
	return d
}

// buildSink is one morsel worker's join build sink, for every join kind.
// A semi- or anti-join sink binds the key columns of the rows it consumes
// and resolves them into its own keyTable, which so holds each distinct
// key once, copying no other column; an inner-join sink copies the live
// columns of every row — the keys and what the join's consumer reads —
// into its segments, which linkRows resolves and chains once the workers
// are done; a dead column's segCol holds no segment. It takes batches in
// every mode, so ModeJIT's tuple chain, through its batcher, builds as the
// batch chain does.
type buildSink struct {
	kt   keyTable // a semi or anti join's keys; an inner join's key kinds
	cols []int    // the build keys' columns in the build pipeline's output
	kept []segCol // an inner join's rows; nil for a semi or anti join
	live []bool   // the build columns kept
	rows int      // rows consumed: the join's BuildRows
}

func newBuildSink(kinds []types.Kind, live []bool, cols []int, inner bool) *buildSink {
	s := &buildSink{cols: cols, live: live}
	s.kt.keys = make([]keyCol, len(cols))
	for i, c := range cols {
		s.kt.keys[i] = keyCol{kind: kinds[c], canonZero: true}
	}
	if inner {
		s.kept = make([]segCol, len(kinds))
		for c, k := range kinds {
			s.kept[c].kind = k
		}
	}
	return s
}

// consume is the build sink's batch consumer. An inner-join sink keeps the
// batch's rows; a semi- or anti-join sink binds its key columns and enters
// the keys its table lacks.
func (s *buildSink) consume(b *core.Batch) {
	if s.kept != nil {
		s.keep(b)
		return
	}
	bindBatch(s.kt.keys, b, s.cols)
	s.rows += b.N
	s.kt.resolve(b.N)
}

// keep copies b's rows into the sink's last segment, starting a new one
// whenever it is full: only a sink's last segment is partly filled, with
// rows mod segRows rows.
func (s *buildSink) keep(b *core.Batch) {
	for at := 0; at < b.N; {
		fill := s.rows & (segRows - 1)
		n := min(b.N-at, segRows-fill)
		for c := range s.kept {
			if s.live[c] {
				s.kept[c].put(&b.Cols[c], fill, at, n)
			}
		}
		s.rows += n
		at += n
	}
}

// linkRows makes one inner-join table of the sinks' segments, taken in
// sink order, holding rows rows, keyed when the first sink's table is.
// Segment by segment, from the last, it binds the key cells as the
// table's probe side and resolves them, then chains the rows to their
// entries in descending order, each becoming its entry's new first row,
// so every chain reads in ascending row order: arrival order within a
// sink, sink order across them. A table holds at most one entry per row:
// every per-entry array, and the slots of a hashed table, is sized once.
func linkRows(sinks []*buildSink, rows int) *hashTable {
	root := sinks[0]
	ht, cols, segs := &hashTable{keyTable: root.kt, rows: root.kept}, root.kept, 0
	for _, s := range sinks {
		segs += (s.rows + segRows - 1) >> segBits
	}
	for _, s := range sinks[1:] {
		for c := range cols {
			cols[c].ints = append(cols[c].ints, s.kept[c].ints...)
			cols[c].floats = append(cols[c].floats, s.kept[c].floats...)
			cols[c].strs = append(cols[c].strs, s.kept[c].strs...)
			cols[c].nulls = append(cols[c].nulls, s.kept[c].nulls...)
		}
	}
	ht.next, ht.first = make([]int32, segs<<segBits), make([]int32, 0, rows)
	for i := range ht.keys {
		k := &ht.keys[i]
		k.gNull = make([]bool, 0, rows)
		if k.kind == types.String {
			k.gStr = make([]string, 0, rows)
		} else {
			k.gInt = make([]int64, 0, rows)
		}
	}
	if !ht.keyed {
		ht.reserve(rows)
	}
	g := segs
	for si := len(sinks) - 1; si >= 0; si-- {
		for left := sinks[si].rows; left > 0; {
			fill := (left-1)&(segRows-1) + 1
			left, g = left-fill, g-1
			for i, c := range root.cols {
				k, col := &ht.keys[i], &cols[c]
				k.nulls = col.nulls[g][:fill]
				switch k.kind {
				case types.Int64:
					k.ints = col.ints[g][:fill]
				case types.Float64:
					k.floats = col.floats[g][:fill]
				default:
					k.strs = col.strs[g][:fill]
				}
			}
			ids := ht.resolve(fill)
			for len(ht.first) < ht.entries {
				ht.first = append(ht.first, -1)
			}
			base := int32(g << segBits)
			for r := fill - 1; r >= 0; r-- {
				e := ids[r]
				ht.next[base+int32(r)] = ht.first[e]
				ht.first[e] = base + int32(r)
			}
		}
	}
	return ht
}

// keyFilter is the set of a join's non-NULL integer keys a scan's early
// probe tests (scanDriver.earlyProbe): a key pass's of the probe side's
// keys (executor.keyPass), or that of the build's keys of a join keySide
// early-probes (hashTable.ep). It holds them exactly, as bits, while
// their words fit maxFilterWords, and otherwise as the tag bits of their
// hashes; never both. Bit i of bits stands for key base+i, and base is a
// multiple of 64, so two filters' words line up and merge ORs them at an
// offset; a filter with no keys, or with tags, has no bits. lo..hi is the
// keys' range; col is the relation column a filtered scan reads the key
// from.
type keyFilter struct {
	bits   []uint64
	base   int64
	tags   *tagSet
	lo, hi int64
	col    int
}

// maxFilterWords bounds bits: any range of 2^20 keys fits.
const maxFilterWords = 1<<14 + 1

func newKeyFilter() *keyFilter {
	return &keyFilter{lo: math.MaxInt64, hi: math.MinInt64}
}

// add enters the non-NULL keys among ints: a key inside bits costs one bit
// set, any other key goes through insert.
func (f *keyFilter) add(ints []int64, nulls []bool) {
	ks, base, end := f.bits, uint64(f.base), uint64(len(f.bits))<<6
	lo, hi := f.lo, f.hi
	for r, k := range ints {
		if nulls != nil && nulls[r] {
			continue
		}
		lo, hi = min(lo, k), max(hi, k)
		if i := uint64(k) - base; i < end {
			ks[i>>6] |= 1 << (i & 63)
			continue
		}
		f.insert(k, lo, hi)
		ks, base, end = f.bits, uint64(f.base), uint64(len(f.bits))<<6
	}
	f.lo, f.hi = lo, hi
}

// insert enters key k, which bits do not cover; klo..khi is the keys'
// range, k included. The bits are laid out anew over the words the range
// needs, numbered in key order (key k is in word (k+2^63)/64), and as
// many again as they held before, on k's side, but never past the int64
// range or maxFilterWords words in all; when the range alone needs more
// words, the bits turn into tags.
func (f *keyFilter) insert(k, klo, khi int64) {
	b, n := (uint64(f.base)^1<<63)>>6, uint64(len(f.bits))
	lo, hi := (uint64(klo)^1<<63)>>6, (uint64(khi)^1<<63)>>6+1
	if f.tags == nil && hi-lo > maxFilterWords {
		f.toTags()
	}
	if f.tags != nil {
		f.tags.set(simd.Mix64(uint64(k)))
		return
	}
	if extra := min(n, maxFilterWords-(hi-lo)); k == klo {
		lo -= min(extra, lo)
	} else {
		hi = min(hi+extra, 1<<58)
	}
	ks := make([]uint64, hi-lo)
	if from, to := max(b, lo), min(b+n, hi); from < to {
		copy(ks[from-lo:], f.bits[from-b:to-b])
	}
	f.bits, f.base = ks, int64(lo<<6^1<<63)
	i := uint64(k) - uint64(f.base)
	ks[i>>6] |= 1 << (i & 63)
}

// toTags turns the bits into the tags of their keys.
func (f *keyFilter) toTags() {
	f.tags = new(tagSet)
	for i, w := range f.bits {
		for ; w != 0; w &= w - 1 {
			f.tags.set(simd.Mix64(uint64(f.base) + uint64(i<<6+bits.TrailingZeros64(w))))
		}
	}
	f.bits = nil
}

// merge enters another worker's keys: while both filters hold bits, it
// grows f's to cover o's range, as adding o's least and greatest key
// does, and ORs in o's words of that range at their offset; once either
// holds tags, or the two ranges pass maxFilterWords words together, it
// ORs o's tags into f's.
func (f *keyFilter) merge(o *keyFilter) {
	if o.lo > o.hi {
		return
	}
	if o.tags == nil {
		if f.add([]int64{o.lo, o.hi}, nil); f.tags == nil {
			ob, fb := uint64(o.base), uint64(f.base)
			for i := (uint64(o.lo) - ob) &^ 63; i <= uint64(o.hi)-ob; i += 64 {
				f.bits[(i+ob-fb)>>6] |= o.bits[i>>6]
			}
			return
		}
	}
	if f.tags == nil {
		f.toTags()
	}
	if o.tags == nil {
		o.toTags()
	}
	for i, w := range o.tags {
		f.tags[i] |= w
	}
	f.lo, f.hi = min(f.lo, o.lo), max(f.hi, o.hi)
}

// keep compacts the match vector m to the rows whose key, vals[i] for
// row m[i], the filter holds, keeping their order: over bits in one
// branch-free kernel (simd.ReduceKeyBits), over tags with a hash a row.
func (f *keyFilter) keep(m []uint32, vals []int64) []uint32 {
	if f.tags == nil {
		return simd.ReduceKeyBits(f.bits, f.base, vals, m)
	}
	w, vals := 0, vals[:len(m)]
	for i, p := range m {
		if f.tags.test(simd.Mix64(uint64(vals[i]))) {
			m[w] = p
			w++
		}
	}
	return m[:w]
}

// span is the size of the direct front a join over these keys indexes
// its entries in (keyTable.dir), or 0 when they are too sparse for one:
// their range hi−lo+1 must be at most 4 × the distinct keys and at most
// 2^20. Only bits count the distinct keys; over tags it is 0. It
// computes hi−lo unsigned, which cannot overflow.
func (f *keyFilter) span() int {
	n := 0
	for _, w := range f.bits {
		n += bits.OnesCount64(w)
	}
	d := uint64(f.hi) - uint64(f.lo)
	if d >= 1<<20 || d >= 4*uint64(n) {
		return 0
	}
	return int(d) + 1
}
