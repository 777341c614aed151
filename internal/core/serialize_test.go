package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"testing"

	"datablocks/internal/compress"
	"datablocks/internal/types"
)

// mkNulls builds a null mask: "none", "some" (every third row), "all".
func mkNulls(n int, mode string) []bool {
	switch mode {
	case "none":
		return nil
	case "all":
		nulls := make([]bool, n)
		for i := range nulls {
			nulls[i] = true
		}
		return nulls
	default: // some
		nulls := make([]bool, n)
		for i := 0; i < n; i += 3 {
			nulls[i] = true
		}
		return nulls
	}
}

// serializeCase produces one column engineered to freeze into a specific
// compression scheme.
type serializeCase struct {
	name   string
	kind   types.Kind
	scheme compress.Scheme
	gen    func(n int) ColumnData
}

func serializeCases() []serializeCase {
	return []serializeCase{
		{"int/single", types.Int64, compress.SingleValue, func(n int) ColumnData {
			ints := make([]int64, n)
			for i := range ints {
				ints[i] = 42
			}
			return ColumnData{Kind: types.Int64, Ints: ints}
		}},
		{"int/trunc1", types.Int64, compress.Truncation, func(n int) ColumnData {
			ints := make([]int64, n)
			for i := range ints {
				ints[i] = 1000 + int64(i%200)
			}
			return ColumnData{Kind: types.Int64, Ints: ints}
		}},
		{"int/trunc2", types.Int64, compress.Truncation, func(n int) ColumnData {
			ints := make([]int64, n)
			for i := range ints {
				ints[i] = int64(i * 7 % 60000)
			}
			return ColumnData{Kind: types.Int64, Ints: ints}
		}},
		{"int/trunc4", types.Int64, compress.Truncation, func(n int) ColumnData {
			ints := make([]int64, n)
			for i := range ints {
				ints[i] = int64(i) * 1_000_003
			}
			return ColumnData{Kind: types.Int64, Ints: ints}
		}},
		{"int/dict", types.Int64, compress.Dictionary, func(n int) ColumnData {
			// Two distinct values spread wider than 4-byte truncation can
			// reach, so the dictionary wins.
			ints := make([]int64, n)
			for i := range ints {
				if i%2 == 0 {
					ints[i] = -1 << 40
				} else {
					ints[i] = 1 << 40
				}
			}
			return ColumnData{Kind: types.Int64, Ints: ints}
		}},
		{"int/uncompressed", types.Int64, compress.Uncompressed, func(n int) ColumnData {
			// Pseudo-random full-width values: truncation needs 8 bytes and
			// the dictionary is as large as the data.
			ints := make([]int64, n)
			x := uint64(0x9E3779B97F4A7C15)
			for i := range ints {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				ints[i] = int64(x)
			}
			return ColumnData{Kind: types.Int64, Ints: ints}
		}},
		{"float/single", types.Float64, compress.SingleValue, func(n int) ColumnData {
			fs := make([]float64, n)
			for i := range fs {
				fs[i] = 3.25
			}
			return ColumnData{Kind: types.Float64, Floats: fs}
		}},
		{"float/uncompressed", types.Float64, compress.Uncompressed, func(n int) ColumnData {
			fs := make([]float64, n)
			for i := range fs {
				fs[i] = float64(i) * 0.5
			}
			return ColumnData{Kind: types.Float64, Floats: fs}
		}},
		{"str/single", types.String, compress.SingleValue, func(n int) ColumnData {
			ss := make([]string, n)
			for i := range ss {
				ss[i] = "constant"
			}
			return ColumnData{Kind: types.String, Strs: ss}
		}},
		{"str/dict", types.String, compress.Dictionary, func(n int) ColumnData {
			words := []string{"alpha", "bravo", "charlie", "delta", ""}
			ss := make([]string, n)
			for i := range ss {
				ss[i] = words[i%len(words)]
			}
			return ColumnData{Kind: types.String, Strs: ss}
		}},
	}
}

// TestSerializeRoundTripMatrix round-trips every compression scheme ×
// {no nulls, some nulls, all nulls} × {PSMA as frozen, dropped} through
// MarshalBinary/UnmarshalBlock and compares the blocks cell by cell.
// Freeze builds a PSMA for every coded attribute; the format's PSMA flag
// is per attribute and UnmarshalBlock accepts it off on any scheme, so the
// nopsma cases drop the frozen block's PSMA before marshalling it.
func TestSerializeRoundTripMatrix(t *testing.T) {
	const n = 512
	for _, tc := range serializeCases() {
		for _, nullMode := range []string{"none", "some", "all"} {
			for _, noPSMA := range []bool{false, true} {
				name := tc.name + "/nulls=" + nullMode
				if noPSMA {
					name += "/nopsma"
				}
				t.Run(name, func(t *testing.T) {
					col := tc.gen(n)
					col.Nulls = mkNulls(n, nullMode)
					blk, err := Freeze([]ColumnData{col}, n, FreezeOptions{SortBy: -1})
					if err != nil {
						t.Fatalf("freeze: %v", err)
					}
					if noPSMA {
						blk.Attr(0).Psma = nil
					}
					if nullMode == "none" && blk.Scheme(0) != tc.scheme {
						t.Fatalf("expected scheme %v, got %v (bad test setup)", tc.scheme, blk.Scheme(0))
					}
					if nullMode == "all" && blk.Scheme(0) != compress.SingleValue {
						t.Fatalf("all-null column froze to %v, want single-value", blk.Scheme(0))
					}
					buf, err := blk.MarshalBinary()
					if err != nil {
						t.Fatalf("marshal: %v", err)
					}
					got, err := UnmarshalBlock(buf, []types.Kind{tc.kind})
					if err != nil {
						t.Fatalf("unmarshal: %v", err)
					}
					if got.Rows() != blk.Rows() || got.Scheme(0) != blk.Scheme(0) {
						t.Fatalf("rows/scheme mismatch: %d/%v vs %d/%v",
							got.Rows(), got.Scheme(0), blk.Rows(), blk.Scheme(0))
					}
					if (got.Attr(0).Psma == nil) != (blk.Attr(0).Psma == nil) {
						t.Fatalf("PSMA presence changed across round-trip")
					}
					if got.Attr(0).NullCount != blk.Attr(0).NullCount {
						t.Fatalf("null count %d, want %d", got.Attr(0).NullCount, blk.Attr(0).NullCount)
					}
					for row := 0; row < n; row++ {
						want, have := blk.Value(0, row), got.Value(0, row)
						if want.IsNull() != have.IsNull() {
							t.Fatalf("row %d: null mismatch", row)
						}
						if !want.IsNull() && want.String() != have.String() {
							t.Fatalf("row %d: %v != %v", row, have, want)
						}
					}
				})
			}
		}
	}
}

// patchCRC recomputes the v3 checksums after a test mutated the buffer, so
// the mutation reaches the structural validation it targets: every
// attribute CRC whose sections lie inside the buffer, then the header CRC.
// attrs is the attribute count of the schema, not the buffer's claim.
func patchCRC(buf []byte, attrs int) {
	if len(buf) < DirectorySize(attrs) {
		return
	}
	for i := 0; i < attrs; i++ {
		h := buf[headerSize+i*attrHdrSize:]
		off, length := int(binary.LittleEndian.Uint32(h[32:])), int(binary.LittleEndian.Uint32(h[36:]))
		if off+length <= len(buf) {
			binary.LittleEndian.PutUint32(h[56:], crc32.Checksum(buf[off:off+length], crcTable))
		}
	}
	binary.LittleEndian.PutUint32(buf[crcOffset:], headerCRC(buf, attrs))
}

// mustMarshalBlock serializes a three-attribute block — truncated ints, a
// string dictionary, an integer dictionary — and returns it with its
// schema.
func mustMarshalBlock(t testing.TB) ([]byte, []types.Kind) {
	t.Helper()
	const n = 256
	ints := make([]int64, n)
	strs := make([]string, n)
	wide := make([]int64, n)
	for i := range ints {
		ints[i] = int64(i)
		strs[i] = []string{"x", "y", "z"}[i%3]
		wide[i] = int64(i%2) << 40
	}
	blk, err := Freeze([]ColumnData{
		{Kind: types.Int64, Ints: ints},
		{Kind: types.String, Strs: strs},
		{Kind: types.Int64, Ints: wide},
	}, n, FreezeOptions{SortBy: -1})
	if err != nil {
		t.Fatal(err)
	}
	if blk.Scheme(2) != compress.Dictionary {
		t.Fatalf("attribute 2 froze to %v, want a dictionary (bad test setup)", blk.Scheme(2))
	}
	buf, err := blk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return buf, []types.Kind{types.Int64, types.String, types.Int64}
}

// subsets enumerates every column subset of an n-attribute block, the
// empty one included.
func subsets(n int) [][]int {
	out := make([][]int, 0, 1<<n)
	for mask := 0; mask < 1<<n; mask++ {
		cols := []int{}
		for c := 0; c < n; c++ {
			if mask&(1<<c) != 0 {
				cols = append(cols, c)
			}
		}
		out = append(out, cols)
	}
	return out
}

func contains(cols []int, c int) bool {
	for _, x := range cols {
		if x == c {
			return true
		}
	}
	return false
}

// TestLoadBySubset loads every column subset of a block, directly and on
// top of every other subset, and compares what is loaded cell by cell with
// the whole-block decode; the bytes read must be exactly the sections of
// the attributes that were missing.
// TestReloadStringSectionAllocs: reloading a string dictionary costs two
// allocations, its section and its offsets, whatever its entry count. The
// block without it is a key column alone; what any coded attribute costs
// on top of that — its vector header and its PSMA — is priced by a
// truncated integer attribute over the same codes, which has no dictionary.
func TestReloadStringSectionAllocs(t *testing.T) {
	const n = 4096
	reloadAllocs := func(cols ...ColumnData) float64 {
		t.Helper()
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(i)
		}
		cols = append([]ColumnData{{Kind: types.Int64, Ints: keys}}, cols...)
		blk, err := Freeze(cols, n, FreezeOptions{SortBy: -1})
		if err != nil {
			t.Fatal(err)
		}
		buf, err := blk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		kinds := make([]types.Kind, len(cols))
		for i := range cols {
			kinds[i] = cols[i].Kind
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := UnmarshalBlock(buf, kinds); err != nil {
				t.Fatal(err)
			}
		})
	}
	without := reloadAllocs()
	codes := make([]int64, n)
	for i := range codes {
		codes[i] = int64(i % 7)
	}
	shell := reloadAllocs(ColumnData{Kind: types.Int64, Ints: codes}) - without
	for _, card := range []int{7, 250, 4000} {
		strs := make([]string, n)
		for i := range strs {
			strs[i] = fmt.Sprintf("entry-%d", i%card)
		}
		with := reloadAllocs(ColumnData{Kind: types.String, Strs: strs})
		t.Logf("%d entries: %.0f allocations, %.0f without the attribute, %.0f for a coded attribute's shell", card, with, without, shell)
		if with-without > shell+2 {
			t.Fatalf("%d entries: a string dictionary costs %.0f allocations beyond its attribute's shell, want <= 2", card, with-without-shell)
		}
	}
}

func TestLoadBySubset(t *testing.T) {
	buf, kinds := mustMarshalBlock(t)
	whole, err := UnmarshalBlock(buf, kinds)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ParseDirectory(buf[:DirectorySize(len(kinds))], kinds)
	if err != nil {
		t.Fatal(err)
	}
	check := func(b *Block, loaded []int) {
		t.Helper()
		for c := range kinds {
			if got := b.Has([]int{c}); got != contains(loaded, c) {
				t.Fatalf("Has(%d) = %v with %v loaded", c, got, loaded)
			}
			if !contains(loaded, c) {
				continue
			}
			for row := 0; row < whole.Rows(); row++ {
				if got, want := b.Value(c, row), whole.Value(c, row); got.String() != want.String() {
					t.Fatalf("cols %v: cell (%d,%d) = %v, want %v", loaded, c, row, got, want)
				}
			}
		}
		if b.Has(nil) != (len(loaded) == len(kinds)) {
			t.Fatalf("Has(nil) = %v with %v loaded", b.Has(nil), loaded)
		}
	}
	for _, first := range subsets(len(kinds)) {
		base, n, lerr := d.Load(bytes.NewReader(buf), nil, first)
		if lerr != nil {
			t.Fatalf("load %v: %v", first, lerr)
		}
		want := 0
		for _, c := range first {
			want += d.AttrBytes(c)
		}
		if n != want {
			t.Fatalf("load %v read %d bytes, its sections are %d", first, n, want)
		}
		check(base, first)
		for _, second := range subsets(len(kinds)) {
			more, n, lerr := d.Load(bytes.NewReader(buf), base, second)
			if lerr != nil {
				t.Fatalf("load %v on %v: %v", second, first, lerr)
			}
			union, want := append([]int{}, first...), 0
			for _, c := range second {
				if !contains(first, c) {
					union = append(union, c)
					want += d.AttrBytes(c)
				}
			}
			if n != want {
				t.Fatalf("load %v on %v read %d bytes, the missing sections are %d", second, first, n, want)
			}
			check(more, union)
			check(base, first) // the block a reader holds never changes
			for _, c := range first {
				if more.Attr(c).Ints != base.Attr(c).Ints || more.Attr(c).Strs != base.Attr(c).Strs {
					t.Fatalf("attribute %d was decoded again instead of shared", c)
				}
			}
		}
	}
	all, n, err := d.Load(bytes.NewReader(buf), nil, nil)
	if err != nil || !all.Has(nil) || n != len(buf)-d.Size()-dataSlack {
		t.Fatalf("load of all columns: %d bytes, err %v", n, err)
	}
	if _, _, lerr := d.Load(bytes.NewReader(buf), nil, []int{len(kinds)}); lerr == nil {
		t.Fatal("out-of-range attribute went undetected")
	}
	if _, merr := all.MarshalBinary(); merr != nil {
		t.Fatalf("a block loaded by attribute does not re-marshal: %v", merr)
	}
	part, _, err := d.Load(bytes.NewReader(buf), nil, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := part.MarshalBinary(); err == nil {
		t.Fatal("a partly loaded block marshalled")
	}
}

// TestUnmarshalDetectsCorruption flips payload bytes and checks the CRCs
// reject the buffer (corruption is an error at reload, not a wrong query
// result) — and that they do so per attribute: a flipped byte in attribute
// i fails the loads that request i, and only those.
func TestUnmarshalDetectsCorruption(t *testing.T) {
	buf, kinds := mustMarshalBlock(t)
	if _, err := UnmarshalBlock(buf, kinds); err != nil {
		t.Fatalf("pristine buffer rejected: %v", err)
	}
	dirLen := DirectorySize(len(kinds))
	d, err := ParseDirectory(buf[:dirLen], kinds)
	if err != nil {
		t.Fatal(err)
	}
	// Anywhere in the header or directory: nothing loads.
	for _, off := range []int{0, 9, 17, crcOffset, headerSize, headerSize + 7, headerSize + attrHdrSize + 33, dirLen - 1} {
		bad := append([]byte(nil), buf...)
		bad[off] ^= 0xFF
		if _, err := UnmarshalBlock(bad, kinds); err == nil {
			t.Fatalf("corrupt header byte at %d went undetected", off)
		}
		if _, err := ParseDirectory(bad[:dirLen], kinds); err == nil {
			t.Fatalf("corrupt header byte at %d went undetected by ParseDirectory", off)
		}
	}
	for i := range kinds {
		e := d.attrs[i]
		for _, off := range []int{e.off, e.off + e.length/2, e.off + e.length - 1} {
			bad := append([]byte(nil), buf...)
			bad[off] ^= 0x40
			if _, err := UnmarshalBlock(bad, kinds); err == nil {
				t.Fatalf("corrupt byte at %d (attribute %d) went undetected", off, i)
			}
			for _, cols := range subsets(len(kinds)) {
				_, _, err := d.Load(bytes.NewReader(bad), nil, cols)
				if want := contains(cols, i); (err != nil) != want {
					t.Fatalf("attribute %d corrupt at %d, load of %v: err = %v, want failure %v", i, off, cols, err, want)
				}
			}
		}
	}
}

// TestUnmarshalTruncated slices the buffer at every prefix length and
// requires an error, never a panic — including when the checksums are
// fixed up so structural validation, not a CRC, must catch the damage —
// and a short read through Load must be an error too.
func TestUnmarshalTruncated(t *testing.T) {
	buf, kinds := mustMarshalBlock(t)
	d, err := ParseDirectory(buf, kinds)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < len(buf); l += 13 {
		trunc := append([]byte(nil), buf[:l]...)
		if _, err := UnmarshalBlock(trunc, kinds); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", l)
		}
		patchCRC(trunc, len(kinds))
		if _, err := UnmarshalBlock(trunc, kinds); err == nil {
			t.Fatalf("truncation to %d bytes (CRC patched) went undetected", l)
		}
		// A reader that kept the directory and finds the file cut short.
		last := d.attrs[len(kinds)-1]
		if l < last.off+last.length {
			if _, _, err := d.Load(bytes.NewReader(buf[:l]), nil, nil); err == nil {
				t.Fatalf("short read at %d bytes went undetected", l)
			}
		}
	}
}

// TestUnmarshalRejectsBadStructure corrupts individual header fields with
// valid checksums, so each structural bound must fire.
func TestUnmarshalRejectsBadStructure(t *testing.T) {
	buf, kinds := mustMarshalBlock(t)
	attr := func(b []byte, i int) []byte { return b[headerSize+i*attrHdrSize:] }
	u32 := binary.LittleEndian.Uint32
	put32 := binary.LittleEndian.PutUint32
	mutate := func(name string, f func(b []byte)) {
		t.Helper()
		bad := append([]byte(nil), buf...)
		f(bad)
		patchCRC(bad, len(kinds))
		if _, err := UnmarshalBlock(bad, kinds); err == nil {
			t.Fatalf("%s went undetected", name)
		}
	}
	mutate("version 1", func(b []byte) { put32(b[4:], 1) })
	mutate("version 2", func(b []byte) { put32(b[4:], 2) })
	mutate("zero rows", func(b []byte) { put32(b[8:], 0) })
	mutate("huge rows", func(b []byte) { put32(b[8:], MaxRows+1) })
	mutate("attr count", func(b []byte) { put32(b[12:], 4) })
	mutate("block size", func(b []byte) { put32(b[16:], uint32(len(b)+1)) })
	mutate("sections past the end of the file", func(b []byte) { put32(attr(b, 2)[32:], uint32(len(b))) })
	mutate("sections inside the directory", func(b []byte) { put32(attr(b, 0)[32:], headerSize) })
	mutate("overlapping sections", func(b []byte) { put32(attr(b, 1)[32:], u32(attr(b, 0)[32:])) })
	mutate("gap between sections", func(b []byte) { put32(attr(b, 1)[32:], u32(attr(b, 1)[32:])+8) })
	mutate("section length past the end", func(b []byte) { put32(attr(b, 2)[36:], uint32(len(b))) })
	mutate("data length past the end", func(b []byte) { put32(attr(b, 0)[44:], uint32(len(b))) })
	mutate("data length one row short", func(b []byte) {
		put32(attr(b, 0)[44:], u32(attr(b, 0)[44:])-1)
		put32(attr(b, 0)[36:], u32(attr(b, 0)[36:])-1)
	})
	mutate("bogus scheme", func(b []byte) { attr(b, 0)[1] = 200 })
	mutate("string scheme on integers", func(b []byte) { attr(b, 1)[0] = byte(types.Int64) })
	mutate("code width 3", func(b []byte) { attr(b, 0)[2] = 3 })
	mutate("more nulls than rows", func(b []byte) { put32(attr(b, 0)[4:], 1000) })
	mutate("validity flag without a bitmap", func(b []byte) { attr(b, 0)[3] |= flagValidity })
	mutate("dictionary on a truncated attribute", func(b []byte) { put32(attr(b, 0)[40:], 1) })
	mutate("empty integer dictionary", func(b []byte) { put32(attr(b, 2)[40:], 0) })
	mutate("huge integer dictionary count", func(b []byte) { put32(attr(b, 2)[40:], 0x1FFFFFFF) })
	mutate("huge string dictionary count", func(b []byte) {
		// A crafted count must be rejected by a bound check, not by a
		// multi-GiB allocation.
		put32(attr(b, 1)[48:], 0xFFFFFFF0)
	})
	mutate("string section on integers", func(b []byte) { put32(attr(b, 0)[52:], 4) })
	mutate("string length overruns its section", func(b []byte) {
		h := attr(b, 1)
		strOff := u32(h[32:]) + u32(h[44:]) // strings follow the data
		put32(b[strOff:], 0xFFFF)
	})
	mutate("string dict code out of range", func(b []byte) {
		// 3 dictionary entries → code 250 is invalid.
		b[u32(attr(b, 1)[32:])] = 250
	})
	mutate("integer dict code out of range", func(b []byte) {
		h := attr(b, 2)
		b[u32(h[32:])+8*u32(h[40:])] = 7 // first code, behind the dictionary
	})
	mutate("PSMA range past the rows", func(b []byte) {
		h := attr(b, 0)
		put32(b[u32(h[32:])+u32(h[36:])-4:], 1<<20) // last slot's End
	})
}

// fuzzSeeds returns serialized v3 blocks covering the three kinds, NULLs
// and PSMA presence, with their schema.
func fuzzSeeds(f *testing.F) ([][]byte, []types.Kind) {
	const n = 64
	kinds := []types.Kind{types.Int64, types.Float64, types.String}
	seed := func(nullMode string) []byte {
		ints := make([]int64, n)
		floats := make([]float64, n)
		strs := make([]string, n)
		for i := range ints {
			ints[i] = int64(i % 17)
			floats[i] = float64(i) / 3
			strs[i] = []string{"a", "bb", "ccc"}[i%3]
		}
		blk, err := Freeze([]ColumnData{
			{Kind: types.Int64, Ints: ints, Nulls: mkNulls(n, nullMode)},
			{Kind: types.Float64, Floats: floats},
			{Kind: types.String, Strs: strs, Nulls: mkNulls(n, nullMode)},
		}, n, FreezeOptions{SortBy: -1})
		if err != nil {
			f.Fatal(err)
		}
		buf, err := blk.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		return buf
	}
	return [][]byte{seed("none"), seed("some"), seed("all"), {}, make([]byte, headerSize)}, kinds
}

// readAll touches every cell of the attributes in cols (nil: all).
func readAll(blk *Block, cols []int) {
	for col := 0; col < blk.NumAttrs(); col++ {
		if cols != nil && !contains(cols, col) {
			continue
		}
		for row := 0; row < blk.Rows(); row++ {
			_ = blk.Value(col, row)
		}
	}
}

// FuzzUnmarshalBlock feeds mutated buffers through UnmarshalBlock. The
// harness re-stamps the checksums so the fuzzer reaches the structural
// validation behind them; any input that parses must then be fully
// readable without panicking.
func FuzzUnmarshalBlock(f *testing.F) {
	seeds, kinds := fuzzSeeds(f)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		buf := append([]byte(nil), data...)
		patchCRC(buf, len(kinds))
		blk, err := UnmarshalBlock(buf, kinds)
		if err != nil {
			return
		}
		readAll(blk, nil)
		if _, err := blk.MarshalBinary(); err != nil {
			t.Fatalf("re-marshal of valid block failed: %v", err)
		}
	})
}

// FuzzLoadAttrs decodes a fuzzer-chosen attribute subset of a mutated
// buffer the way an evicted chunk is reloaded — directory first, then the
// subset's sections, then the remaining attributes on top — through a
// reader that may be shorter than the directory claims. Whatever loads
// must be readable, and when the whole buffer also unmarshals the two
// decodes must agree.
func FuzzLoadAttrs(f *testing.F) {
	seeds, kinds := fuzzSeeds(f)
	for i, s := range seeds {
		f.Add(s, uint8(i+1))
	}
	f.Fuzz(func(t *testing.T, data []byte, mask uint8) {
		buf := append([]byte(nil), data...)
		patchCRC(buf, len(kinds))
		d, err := ParseDirectory(buf, kinds)
		if err != nil || d.BlockSize() > len(buf)+64 {
			// The store checks the claimed size against the file; a little
			// slack keeps short reads in play.
			return
		}
		cols := []int{}
		for c := range kinds {
			if mask&(1<<c) != 0 {
				cols = append(cols, c)
			}
		}
		part, _, err := d.Load(bytes.NewReader(buf), nil, cols)
		if err != nil {
			return
		}
		readAll(part, cols)
		full, _, err := d.Load(bytes.NewReader(buf), part, nil)
		if err != nil {
			return
		}
		readAll(full, nil)
		whole, err := UnmarshalBlock(buf, kinds)
		if err != nil {
			return // e.g. trailing bytes Load never looks at
		}
		for col := range kinds {
			for row := 0; row < whole.Rows(); row++ {
				if got, want := full.Value(col, row), whole.Value(col, row); got.String() != want.String() {
					t.Fatalf("cell (%d,%d): loaded by attribute %v, unmarshalled %v", col, row, got, want)
				}
			}
		}
	})
}

// TestLoadedCodeVectorsCarryGatherSlack: the code vectors of a block
// decoded by UnmarshalBlock or Directory.Load reach at least 3 bytes past
// their last code, the reach of simd's 4-byte gathers; inside a block the
// bytes are the next section's, behind the last one the trailer's.
func TestLoadedCodeVectorsCarryGatherSlack(t *testing.T) {
	check := func(label string, b *Block) {
		t.Helper()
		for i := range b.attrs {
			a := &b.attrs[i]
			if a.Ints != nil && a.Ints.Data != nil && len(a.Ints.Data) < a.Ints.N*a.Ints.Width+3 {
				t.Errorf("%s attr %d: %d data bytes for %d codes of width %d", label, i, len(a.Ints.Data), a.Ints.N, a.Ints.Width)
			}
			if a.Strs != nil && a.Strs.Data != nil && len(a.Strs.Data) < a.Strs.N*a.Strs.Width+3 {
				t.Errorf("%s attr %d: %d string code bytes for %d codes of width %d", label, i, len(a.Strs.Data), a.Strs.N, a.Strs.Width)
			}
		}
	}
	bufs := map[string][]byte{}
	kinds := map[string][]types.Kind{}
	bufs["three"], kinds["three"] = mustMarshalBlock(t)
	for _, tc := range serializeCases() {
		blk, err := Freeze([]ColumnData{tc.gen(300)}, 300, FreezeOptions{SortBy: -1})
		if err != nil {
			t.Fatal(err)
		}
		if bufs[tc.name], err = blk.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
		kinds[tc.name] = []types.Kind{tc.kind}
	}
	for name, buf := range bufs {
		b, err := UnmarshalBlock(buf, kinds[name])
		if err != nil {
			t.Fatal(err)
		}
		check(name+"/unmarshal", b)
		d, err := ParseDirectory(buf[:DirectorySize(len(kinds[name]))], kinds[name])
		if err != nil {
			t.Fatal(err)
		}
		for _, cols := range subsets(len(kinds[name])) {
			b, _, err := d.Load(bytes.NewReader(buf), nil, cols)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprint(name, "/load", cols), b)
		}
	}
}
