// Package core implements the Data Block (§3): an immutable, self-contained
// container holding up to 2^16 tuples of a relation chunk in compressed
// columnar (PAX) form, together with per-attribute SMAs (min/max) and
// Positional SMAs.
//
// A frozen block supports three operations, mirroring §3.4:
//
//   - Scan: SARGable predicates are translated into the compressed code
//     domain (skipping the block entirely when the SMA rules it out),
//     narrowed by the PSMA, evaluated with the simd kernels to produce a
//     match-position vector, and the matches are unpacked vector-at-a-time.
//   - Point access: any attribute of any row decompresses in O(1) thanks to
//     byte-aligned codes — the property that distinguishes Data Blocks from
//     bit-packed formats (§5.4).
//   - Serialization: the block flattens into a single pointer-free byte
//     buffer (Figure 3), suitable for eviction to secondary storage.
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"datablocks/internal/compress"
	"datablocks/internal/psma"
	"datablocks/internal/simd"
	"datablocks/internal/types"
)

// MaxRows is the maximum tuple count per Data Block (§3.1: typically up to
// 2^16 records).
const MaxRows = 1 << 16

// Attr is one compressed attribute of a block. Exactly one of Ints, Floats,
// Strs is set, according to Kind.
type Attr struct {
	Kind      types.Kind
	Ints      *compress.IntVector
	Floats    *compress.FloatVector
	Strs      *compress.StringVector
	Validity  []uint64 // bit set = value present; nil when no NULLs
	NullCount int
	Psma      *psma.Table // nil for floats and single-value attributes
}

// loaded reports whether the attribute's vectors are in RAM; only a block
// reloaded by attribute (Directory.Load) holds attributes that are not.
func (a *Attr) loaded() bool { return a.Ints != nil || a.Floats != nil || a.Strs != nil }

// allNull reports whether every value of the attribute is NULL — the one
// case in which a nullable attribute carries no validity bitmap.
func (a *Attr) allNull() bool {
	switch a.Kind {
	case types.Int64:
		return a.Ints.AllNull
	case types.Float64:
		return a.Floats.AllNull
	default:
		return a.Strs.AllNull
	}
}

// scheme returns the attribute's compression scheme.
func (a *Attr) scheme() compress.Scheme {
	switch a.Kind {
	case types.Int64:
		return a.Ints.Scheme
	case types.Float64:
		return a.Floats.Scheme
	default:
		return a.Strs.Scheme
	}
}

// Block is an immutable ("frozen") compressed chunk.
type Block struct {
	n     int
	attrs []Attr
	// missing counts attributes whose vectors are not loaded. It is zero
	// for every block except one Directory.Load built from a column subset;
	// reading an attribute such a block lacks is a caller bug (see Has).
	missing int
	// decoded marks a block decoded from its serialized form, one that was
	// evicted once already (see Row).
	decoded bool
}

// FreezeOptions controls block construction.
type FreezeOptions struct {
	// SortBy reorders the block's tuples by the given column before
	// compression, improving PSMA precision for clustered queries (§3.2,
	// Figure 11). Negative keeps the insertion order.
	SortBy int
}

// Freeze compresses n tuples into an immutable Data Block, choosing the
// optimal compression scheme per attribute (§3.3) and building SMAs and
// PSMAs (§3.2).
func Freeze(cols []ColumnData, n int, opts FreezeOptions) (*Block, error) {
	if n <= 0 || n > MaxRows {
		return nil, fmt.Errorf("core: block size %d out of range (1..%d)", n, MaxRows)
	}
	if len(cols) == 0 {
		return nil, errors.New("core: no columns")
	}
	if opts.SortBy >= len(cols) {
		return nil, fmt.Errorf("core: sort column %d out of range", opts.SortBy)
	}
	for ci := range cols {
		if err := cols[ci].check(n); err != nil {
			return nil, fmt.Errorf("core: column %d: %w", ci, err)
		}
	}
	var perm []uint32
	if opts.SortBy >= 0 {
		perm = sortPermutation(&cols[opts.SortBy], n)
	}
	b := &Block{n: n, attrs: make([]Attr, len(cols))}
	for ci := range cols {
		col := cols[ci]
		if perm != nil {
			col = ColumnData{}
			Gather(&col, &cols[ci], perm)
		}
		a := &b.attrs[ci]
		a.Kind = col.Kind
		if col.Nulls != nil {
			nullCount := 0
			for _, isNull := range col.Nulls[:n] {
				if isNull {
					nullCount++
				}
			}
			if nullCount > 0 {
				a.NullCount = nullCount
				a.Validity = make([]uint64, simd.BitmapWords(n))
				for i, isNull := range col.Nulls[:n] {
					if !isNull {
						simd.BitmapSet(a.Validity, uint32(i))
					}
				}
			} else {
				col.Nulls = nil
			}
		}
		switch col.Kind {
		case types.Int64:
			a.Ints = compress.EncodeInts(col.Ints[:n], col.Nulls)
			if a.Ints.Scheme != compress.SingleValue {
				v := a.Ints
				a.Psma = psma.Build(n, v.Width, v.CodeAt, v.MinCode())
			}
		case types.Float64:
			a.Floats = compress.EncodeFloats(col.Floats[:n], col.Nulls)
		case types.String:
			a.Strs = compress.EncodeStrings(col.Strs[:n], col.Nulls)
			if len(a.Strs.Section) > math.MaxUint32 {
				return nil, fmt.Errorf("core: column %d: %d distinct string bytes exceed a section's 4 GiB", ci, len(a.Strs.Section))
			}
			if a.Strs.Scheme != compress.SingleValue {
				v := a.Strs
				a.Psma = psma.Build(n, v.Width, v.CodeAt, 0)
			}
		}
	}
	return b, nil
}

// sortPermutation returns the stable ordering of rows by the given
// column: the order of Compare, which Result.SortBy shares.
func sortPermutation(col *ColumnData, n int) []uint32 {
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	sort.SliceStable(perm, func(a, b int) bool { return Compare(col, int(perm[a]), int(perm[b])) < 0 })
	return perm
}

// Rows returns the number of tuples in the block.
func (b *Block) Rows() int { return b.n }

// NumAttrs returns the number of attributes.
func (b *Block) NumAttrs() int { return len(b.attrs) }

// Attr exposes the compressed attribute at ordinal i (read-only).
func (b *Block) Attr(i int) *Attr { return &b.attrs[i] }

// Has reports whether the block holds every attribute listed in cols. A nil
// cols asks for all attributes; an empty one for none.
func (b *Block) Has(cols []int) bool {
	if b.missing == 0 {
		return true
	}
	if cols == nil {
		return false
	}
	for _, c := range cols {
		if !b.attrs[c].loaded() {
			return false
		}
	}
	return true
}

// Scheme returns the compression scheme of attribute col.
func (b *Block) Scheme(col int) compress.Scheme { return b.attrs[col].scheme() }

// LayoutKey identifies the block's storage-layout combination: the tuple of
// (scheme, width) per attribute, with a placeholder for attributes that are
// not loaded. The number of distinct layout keys across a relation drives
// JIT code-path explosion (Figure 5).
func (b *Block) LayoutKey() string {
	key := make([]byte, 0, 2*len(b.attrs))
	for i := range b.attrs {
		a := &b.attrs[i]
		if !a.loaded() {
			key = append(key, 0xFF, 0)
			continue
		}
		w := 0
		switch a.Kind {
		case types.Int64:
			w = a.Ints.Width
		case types.String:
			w = a.Strs.Width
		}
		key = append(key, byte(a.scheme()), byte(w))
	}
	return string(key)
}

// IsNull reports whether the cell (col, row) is NULL.
func (b *Block) IsNull(col, row int) bool {
	a := &b.attrs[col]
	if a.Validity == nil {
		return a.allNull()
	}
	return !simd.BitmapGet(a.Validity, uint32(row))
}

// Int performs a positional point access on an integer attribute: O(1)
// decompression of one cell (§3.4).
func (b *Block) Int(col, row int) int64 { return b.attrs[col].Ints.Get(row) }

// AppendInts appends all rows of integer attribute col to dst and returns
// the extended slice — the bulk decode used when an index rebuild streams
// a key column out of a (possibly just reloaded) block. NULL rows append
// their underlying code's value; callers filter them with IsNull.
func (b *Block) AppendInts(col int, dst []int64) []int64 {
	v := b.attrs[col].Ints
	if cap(dst)-len(dst) < b.n {
		grown := make([]int64, len(dst), len(dst)+b.n)
		copy(grown, dst)
		dst = grown
	}
	for row := 0; row < b.n; row++ {
		dst = append(dst, v.Get(row))
	}
	return dst
}

// Float performs a positional point access on a double attribute.
func (b *Block) Float(col, row int) float64 { return b.attrs[col].Floats.Get(row) }

// Str performs a positional point access on a string attribute.
func (b *Block) Str(col, row int) string { return b.attrs[col].Strs.Get(row) }

// Value returns the cell (col, row) as a dynamic value. Prefer the typed
// accessors on hot paths.
func (b *Block) Value(col, row int) types.Value {
	a := &b.attrs[col]
	if b.IsNull(col, row) {
		return types.NullValue(a.Kind)
	}
	switch a.Kind {
	case types.Int64:
		return types.IntValue(a.Ints.Get(row))
	case types.Float64:
		return types.FloatValue(a.Floats.Get(row))
	default:
		return types.StringValue(a.Strs.Get(row))
	}
}

// Row materializes tuple row into dst, one value per attribute — the point
// read of a whole tuple. A string it returns is a substring of its block's
// string section, and a row outlives the pin it was read under: kept, or
// written back into a hot chunk, it keeps the section alive after the
// block is evicted. A block decoded from its serialized form has been
// evicted before, so its rows' strings are copied out (copy on escape),
// into one allocation per row. A block frozen in process is read without
// the copy: that allocation made a point read half again as slow.
func (b *Block) Row(row int, dst types.Row) {
	strBytes := 0
	for i := range dst {
		dst[i] = b.Value(i, row)
		if b.decoded && b.attrs[i].Kind == types.String && !dst[i].IsNull() {
			strBytes += len(dst[i].Str())
		}
	}
	if strBytes == 0 {
		return
	}
	var own strings.Builder
	own.Grow(strBytes) // sized for the row: the buffer never moves
	for i := range dst {
		if b.attrs[i].Kind == types.String && !dst[i].IsNull() {
			start := own.Len()
			own.WriteString(dst[i].Str())
			dst[i] = types.StringValue(own.String()[start:])
		}
	}
}

// CompressedSize returns the total in-memory footprint of the block's
// loaded compressed vectors, bitmaps and PSMAs, in bytes.
func (b *Block) CompressedSize() int {
	size := 16 // block header
	for i := range b.attrs {
		size += b.AttrCompressedSize(i)
	}
	return size
}

// AttrCompressedSize returns the in-memory footprint of one attribute's
// compressed vector, validity bitmap and PSMA, in bytes — zero while the
// attribute is not loaded. Per-scheme compression-ratio telemetry sums
// these by Scheme(i).
func (b *Block) AttrCompressedSize(i int) int {
	a := &b.attrs[i]
	if !a.loaded() {
		return 0
	}
	size := 0
	switch a.Kind {
	case types.Int64:
		size += a.Ints.CompressedSize()
	case types.Float64:
		size += a.Floats.CompressedSize()
	default:
		size += a.Strs.CompressedSize()
	}
	if a.Validity != nil {
		size += len(a.Validity) * 8
	}
	if a.Psma != nil {
		size += a.Psma.SizeBytes()
	}
	return size
}
