package core

import (
	"cmp"
	"fmt"

	"datablocks/internal/types"
)

// ColumnData is the one uncompressed column: what a freeze compresses,
// what a hot chunk holds its rows in, what a scan batch carries (BatchCol
// embeds it) and what a query result is made of. Exactly one of Ints,
// Floats, Strs is set, according to Kind; Nulls is optional.
//
// The functions in this file are its whole per-kind vocabulary — no other
// code switches on a column's kind to allocate, read, write, move, order
// or size its cells. They are functions, not methods, so the root
// package's ColumnData alias gains no API.
type ColumnData struct {
	Kind   types.Kind
	Ints   []int64
	Floats []float64
	Strs   []string
	Nulls  []bool
}

// check reports whether the column holds at least n rows of its kind.
func (c *ColumnData) check(n int) error {
	have := 0
	switch c.Kind {
	case types.Int64:
		have = len(c.Ints)
	case types.Float64:
		have = len(c.Floats)
	case types.String:
		have = len(c.Strs)
	default:
		return fmt.Errorf("unsupported kind %v", c.Kind)
	}
	if have < n || c.Nulls != nil && len(c.Nulls) < n {
		return fmt.Errorf("%d %v values, %d null flags for %d rows", have, c.Kind, len(c.Nulls), n)
	}
	return nil
}

// MakeColumn returns a column of the kind with n zero rows, and n NULL
// flags when it is nullable.
func MakeColumn(kind types.Kind, n int, nullable bool) ColumnData {
	c := ColumnData{Kind: kind}
	switch kind {
	case types.Int64:
		c.Ints = make([]int64, n)
	case types.Float64:
		c.Floats = make([]float64, n)
	default:
		c.Strs = make([]string, n)
	}
	if nullable {
		c.Nulls = make([]bool, n)
	}
	return c
}

// MakeColumns returns one MakeColumn of n rows per column of the schema.
func MakeColumns(s *types.Schema, n int) []ColumnData {
	cols := make([]ColumnData, len(s.Columns))
	for i, c := range s.Columns {
		cols[i] = MakeColumn(c.Kind, n, c.Nullable)
	}
	return cols
}

// Cell returns the cell at row as a dynamic value.
func Cell(c *ColumnData, row int) types.Value {
	if c.Nulls != nil && c.Nulls[row] {
		return types.NullValue(c.Kind)
	}
	switch c.Kind {
	case types.Int64:
		return types.IntValue(c.Ints[row])
	case types.Float64:
		return types.FloatValue(c.Floats[row])
	default:
		return types.StringValue(c.Strs[row])
	}
}

// SetRow stores the tuple vals, one value per column, of each column's
// kind or NULL, as row row of cols. A NULL stores the kind's zero value and
// sets the row's flag, which the column then must have. It takes a whole
// tuple rather than one cell: a call per cell, its value passed by copy,
// made a hot insert half again as slow.
func SetRow(cols []ColumnData, row int, vals types.Row) {
	for i := range vals {
		c, v := &cols[i], &vals[i]
		null := v.IsNull()
		if c.Nulls != nil {
			c.Nulls[row] = null
		}
		switch c.Kind {
		case types.Int64:
			var x int64
			if !null {
				x = v.Int()
			}
			c.Ints[row] = x
		case types.Float64:
			var x float64
			if !null {
				x = v.Float()
			}
			c.Floats[row] = x
		default:
			var x string
			if !null {
				x = v.Str()
			}
			c.Strs[row] = x
		}
	}
}

// Gather sets dst to src's cells at the positions pos, reusing dst's
// vectors: the "copying of matches" of Figure 6. dst may be src when pos
// ascends — compaction in place, each cell read before a write reaches
// it. dst has NULL flags iff src has.
func Gather(dst, src *ColumnData, pos []uint32) {
	dst.Kind = src.Kind
	switch src.Kind {
	case types.Int64:
		dst.Ints = GatherVec(dst.Ints, src.Ints, pos)
	case types.Float64:
		dst.Floats = GatherVec(dst.Floats, src.Floats, pos)
	default:
		dst.Strs = GatherVec(dst.Strs, src.Strs, pos)
	}
	if src.Nulls == nil {
		dst.Nulls = nil
	} else {
		dst.Nulls = GatherVec(dst.Nulls, src.Nulls, pos)
	}
}

// GatherVec gathers src at pos, reusing dst. The destination is re-sliced
// to len(pos), proving the write index in bounds; the data-dependent reads
// keep their checks (see lint-budget.json).
//
//dbvet:hotpath
func GatherVec[T any](dst, src []T, pos []uint32) []T {
	d := resize(dst, len(pos))[:len(pos)]
	for i, p := range pos {
		d[i] = src[p]
	}
	return d
}

// CopyRows copies n rows of src, from row from on, into dst from row at
// on; dst holds at least at+n rows. Where dst has NULL flags and src has
// none, the copied rows' flags are cleared.
func CopyRows(dst *ColumnData, at int, src *ColumnData, from, n int) {
	switch dst.Kind {
	case types.Int64:
		copy(dst.Ints[at:at+n], src.Ints[from:from+n])
	case types.Float64:
		copy(dst.Floats[at:at+n], src.Floats[from:from+n])
	default:
		copy(dst.Strs[at:at+n], src.Strs[from:from+n])
	}
	switch {
	case dst.Nulls == nil:
	case src.Nulls == nil:
		clear(dst.Nulls[at : at+n])
	default:
		copy(dst.Nulls[at:at+n], src.Nulls[from:from+n])
	}
}

// AppendRows appends src's first n rows to dst with as many NULL flags,
// false ones where src has none: a column built by appends — a query
// result's — always has flags, which its readers index directly.
func AppendRows(dst, src *ColumnData, n int) {
	switch dst.Kind {
	case types.Int64:
		dst.Ints = append(dst.Ints, src.Ints[:n]...)
	case types.Float64:
		dst.Floats = append(dst.Floats, src.Floats[:n]...)
	default:
		dst.Strs = append(dst.Strs, src.Strs[:n]...)
	}
	if src.Nulls != nil {
		dst.Nulls = append(dst.Nulls, src.Nulls[:n]...)
	} else {
		// Extends by a cleared tail in one step, without allocating a
		// temporary.
		dst.Nulls = append(dst.Nulls, make([]bool, n)...)
	}
}

// Compare compares rows i and j, returning <0, 0 or >0: NULL first, then
// the values through cmp.Compare — a total order on doubles too (NaN
// below every number and equal to itself, -0.0 = +0.0), as a sort key
// needs, unlike a predicate, which follows IEEE.
func Compare(c *ColumnData, i, j int) int {
	if c.Nulls != nil {
		switch ni, nj := c.Nulls[i], c.Nulls[j]; {
		case ni && nj:
			return 0
		case ni:
			return -1
		case nj:
			return 1
		}
	}
	switch c.Kind {
	case types.Int64:
		return cmp.Compare(c.Ints[i], c.Ints[j])
	case types.Float64:
		return cmp.Compare(c.Floats[i], c.Floats[j])
	default:
		return cmp.Compare(c.Strs[i], c.Strs[j])
	}
}

// Head returns the column's first n rows, sharing its vectors.
func Head(c ColumnData, n int) ColumnData {
	switch c.Kind {
	case types.Int64:
		c.Ints = c.Ints[:n]
	case types.Float64:
		c.Floats = c.Floats[:n]
	default:
		c.Strs = c.Strs[:n]
	}
	if c.Nulls != nil {
		c.Nulls = c.Nulls[:n]
	}
	return c
}

// HotBytes is the footprint of the column's first n rows in the hot store
// (the "HyPer uncompressed" rows of Table 1): 8 bytes a number, a string's
// bytes plus its 16-byte header, and a byte a NULL flag.
func HotBytes(c *ColumnData, n int) int {
	size := 0
	switch c.Kind {
	case types.Int64, types.Float64:
		size = 8 * n
	default:
		for _, s := range c.Strs[:n] {
			size += len(s) + 16
		}
	}
	if c.Nulls != nil {
		size += n
	}
	return size
}
