package core

import "datablocks/internal/types"

// Batch is one vector of unpacked tuples flowing from a vectorized scan
// into the consuming query pipeline (Figure 6). Buffers are reused across
// Next calls; consumers must not retain slices beyond the next call.
type Batch struct {
	// N is the number of tuples in the batch.
	N int
	// Pos holds the source row positions of the tuples within their chunk
	// or block — the match vector after all reductions. Storage layers use
	// it to address tuples for deletes and updates.
	Pos []uint32
	// Cols holds one unpacked vector per projected column.
	Cols []BatchCol
}

// BatchCol is one projected column of a batch.
type BatchCol struct {
	Kind   types.Kind
	Ints   []int64
	Floats []float64
	Strs   []string
	// Nulls marks NULL cells; nil when the column has no NULLs in this
	// batch's source.
	Nulls []bool
	// Domain, when non-nil, says the column travels as its block's 1-byte
	// codes, Codes, which Domain decodes (Attr.CodeInt, Attr.CodeStr): see
	// ScanSpec.Codes. The value vectors then hold values only if the column
	// was unpacked as well.
	Codes  []byte
	Domain *Attr
}

// Value returns cell (col, row) of the batch as a dynamic value.
func (b *Batch) Value(col, row int) types.Value {
	c := &b.Cols[col]
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

// resize returns s with length n, reusing its backing array when it is
// large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
