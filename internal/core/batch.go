package core

// Batch is one vector of unpacked tuples flowing from a vectorized scan
// into the consuming query pipeline (Figure 6). Buffers are reused from
// one vector to the next; consumers must not retain slices beyond it.
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

// BatchCol is one projected column of a batch: its values, and, when the
// column travels as its block's 1-byte codes (ScanSpec.Codes), the codes
// with the attribute that decodes them (Attr.CodeInt, Attr.CodeStr). A
// coded column's values are set only if it was unpacked as well.
//
// Ranged reports that every non-NULL value of an Int64 column lies in
// [Lo, Hi]: the scan stamps a frozen attribute's SMA there. No other
// producer sets it; a batch's rows compacted in place keep it, as a subset
// stays inside the bound.
type BatchCol struct {
	ColumnData
	Codes  []byte
	Domain *Attr
	Ranged bool
	Lo, Hi int64
}

// resize returns s with length n, reusing its backing array when it is
// large enough. The allocation is out of line, in grow, so a hot-path
// caller that inlines resize sees only the capacity compare (as exec's
// resize does).
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return grow[T](n)
	}
	return s[:n]
}

//go:noinline
func grow[T any](n int) []T { return make([]T, n) }
