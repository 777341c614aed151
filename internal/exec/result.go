package exec

import (
	"fmt"
	"sort"
	"strings"

	"datablocks/internal/core"
	"datablocks/internal/types"
)

// Result is a materialized, columnar query result. Every column carries a
// NULL flag per row (core.AppendRows), so Cols[i].Nulls[row] may be read
// directly.
type Result struct {
	Cols []core.ColumnData
	n    int
	// Profile is the query's EXPLAIN-ANALYZE profile, attached when the
	// query ran with Options.Profile; nil otherwise.
	Profile *QueryProfile
}

// NewResult allocates an empty result with the given column kinds.
func NewResult(kinds []types.Kind) *Result {
	r := &Result{Cols: make([]core.ColumnData, len(kinds))}
	for i, k := range kinds {
		r.Cols[i].Kind = k
	}
	return r
}

// NumRows returns the row count.
func (r *Result) NumRows() int { return r.n }

// NumCols returns the column count.
func (r *Result) NumCols() int { return len(r.Cols) }

// appendBatch bulk-appends a whole batch column-at-a-time — the
// batch-mode materialization sink (no per-row dispatch).
func (r *Result) appendBatch(b *core.Batch) {
	for i := range r.Cols {
		core.AppendRows(&r.Cols[i], &b.Cols[i].ColumnData, b.N)
	}
	r.n += b.N
}

// Value returns cell (col, row).
func (r *Result) Value(col, row int) types.Value { return core.Cell(&r.Cols[col], row) }

// Row materializes row i.
func (r *Result) Row(i int) types.Row {
	row := make(types.Row, len(r.Cols))
	for c := range r.Cols {
		row[c] = r.Value(c, i)
	}
	return row
}

// append concatenates other results with identical kinds (the merge of
// per-worker partial results), allocating each column once at the total.
func (r *Result) append(parts ...*Result) {
	n := r.n
	for _, o := range parts {
		n += o.n
	}
	for i := range r.Cols {
		c := core.MakeColumn(r.Cols[i].Kind, n, true)
		core.CopyRows(&c, 0, &r.Cols[i], 0, r.n)
		at := r.n
		for _, o := range parts {
			core.CopyRows(&c, at, &o.Cols[i], 0, o.n)
			at += o.n
		}
		r.Cols[i] = c
	}
	r.n = n
}

// batch views the result as one batch, sharing its columns.
func (r *Result) batch() *core.Batch {
	b := &core.Batch{N: r.n, Cols: make([]core.BatchCol, len(r.Cols))}
	for i, c := range r.Cols {
		b.Cols[i].ColumnData = c
	}
	return b
}

// SortBy orders rows by the given keys — core.Compare's order, NULLs
// first, Desc reversing it — and truncates to limit when positive.
func (r *Result) SortBy(keys []OrderKey, limit int) {
	idx := make([]uint32, r.n)
	for i := range idx {
		idx[i] = uint32(i)
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for _, k := range keys {
			if ord := core.Compare(&r.Cols[k.Col], int(idx[a]), int(idx[b])); ord != 0 {
				return ord < 0 != k.Desc
			}
		}
		return false
	})
	if limit > 0 && limit < len(idx) {
		idx = idx[:limit]
	}
	for ci := range r.Cols {
		var c core.ColumnData
		core.Gather(&c, &r.Cols[ci], idx)
		r.Cols[ci] = c
	}
	r.n = len(idx)
}

// String renders the result as a compact table, useful in examples and
// golden tests.
func (r *Result) String() string {
	var sb strings.Builder
	for i := 0; i < r.n; i++ {
		for c := 0; c < len(r.Cols); c++ {
			if c > 0 {
				sb.WriteString(" | ")
			}
			fmt.Fprintf(&sb, "%v", r.Value(c, i))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
