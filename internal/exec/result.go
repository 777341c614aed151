package exec

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"datablocks/internal/core"
	"datablocks/internal/types"
)

// Result is a materialized, columnar query result.
type Result struct {
	Kinds []types.Kind
	Cols  []ResultCol
	n     int
	// Profile is the query's EXPLAIN-ANALYZE profile, attached when the
	// query ran with Options.Profile; nil otherwise.
	Profile *QueryProfile
}

// ResultCol is one column of a result.
type ResultCol struct {
	Kind   types.Kind
	Ints   []int64
	Floats []float64
	Strs   []string
	Nulls  []bool
}

// NewResult allocates an empty result with the given column kinds.
func NewResult(kinds []types.Kind) *Result {
	r := &Result{Kinds: kinds, Cols: make([]ResultCol, len(kinds))}
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
		c := &r.Cols[i]
		bc := &b.Cols[i]
		switch c.Kind {
		case types.Int64:
			c.Ints = append(c.Ints, bc.Ints[:b.N]...)
		case types.Float64:
			c.Floats = append(c.Floats, bc.Floats[:b.N]...)
		default:
			c.Strs = append(c.Strs, bc.Strs[:b.N]...)
		}
		if bc.Nulls != nil {
			c.Nulls = append(c.Nulls, bc.Nulls[:b.N]...)
		} else {
			// Extends by a cleared tail in one step, without allocating a
			// temporary.
			c.Nulls = append(c.Nulls, make([]bool, b.N)...)
		}
	}
	r.n += b.N
}

// Value returns cell (col, row).
func (r *Result) Value(col, row int) types.Value {
	c := &r.Cols[col]
	if c.Nulls[row] {
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

// Row materializes row i.
func (r *Result) Row(i int) types.Row {
	row := make(types.Row, len(r.Cols))
	for c := range r.Cols {
		row[c] = r.Value(c, i)
	}
	return row
}

// append concatenates other results with identical kinds (the merge of
// per-worker partial results), growing each column once to the total.
func (r *Result) append(parts ...*Result) {
	n := r.n
	for _, o := range parts {
		n += o.n
	}
	for i := range r.Cols {
		c := &r.Cols[i]
		c.Nulls = slices.Grow(c.Nulls, n-r.n)
		switch c.Kind {
		case types.Int64:
			c.Ints = slices.Grow(c.Ints, n-r.n)
		case types.Float64:
			c.Floats = slices.Grow(c.Floats, n-r.n)
		default:
			c.Strs = slices.Grow(c.Strs, n-r.n)
		}
		for _, o := range parts {
			oc := &o.Cols[i]
			c.Ints = append(c.Ints, oc.Ints...)
			c.Floats = append(c.Floats, oc.Floats...)
			c.Strs = append(c.Strs, oc.Strs...)
			c.Nulls = append(c.Nulls, oc.Nulls...)
		}
	}
	r.n = n
}

// batch views the result as one batch, sharing its columns.
func (r *Result) batch() *core.Batch {
	b := &core.Batch{N: r.n, Cols: make([]core.BatchCol, len(r.Cols))}
	for i, c := range r.Cols {
		b.Cols[i] = core.BatchCol{Kind: c.Kind, Ints: c.Ints, Floats: c.Floats, Strs: c.Strs, Nulls: c.Nulls}
	}
	return b
}

// compareRowsAt compares rows ia and ib under the given order keys (NULLs
// first, Desc negates), returning <0, 0 or >0: SortBy's order. Values
// compare through cmp.Compare, a total order on doubles too (NaN below
// every number, equal to itself, -0.0 = +0.0) — a sort key has to be one,
// unlike a predicate, which follows IEEE (compare, expr.go).
func (r *Result) compareRowsAt(keys []OrderKey, ia, ib int) int {
	for _, k := range keys {
		c := &r.Cols[k.Col]
		na, nb := c.Nulls[ia], c.Nulls[ib]
		var ord int
		switch {
		case na && nb:
			ord = 0
		case na:
			ord = -1
		case nb:
			ord = 1
		default:
			switch c.Kind {
			case types.Int64:
				ord = cmp.Compare(c.Ints[ia], c.Ints[ib])
			case types.Float64:
				ord = cmp.Compare(c.Floats[ia], c.Floats[ib])
			default:
				ord = cmp.Compare(c.Strs[ia], c.Strs[ib])
			}
		}
		if k.Desc {
			ord = -ord
		}
		if ord != 0 {
			return ord
		}
	}
	return 0
}

// SortBy orders rows by the given keys (NULLs first) and truncates to
// limit when positive.
func (r *Result) SortBy(keys []OrderKey, limit int) {
	idx := make([]int, r.n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return r.compareRowsAt(keys, idx[a], idx[b]) < 0
	})
	if limit > 0 && limit < len(idx) {
		idx = idx[:limit]
	}
	r.permute(idx)
}

func (r *Result) permute(idx []int) {
	for ci := range r.Cols {
		c := &r.Cols[ci]
		nulls := make([]bool, len(idx))
		for i, p := range idx {
			nulls[i] = c.Nulls[p]
		}
		c.Nulls = nulls
		switch c.Kind {
		case types.Int64:
			vals := make([]int64, len(idx))
			for i, p := range idx {
				vals[i] = c.Ints[p]
			}
			c.Ints = vals
		case types.Float64:
			vals := make([]float64, len(idx))
			for i, p := range idx {
				vals[i] = c.Floats[p]
			}
			c.Floats = vals
		default:
			vals := make([]string, len(idx))
			for i, p := range idx {
				vals[i] = c.Strs[p]
			}
			c.Strs = vals
		}
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
