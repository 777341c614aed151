// Package experiments regenerates every table and figure of the paper's
// evaluation (§5 and the appendices). Each function prints the same rows or
// series the paper reports, and cmd/dbrepro exposes them on the command
// line. Absolute numbers differ from the paper's testbed; the shapes (who
// wins, by what factor, where the crossovers fall) are the reproduction
// target — see "Reproducing the paper" in the repository README.
package experiments

import (
	"datablocks/internal/core"
	"datablocks/internal/storage"
	"datablocks/internal/types"
)

// RelationColumns materializes a relation back into columnar buffers
// (NULLs become zero values plus a flag), for feeding the Vectorwise
// baseline and CSV sizing.
func RelationColumns(rel *storage.Relation) ([]core.ColumnData, int) {
	n := 0
	for _, ch := range rel.Chunks() {
		n += ch.Rows()
	}
	cols := make([]core.ColumnData, rel.Schema().NumColumns())
	for i, c := range rel.Schema().Columns {
		cols[i].Kind = c.Kind
		switch c.Kind {
		case types.Int64:
			cols[i].Ints = make([]int64, 0, n)
		case types.Float64:
			cols[i].Floats = make([]float64, 0, n)
		default:
			cols[i].Strs = make([]string, 0, n)
		}
		if c.Nullable {
			cols[i].Nulls = make([]bool, 0, n)
		}
	}
	for _, ch := range rel.Chunks() {
		rows := ch.Rows()
		for ci := range cols {
			kind := cols[ci].Kind
			for row := 0; row < rows; row++ {
				var v types.Value
				if ch.IsFrozen() {
					v = ch.Block().Value(ci, row)
				} else {
					v = ch.Hot().Value(ci, row)
				}
				if cols[ci].Nulls != nil {
					cols[ci].Nulls = append(cols[ci].Nulls, v.IsNull())
				}
				switch kind {
				case types.Int64:
					if v.IsNull() {
						cols[ci].Ints = append(cols[ci].Ints, 0)
					} else {
						cols[ci].Ints = append(cols[ci].Ints, v.Int())
					}
				case types.Float64:
					if v.IsNull() {
						cols[ci].Floats = append(cols[ci].Floats, 0)
					} else {
						cols[ci].Floats = append(cols[ci].Floats, v.Float())
					}
				default:
					if v.IsNull() {
						cols[ci].Strs = append(cols[ci].Strs, "")
					} else {
						cols[ci].Strs = append(cols[ci].Strs, v.Str())
					}
				}
			}
		}
	}
	return cols, n
}

// CloneRelation rebuilds a relation from columns with a given chunk size
// and freeze state, used by the block-size sweep (Figure 10).
func CloneRelation(schema *types.Schema, cols []core.ColumnData, n, chunkRows int, freeze bool) (*storage.Relation, error) {
	rel := storage.NewRelation(schema, chunkRows)
	if err := rel.BulkAppend(cols, n); err != nil {
		return nil, err
	}
	if freeze {
		if err := rel.FreezeAll(core.FreezeOptions{SortBy: -1}, false); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// UncompressedBytes returns the hot-format footprint of columnar data: the
// "HyPer uncompressed" rows of Table 1.
func UncompressedBytes(cols []core.ColumnData, n int) int {
	size := 0
	for _, c := range cols {
		switch c.Kind {
		case types.Int64, types.Float64:
			size += 8 * n
		default:
			for _, s := range c.Strs {
				size += len(s) + 16
			}
		}
		if c.Nulls != nil {
			size += n
		}
	}
	return size
}
