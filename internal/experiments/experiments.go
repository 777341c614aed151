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
	cols := core.MakeColumns(rel.Schema(), n)
	tuple := make(types.Row, len(cols))
	at := 0
	for _, ch := range rel.Chunks() {
		rows := ch.Rows()
		read := chunkRows(ch, rows)
		for row := 0; row < rows; row++ {
			read(row, tuple)
			core.SetRow(cols, at+row, tuple)
		}
		at += rows
	}
	return cols, n
}

// chunkRows returns a reader of tuple row, into dst, of a chunk's first
// rows rows, frozen or hot.
func chunkRows(ch *storage.Chunk, rows int) func(row int, dst types.Row) {
	if ch.IsFrozen() {
		blk := ch.Block()
		return func(row int, dst types.Row) {
			for col := range dst {
				dst[col] = blk.Value(col, row)
			}
		}
	}
	hot := ch.Hot().Columns(rows)
	return func(row int, dst types.Row) {
		for col := range dst {
			dst[col] = core.Cell(&hot[col], row)
		}
	}
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
	for i := range cols {
		size += core.HotBytes(&cols[i], n)
	}
	return size
}
