package vwise

import (
	"fmt"

	"datablocks/internal/core"
	"datablocks/internal/types"
)

// Table is a relation stored in the Vectorwise baseline format: per-chunk
// compressed columns. Chunks let scans decompress into cache-resident
// buffers, as Vectorwise does (§2).
type Table struct {
	Kinds     []types.Kind
	ChunkRows int
	N         int
	chunks    []tableChunk
}

type tableChunk struct {
	n      int
	ints   []*IntColumn
	floats []*FloatColumn
	strs   []*StrColumn
}

// NewTable compresses pre-columnarized data into the baseline format.
// NULLs are not modeled by this baseline; callers substitute sentinel
// values, which only affects sizes marginally.
func NewTable(cols []core.ColumnData, n, chunkRows int) (*Table, error) {
	if chunkRows <= 0 {
		chunkRows = 1 << 16
	}
	t := &Table{ChunkRows: chunkRows, N: n}
	for _, c := range cols {
		t.Kinds = append(t.Kinds, c.Kind)
	}
	for off := 0; off < n; off += chunkRows {
		end := off + chunkRows
		if end > n {
			end = n
		}
		ch := tableChunk{
			n:      end - off,
			ints:   make([]*IntColumn, len(cols)),
			floats: make([]*FloatColumn, len(cols)),
			strs:   make([]*StrColumn, len(cols)),
		}
		for ci, c := range cols {
			switch c.Kind {
			case types.Int64:
				ch.ints[ci] = EncodeInts(c.Ints[off:end])
			case types.Float64:
				ch.floats[ci] = EncodeFloats(c.Floats[off:end])
			case types.String:
				ch.strs[ci] = EncodeStrings(c.Strs[off:end])
			default:
				return nil, fmt.Errorf("vwise: unsupported kind %v", c.Kind)
			}
		}
		t.chunks = append(t.chunks, ch)
	}
	return t, nil
}

// CompressedSize returns the table footprint in bytes.
func (t *Table) CompressedSize() int {
	size := 0
	for _, ch := range t.chunks {
		for ci := range t.Kinds {
			switch t.Kinds[ci] {
			case types.Int64:
				size += ch.ints[ci].CompressedSize()
			case types.Float64:
				size += ch.floats[ci].CompressedSize()
			default:
				size += ch.strs[ci].CompressedSize()
			}
		}
	}
	return size
}

// ScanInts decompresses the given integer column chunk by chunk and invokes
// visit with each decompressed buffer and the chunk's base row — the
// decompress-then-process scan pattern.
func (t *Table) ScanInts(col int, visit func(base int, vals []int64)) {
	buf := make([]int64, t.ChunkRows)
	base := 0
	for _, ch := range t.chunks {
		vals := buf[:ch.n]
		ch.ints[col].Decompress(vals)
		visit(base, vals)
		base += ch.n
	}
}
