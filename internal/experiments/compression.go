package experiments

import (
	"fmt"
	"io"

	"datablocks/internal/core"
	"datablocks/internal/datasets"
	"datablocks/internal/storage"
	"datablocks/internal/tpch"
	"datablocks/internal/vwise"
)

// Datasets builds the three Table 1 / Figure 10 data sets at laptop scale.
func Datasets(sf float64, imdbRows, flightRows int) (map[string]*storage.Relation, error) {
	db, err := tpch.Generate(sf, 0)
	if err != nil {
		return nil, err
	}
	cast, err := datasets.CastInfo(imdbRows, 0)
	if err != nil {
		return nil, err
	}
	flights, err := datasets.Flights(flightRows, 0)
	if err != nil {
		return nil, err
	}
	return map[string]*storage.Relation{
		"TPC-H lineitem": db.Lineitem,
		"IMDB cast_info": cast,
		"Flights":        flights,
	}, nil
}

// Table1 reproduces Table 1: database sizes — CSV, uncompressed
// (HyPer-style hot format and Vectorwise raw columnar) and compressed
// (Data Blocks vs the Vectorwise PFOR/PDICT baseline).
func Table1(w io.Writer, sf float64, imdbRows, flightRows int) error {
	rels, err := Datasets(sf, imdbRows, flightRows)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Table 1 — database sizes (TPC-H SF %g, cast_info %d rows, flights %d rows)\n", sf, imdbRows, flightRows)
	tbl := newTable(w, "data set", "CSV", "HyPer unc.", "HyPer Data Blocks", "Vectorwise comp.", "DB ratio", "VW ratio")
	for _, name := range []string{"TPC-H lineitem", "IMDB cast_info", "Flights"} {
		rel := rels[name]
		csv := csvSize(rel)
		cols, n := RelationColumns(rel)
		unc := UncompressedBytes(cols, n)
		frozen, err := CloneRelation(rel.Schema(), cols, n, 0, true)
		if err != nil {
			return err
		}
		dbBytes := frozen.MemoryStats().FrozenBytes
		vw, err := vwise.NewTable(cols, n, 1<<16)
		if err != nil {
			return err
		}
		vwBytes := vw.CompressedSize()
		addRow(tbl, name, humanBytes(csv), humanBytes(unc), humanBytes(dbBytes), humanBytes(vwBytes),
			float64(unc)/float64(dbBytes), float64(unc)/float64(vwBytes))
	}
	if err := tbl.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "(ratios are uncompressed/compressed; the paper reports Vectorwise ~25% smaller than Data Blocks)")
	return nil
}

// Fig10 reproduces Figure 10: compression ratio versus records per Data
// Block, for the three data sets.
func Fig10(w io.Writer, sf float64, imdbRows, flightRows int) error {
	rels, err := Datasets(sf, imdbRows, flightRows)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 10 — compression ratio vs records per Data Block")
	tbl := newTable(w, "records/block", "TPC-H lineitem", "IMDB cast_info", "Flights")
	type prepared struct {
		rel  *storage.Relation
		cols []core.ColumnData
		n    int
		unc  int
	}
	cache := make(map[string]prepared, len(rels))
	for name, rel := range rels {
		cols, n := RelationColumns(rel)
		cache[name] = prepared{rel: rel, cols: cols, n: n, unc: UncompressedBytes(cols, n)}
	}
	for _, size := range []int{2048, 4096, 8192, 16384, 32768, 65536} {
		row := []any{size}
		for _, name := range []string{"TPC-H lineitem", "IMDB cast_info", "Flights"} {
			p := cache[name]
			frozen, err := CloneRelation(p.rel.Schema(), p.cols, p.n, size, true)
			if err != nil {
				return err
			}
			row = append(row, float64(p.unc)/float64(frozen.MemoryStats().FrozenBytes))
		}
		addRow(tbl, row...)
	}
	if err := tbl.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "(expected shape: ratio grows with block size; metadata overhead dominates small blocks)")
	return nil
}
