package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"datablocks"
)

// refRow is one result row in canonical form: strings and integers make up
// the key, floating-point columns are compared with a tolerance.
type refRow struct {
	Key  string    `json:"key"`
	Nums []float64 `json:"nums"`
}

// refTolerance is the relative error allowed between a result and its
// reference: parallel workers sum in a different order.
const refTolerance = 1e-9

// canon turns a result into sorted canonical rows, so that comparison is
// insensitive to row order.
func canon(res *datablocks.Result) []refRow {
	rows := make([]refRow, res.NumRows())
	for i := range rows {
		var key strings.Builder
		for c := 0; c < res.NumCols(); c++ {
			v := res.Value(c, i)
			switch {
			case v.IsNull():
				key.WriteString("\x00N|")
			case v.Kind() == datablocks.Float64:
				rows[i].Nums = append(rows[i].Nums, v.Float())
			case v.Kind() == datablocks.Int64:
				key.WriteString(strconv.FormatInt(v.Int(), 10))
				key.WriteByte('|')
			default:
				key.WriteString(v.Str())
				key.WriteByte('|')
			}
		}
		rows[i].Key = key.String()
	}
	sortRefRows(rows)
	return rows
}

func sortRefRows(rows []refRow) {
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].Key != rows[b].Key {
			return rows[a].Key < rows[b].Key
		}
		for k := range rows[a].Nums {
			if k < len(rows[b].Nums) && rows[a].Nums[k] != rows[b].Nums[k] {
				return rows[a].Nums[k] < rows[b].Nums[k]
			}
		}
		return false
	})
}

func closeEnough(got, want float64) bool {
	if got == want {
		return true
	}
	return math.Abs(got-want) <= refTolerance*math.Max(math.Abs(got), math.Abs(want))
}

// equalRows reports the first difference between a result and its
// reference, or nil.
func equalRows(got, want []refRow) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, reference has %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Key != want[i].Key {
			return fmt.Errorf("row %d: key %q, reference %q", i, got[i].Key, want[i].Key)
		}
		if len(got[i].Nums) != len(want[i].Nums) {
			return fmt.Errorf("row %d: %d numeric columns, reference has %d", i, len(got[i].Nums), len(want[i].Nums))
		}
		for k := range got[i].Nums {
			if !closeEnough(got[i].Nums[k], want[i].Nums[k]) {
				return fmt.Errorf("row %d (%s) column %d: %v, reference %v", i, got[i].Key, k, got[i].Nums[k], want[i].Nums[k])
			}
		}
	}
	return nil
}
