package exec_test

import (
	"fmt"
	"math/rand"
	"testing"

	"datablocks/internal/core"
	"datablocks/internal/exec"
	"datablocks/internal/storage"
	"datablocks/internal/types"
)

// TestConditionShapes holds two condition shapes the TestEvalParity walk
// does not build to refRun and to ModeJIT, bit for bit, at vector sizes 1,
// 7 and 1024: a Q19-shaped OR of AND groups of string equalities against
// literals, filtering an inner join whose build columns hold NULLs, and
// Q12-shaped sums of If(c, 1, 0) and If(c, 0, 1) over one shared condition
// c on a column with NULLs.
func TestConditionShapes(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pick := func(vals ...types.Value) types.Value { return vals[r.Intn(len(vals))] }
	// part: [p_key brand container size], NULLs in all but the key.
	var part []types.Row
	for k := 0; k < 40; k++ {
		part = append(part, types.Row{iv(int64(k)),
			pick(sv("B1"), sv("B2"), sv("B3"), null(types.String)),
			pick(sv("SM BOX"), sv("SM PACK"), sv("MED BAG"), sv("LG CASE"), null(types.String)),
			pick(iv(1), iv(5), iv(9), iv(14), null(types.Int64))})
	}
	// lineitem: [l_key qty carrier]; some keys find no part.
	var li []types.Row
	for i := 0; i < 700; i++ {
		li = append(li, types.Row{iv(int64(r.Intn(45))),
			pick(iv(1), iv(8), iv(15), iv(25), null(types.Int64)),
			pick(iv(1), iv(2), iv(3), null(types.Int64))})
	}
	partRel := loadRel(t, []types.Kind{types.Int64, types.String, types.String, types.Int64}, part)
	liRel := loadRel(t, []types.Kind{types.Int64, types.Int64, types.Int64}, li)
	if err := liRel.FreezeChunk(0, core.FreezeOptions{SortBy: -1}); err != nil {
		t.Fatal(err)
	}
	// Join output: [l_key qty carrier | p_key brand container size].
	join := &exec.JoinNode{
		Build:     &exec.ScanNode{Rel: partRel, Cols: []int{0, 1, 2, 3}},
		Probe:     &exec.ScanNode{Rel: liRel, Cols: []int{0, 1, 2}},
		BuildKeys: []int{0}, ProbeKeys: []int{0}, Kind: exec.InnerJoin,
	}
	group := func(brand string, containers []string, qLo, qHi, sHi int64) exec.Expr {
		cont := exec.Cmp(types.Eq, exec.Col(5), exec.CStr(containers[0]))
		for _, c := range containers[1:] {
			cont = exec.Or(cont, exec.Cmp(types.Eq, exec.Col(5), exec.CStr(c)))
		}
		return exec.And(exec.Cmp(types.Eq, exec.Col(4), exec.CStr(brand)), exec.And(cont, exec.And(
			exec.BetweenE(exec.Col(1), exec.CInt(qLo), exec.CInt(qHi)),
			exec.BetweenE(exec.Col(6), exec.CInt(1), exec.CInt(sHi)))))
	}
	q19 := &exec.FilterNode{Child: join, Cond: exec.Or(
		group("B1", []string{"SM BOX", "SM PACK"}, 1, 11, 5),
		exec.Or(group("B2", []string{"MED BAG", "SM BOX"}, 5, 20, 10), group("B3", []string{"LG CASE"}, 10, 30, 15)))}
	fast := exec.Cmp(types.Le, exec.Col(2), exec.CInt(2))
	q12 := &exec.OrderByNode{Child: &exec.AggNode{Child: join, GroupBy: []int{5}, Aggs: []exec.AggSpec{
		{Func: exec.AggSum, Arg: exec.If{Cond: fast, Then: exec.CInt(1), Else: exec.CInt(0)}},
		{Func: exec.AggSum, Arg: exec.If{Cond: fast, Then: exec.CInt(0), Else: exec.CInt(1)}},
	}}, Keys: []exec.OrderKey{{Col: 0}}}

	rows := map[*storage.Relation][]types.Row{partRel: part, liRel: li}
	for _, q := range []struct {
		name string
		plan exec.Node
	}{{"q19", q19}, {"q12", q12}} {
		want := refRun(t, q.plan, rows)
		if len(want) < 5 {
			t.Fatalf("%s: %d rows, too few to tell", q.name, len(want))
		}
		var jit *exec.Result
		for _, opt := range append(evalChains[len(evalChains)-1:], evalChains...) {
			name := fmt.Sprintf("%s (%v, vector size %d)", q.name, opt.Mode, opt.VectorSize)
			res, err := exec.Run(q.plan, opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if jit == nil {
				jit = res
			}
			if res.NumRows() != len(want) || jit.NumRows() != len(want) {
				t.Fatalf("%s: %d rows, ModeJIT %d, oracle %d", name, res.NumRows(), jit.NumRows(), len(want))
			}
			for i, row := range want {
				for c, w := range row {
					if got := res.Value(c, i); !same(got, w) || !same(got, jit.Value(c, i)) {
						t.Fatalf("%s, row %d col %d: got %v, ModeJIT %v, oracle %v", name, i, c, got, jit.Value(c, i), w)
					}
				}
			}
		}
	}
}
