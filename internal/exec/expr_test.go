package exec

import (
	"testing"

	"datablocks/internal/types"
)

func testTuple() (*Tuple, []types.Kind) {
	kinds := []types.Kind{types.Int64, types.Float64, types.String, types.Int64}
	t := NewTuple(len(kinds))
	t.Ints[0] = 10
	t.Floats[1] = 2.5
	t.Strs[2] = "PROMO BRASS"
	t.Ints[3] = 0
	t.Nulls[3] = true
	return t, kinds
}

// checkedAs checks e as a value over kinds and requires it to be of kind
// want.
func checkedAs(t *testing.T, e Expr, kinds []types.Kind, want types.Kind) *checked {
	t.Helper()
	n, err := checkValue(e, kinds)
	if err != nil {
		t.Fatal(err)
	}
	if n.kind != want {
		t.Fatalf("%#v checks as %v, want %v", e, n.kind, want)
	}
	return n
}

func TestArithmetic(t *testing.T) {
	tup, kinds := testTuple()
	c := &compiler{}
	// int arithmetic
	f := c.int(checkedAs(t, Add(Col(0), CInt(5)), kinds, types.Int64))
	if v, null := f(tup); v != 15 || null {
		t.Fatalf("10+5 = %d null=%v", v, null)
	}
	// mixed int/float promotes to float
	g := c.float(checkedAs(t, Mul(Col(0), Col(1)), kinds, types.Float64))
	if v, _ := g(tup); v != 25 {
		t.Fatalf("10*2.5 = %g", v)
	}
	// division is always float; divide by zero yields NULL
	g = c.float(checkedAs(t, Div(Col(0), CInt(0)), kinds, types.Float64))
	if _, null := g(tup); !null {
		t.Fatal("x/0 should be NULL")
	}
	// NULL propagation
	f = c.int(checkedAs(t, Add(Col(3), CInt(1)), kinds, types.Int64))
	if _, null := f(tup); !null {
		t.Fatal("NULL+1 should be NULL")
	}
	// there is no integer division: a quotient is a double, not a condition
	if _, err := checkBool(Div(Col(0), CInt(2)), kinds); err == nil {
		t.Fatal("int division accepted")
	}
	// arithmetic on strings is rejected
	if _, err := check(Add(Col(2), CInt(1)), kinds); err == nil {
		t.Fatal("string arithmetic accepted")
	}
}

func TestComparisons(t *testing.T) {
	tup, kinds := testTuple()
	c := &compiler{}
	cases := []struct {
		e    Expr
		want bool
	}{
		{Cmp(types.Eq, Col(0), CInt(10)), true},
		{Cmp(types.Ne, Col(0), CInt(10)), false},
		{Cmp(types.Lt, Col(1), CFloat(3)), true},
		{Cmp(types.Ge, Col(1), CFloat(2.5)), true},
		{BetweenE(Col(0), CInt(5), CInt(15)), true},
		{BetweenE(Col(0), CInt(11), CInt(15)), false},
		{Cmp(types.Eq, Col(2), CStr("PROMO BRASS")), true},
		{Cmp(types.Prefix, Col(2), CStr("PROMO")), true},
		{Cmp(types.Prefix, Col(2), CStr("STANDARD")), false},
		{Cmp(types.Lt, Col(2), CStr("Z")), true},
		// comparisons against NULL are false
		{Cmp(types.Eq, Col(3), CInt(0)), false},
		{Cmp(types.Ne, Col(3), CInt(0)), false},
		{IsNullExpr{E: Col(3)}, true},
		{IsNullExpr{E: Col(0)}, false},
		{IsNullExpr{E: Col(0), Not: true}, true},
		// logic
		{And(Cmp(types.Eq, Col(0), CInt(10)), Cmp(types.Gt, Col(1), CFloat(1))), true},
		{Or(Cmp(types.Eq, Col(0), CInt(99)), Cmp(types.Gt, Col(1), CFloat(1))), true},
		{Not(Cmp(types.Eq, Col(0), CInt(10))), false},
	}
	for i, tc := range cases {
		n, err := checkBool(tc.e, kinds)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got := c.bool(n)(tup); got != tc.want {
			t.Fatalf("case %d: got %v want %v", i, got, tc.want)
		}
	}
}

func TestIfExpression(t *testing.T) {
	tup, kinds := testTuple()
	e := If{
		Cond: Cmp(types.Prefix, Col(2), CStr("PROMO")),
		Then: Mul(Col(1), CFloat(2)),
		Else: CFloat(0),
	}
	f := (&compiler{}).float(checkedAs(t, e, kinds, types.Float64))
	if v, _ := f(tup); v != 5 {
		t.Fatalf("If = %g, want 5", v)
	}
	tup.Strs[2] = "STANDARD"
	if v, _ := f(tup); v != 0 {
		t.Fatalf("If else = %g, want 0", v)
	}
}

func TestCompileErrors(t *testing.T) {
	_, kinds := testTuple()
	if _, err := check(Col(99), kinds); err == nil {
		t.Fatal("out-of-range column accepted")
	}
	if _, err := check(Cmp(types.Prefix, Col(0), CStr("1")), kinds); err == nil {
		t.Fatal("int column as string accepted")
	}
	if _, err := checkBool(Col(2), kinds); err == nil {
		t.Fatal("string column as a condition accepted")
	}
	if _, err := check(Compare{Op: types.Eq, L: Col(0), R: Col(2)}, kinds); err == nil {
		t.Fatal("cross-kind comparison accepted")
	}
}

func TestBoolFromIntExpr(t *testing.T) {
	tup, kinds := testTuple()
	c := &compiler{}
	n, err := checkBool(Col(0), kinds) // non-zero int is true
	if err != nil {
		t.Fatal(err)
	}
	if !c.bool(n)(tup) {
		t.Fatal("10 should be truthy")
	}
	n, err = checkBool(Col(3), kinds) // NULL is false
	if err != nil {
		t.Fatal(err)
	}
	if c.bool(n)(tup) {
		t.Fatal("NULL should be falsy")
	}
}
