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

func TestArithmetic(t *testing.T) {
	tup, kinds := testTuple()
	c := &compiler{kinds: kinds}
	// int arithmetic
	f, err := c.compileInt(Add(Col(0), CInt(5)))
	if err != nil {
		t.Fatal(err)
	}
	if v, null := f(tup); v != 15 || null {
		t.Fatalf("10+5 = %d null=%v", v, null)
	}
	// mixed int/float promotes to float
	g, err := c.compileFloat(Mul(Col(0), Col(1)))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := g(tup); v != 25 {
		t.Fatalf("10*2.5 = %g", v)
	}
	// division is always float; divide by zero yields NULL
	g, err = c.compileFloat(Div(Col(0), CInt(0)))
	if err != nil {
		t.Fatal(err)
	}
	if _, null := g(tup); !null {
		t.Fatal("x/0 should be NULL")
	}
	// NULL propagation
	f, err = c.compileInt(Add(Col(3), CInt(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, null := f(tup); !null {
		t.Fatal("NULL+1 should be NULL")
	}
	// integer division is rejected
	if _, err := c.compileInt(Div(Col(0), CInt(2))); err == nil {
		t.Fatal("int division accepted")
	}
	// arithmetic on strings is rejected
	if _, err := c.compileFloat(Add(Col(2), CInt(1))); err == nil {
		t.Fatal("string arithmetic accepted")
	}
}

func TestComparisons(t *testing.T) {
	tup, kinds := testTuple()
	c := &compiler{kinds: kinds}
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
		f, err := c.compileBool(tc.e)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got := f(tup); got != tc.want {
			t.Fatalf("case %d: got %v want %v", i, got, tc.want)
		}
	}
}

func TestIfExpression(t *testing.T) {
	tup, kinds := testTuple()
	c := &compiler{kinds: kinds}
	e := If{
		Cond: Cmp(types.Prefix, Col(2), CStr("PROMO")),
		Then: Mul(Col(1), CFloat(2)),
		Else: CFloat(0),
	}
	f, err := c.compileFloat(e)
	if err != nil {
		t.Fatal(err)
	}
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
	c := &compiler{kinds: kinds}
	if _, err := c.compileInt(Col(99)); err == nil {
		t.Fatal("out-of-range column accepted")
	}
	if _, err := c.compileStr(Col(0)); err == nil {
		t.Fatal("int column as string accepted")
	}
	if _, err := c.compileInt(Col(2)); err == nil {
		t.Fatal("string column as int accepted")
	}
	if _, err := c.compileBool(Compare{Op: types.Eq, L: Col(0), R: Col(2)}); err == nil {
		t.Fatal("cross-kind comparison accepted")
	}
}

func TestCompileStatsCount(t *testing.T) {
	_, kinds := testTuple()
	stats := &CompileStats{}
	c := &compiler{kinds: kinds, stats: stats}
	if _, err := c.compileBool(And(Cmp(types.Eq, Col(0), CInt(1)), Cmp(types.Lt, Col(1), CFloat(2)))); err != nil {
		t.Fatal(err)
	}
	if stats.Closures < 5 {
		t.Fatalf("closures = %d, want >= 5", stats.Closures)
	}
}

func TestBoolFromIntExpr(t *testing.T) {
	tup, kinds := testTuple()
	c := &compiler{kinds: kinds}
	f, err := c.compileBool(Col(0)) // non-zero int is true
	if err != nil {
		t.Fatal(err)
	}
	if !f(tup) {
		t.Fatal("10 should be truthy")
	}
	f, err = c.compileBool(Col(3)) // NULL is false
	if err != nil {
		t.Fatal(err)
	}
	if f(tup) {
		t.Fatal("NULL should be falsy")
	}
}

// parityOperands is every operand kind an expression can be built from: a
// column, a literal and a NULL literal of each type, plus one computed
// value and one boolean of each compiler's making.
func parityOperands() []Expr {
	return []Expr{
		Col(0), Col(1), Col(2), Col(9), // int, float, string, out of range
		CInt(3), CFloat(0), CStr("ab"),
		Const{Val: types.NullValue(types.Int64)}, Const{Val: types.NullValue(types.Float64)}, Const{Val: types.NullValue(types.String)},
		Add(Col(0), CInt(1)), Div(Col(0), Col(1)), Div(Col(0), CInt(2)),
		Cmp(types.Lt, Col(0), CInt(5)), IsNullExpr{E: Col(2)},
		If{Cond: Cmp(types.Gt, Col(1), CFloat(1)), Then: Col(1), Else: CInt(0)},
	}
}

// parityExprs walks every Expr constructor over every operand combination
// (binary constructors over all pairs, ternary ones over a diagonal of
// triples), one level deep on top of parityOperands.
func parityExprs() []Expr {
	ops := parityOperands()
	out := append([]Expr{}, ops...)
	cmpOps := []types.CompareOp{types.Eq, types.Ne, types.Lt, types.Le, types.Gt, types.Ge, types.Prefix}
	for i, l := range ops {
		out = append(out, Not(l), IsNullExpr{E: l}, IsNullExpr{E: l, Not: true})
		for j, r := range ops {
			out = append(out, Add(l, r), Sub(l, r), Mul(l, r), Div(l, r), Binary{Op: '%', L: l, R: r}, And(l, r), Or(l, r))
			for _, op := range cmpOps {
				out = append(out, Cmp(op, l, r))
			}
			third := ops[(i+j)%len(ops)]
			out = append(out, BetweenE(l, r, third), BetweenE(third, l, r), If{Cond: l, Then: r, Else: third}, If{Cond: third, Then: l, Else: r})
		}
	}
	return out
}

// TestCompileParity asserts that the tuple compiler and the vectorized
// compiler accept exactly the same expressions in every typed context.
// This is what makes "no silent fallback" a checked property: a vectorized
// mode can refuse a plan only if the tuple reference refuses it too.
func TestCompileParity(t *testing.T) {
	kinds := []types.Kind{types.Int64, types.Float64, types.String}
	contexts := []struct {
		name  string
		tuple func(*compiler, Expr) error
		vec   func(*vcompiler, Expr) error
	}{
		{"int", func(c *compiler, e Expr) error { _, err := c.compileInt(e); return err },
			func(c *vcompiler, e Expr) error { _, err := c.compileInt(e); return err }},
		{"float", func(c *compiler, e Expr) error { _, err := c.compileFloat(e); return err },
			func(c *vcompiler, e Expr) error { _, err := c.compileFloat(e); return err }},
		{"string", func(c *compiler, e Expr) error { _, err := c.compileStr(e); return err },
			func(c *vcompiler, e Expr) error { _, err := c.compileStr(e); return err }},
		{"bool", func(c *compiler, e Expr) error { _, err := c.compileBool(e); return err },
			func(c *vcompiler, e Expr) error { _, err := c.compileMask(e); return err }},
	}
	exprs := parityExprs()
	for _, ctx := range contexts {
		accepted, rejected := 0, 0
		for _, e := range exprs {
			terr := ctx.tuple(&compiler{kinds: kinds}, e)
			verr := ctx.vec(&vcompiler{kinds: kinds}, e)
			cerr := ctx.vec(&vcompiler{kinds: kinds, cse: &vcse{memo: map[Expr]vecFloatFn{}}}, e)
			if (terr == nil) != (verr == nil) || (terr == nil) != (cerr == nil) {
				t.Fatalf("%s context, %#v:\n  tuple compiler: %v\n  vector compiler: %v\n  vector compiler with CSE: %v", ctx.name, e, terr, verr, cerr)
			}
			if terr == nil {
				accepted++
			} else {
				rejected++
			}
		}
		// Only a column, a literal and a NULL literal are string-valued.
		if accepted < 3 || rejected < 3 {
			t.Fatalf("%s context: %d accepted, %d rejected of %d — the walk is not exercising both outcomes", ctx.name, accepted, rejected, len(exprs))
		}
	}
}
