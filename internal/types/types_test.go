package types

import (
	"math"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestSchema(t *testing.T) {
	s := NewSchema(
		Column{Name: "a", Kind: Int64},
		Column{Name: "b", Kind: String, Nullable: true},
	)
	if s.NumColumns() != 2 {
		t.Fatalf("NumColumns = %d", s.NumColumns())
	}
	if s.ColumnIndex("b") != 1 || s.ColumnIndex("missing") != -1 {
		t.Fatal("ColumnIndex broken")
	}
	if s.MustColumn("a") != 0 {
		t.Fatal("MustColumn broken")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustColumn should panic on missing column")
		}
	}()
	s.MustColumn("missing")
}

func TestSchemaRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate column accepted")
		}
	}()
	NewSchema(Column{Name: "a", Kind: Int64}, Column{Name: "a", Kind: String})
}

func TestSchemaNames(t *testing.T) {
	s := NewSchema(Column{Name: "x", Kind: Int64}, Column{Name: "y", Kind: Float64})
	names := s.Names()
	if len(names) != 2 || names[0] != "x" || names[1] != "y" {
		t.Fatalf("Names = %v", names)
	}
}

func TestValueAccessors(t *testing.T) {
	if IntValue(7).Int() != 7 || FloatValue(1.5).Float() != 1.5 || StringValue("x").Str() != "x" {
		t.Fatal("accessors broken")
	}
	n := NullValue(Int64)
	if !n.IsNull() || n.Kind() != Int64 {
		t.Fatal("null broken")
	}
	var zero Value
	if !zero.IsZero() || IntValue(0).IsZero() {
		t.Fatal("IsZero broken")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Int() on string should panic")
		}
	}()
	StringValue("x").Int()
}

func TestValueEqualCompare(t *testing.T) {
	if !IntValue(3).Equal(IntValue(3)) || IntValue(3).Equal(IntValue(4)) {
		t.Fatal("Equal broken")
	}
	if !NullValue(Int64).Equal(NullValue(Int64)) {
		t.Fatal("NULL identity broken")
	}
	if NullValue(Int64).Equal(IntValue(0)) {
		t.Fatal("NULL equals 0")
	}
	if IntValue(1).Compare(IntValue(2)) != -1 || StringValue("b").Compare(StringValue("a")) != 1 {
		t.Fatal("Compare broken")
	}
	if FloatValue(1.5).Compare(FloatValue(1.5)) != 0 {
		t.Fatal("float Compare broken")
	}
}

// TestValueLayout pins Value at 32 bytes and checks that the one payload
// word round-trips the extreme integers and the special floats, with
// Equal and Compare as before: -0 equals +0, NaN equals NaN under Equal
// and compares as 0, the zero Value is still IsZero.
func TestValueLayout(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 32 {
		t.Fatalf("Value is %d bytes, want 32", n)
	}
	lo, hi := IntValue(math.MinInt64), IntValue(math.MaxInt64)
	if lo.Int() != math.MinInt64 || hi.Int() != math.MaxInt64 {
		t.Fatalf("int round trip: %v %v", lo, hi)
	}
	if !lo.Equal(lo) || lo.Equal(hi) || lo.Compare(hi) != -1 || hi.Compare(lo) != 1 || hi.Compare(hi) != 0 {
		t.Fatal("Equal/Compare on extreme ints")
	}
	neg, pos := FloatValue(math.Copysign(0, -1)), FloatValue(0)
	inf, nan := FloatValue(math.Inf(1)), FloatValue(math.NaN())
	if !math.Signbit(neg.Float()) || !math.IsInf(inf.Float(), 1) || !math.IsNaN(nan.Float()) {
		t.Fatalf("float round trip: %v %v %v", neg, inf, nan)
	}
	if !neg.Equal(pos) || neg.Compare(pos) != 0 || !inf.Equal(inf) || inf.Equal(pos) || inf.Compare(pos) != 1 {
		t.Fatal("Equal/Compare on -0, +0, +Inf")
	}
	if !nan.Equal(FloatValue(math.NaN())) || nan.Equal(pos) || nan.Compare(nan) != 0 || nan.Compare(inf) != 0 {
		t.Fatal("Equal/Compare on NaN")
	}
	if !(Value{}).IsZero() || lo.IsZero() || neg.IsZero() {
		t.Fatal("IsZero")
	}
}

func TestDateRoundTrip(t *testing.T) {
	f := func(off uint16) bool {
		days := int64(off) // 1970..~2149
		y, m, d := DaysToDate(days)
		return DateToDays(y, m, d) == days
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if DateToDays(1970, time.January, 1) != 0 {
		t.Fatal("epoch broken")
	}
	if DateToDays(1998, time.September, 2) <= DateToDays(1994, time.January, 1) {
		t.Fatal("ordering broken")
	}
}

func TestCompareOpStrings(t *testing.T) {
	for _, op := range []CompareOp{Eq, Ne, Lt, Le, Gt, Ge, Between, IsNull, IsNotNull, Prefix} {
		if op.String() == "" {
			t.Fatalf("empty String() for op %d", op)
		}
	}
	for _, k := range []Kind{Int64, Float64, String} {
		if k.String() == "" {
			t.Fatal("empty Kind string")
		}
	}
}
