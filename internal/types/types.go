// Package types defines the logical type system shared by the storage
// engine, the Data Block format, and the query engine.
//
// The design follows the paper's §3.3: every fixed-size SQL type the
// evaluation touches (integers, dates, decimals, char(1)) is represented as a
// 64-bit integer in the uncompressed hot store, strings are variable-length,
// and doubles are IEEE float64. Dates are days since the Unix epoch and
// decimals are scaled integers, so all SARGable predicate evaluation reduces
// to integer comparisons.
package types

import (
	"fmt"
	"math"
	"time"
)

// Kind enumerates the logical column types.
type Kind uint8

const (
	// Int64 covers integers, dates (days since epoch), decimals (scaled)
	// and char(1) (stored as a 32-bit rune widened to int64).
	Int64 Kind = iota
	// Float64 is an IEEE-754 double. Doubles are never truncated (§3.3).
	Float64
	// String is a variable-length UTF-8 string.
	String
)

func (k Kind) String() string {
	switch k {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case String:
		return "string"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Column describes one attribute of a relation.
type Column struct {
	Name     string
	Kind     Kind
	Nullable bool
}

// Schema is an ordered list of columns.
type Schema struct {
	Columns []Column
	byName  map[string]int
}

// NewSchema builds a schema from the given columns. Column names must be
// unique.
func NewSchema(cols ...Column) *Schema {
	s := &Schema{Columns: cols, byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if _, dup := s.byName[c.Name]; dup {
			panic(fmt.Sprintf("types: duplicate column name %q", c.Name))
		}
		s.byName[c.Name] = i
	}
	return s
}

// ColumnIndex returns the ordinal of the named column, or -1 if absent.
func (s *Schema) ColumnIndex(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// MustColumn returns the ordinal of the named column and panics if absent.
// Intended for hand-written physical plans where a miss is a programming
// error.
func (s *Schema) MustColumn(name string) int {
	i := s.ColumnIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("types: unknown column %q", name))
	}
	return i
}

// NumColumns returns the number of columns.
func (s *Schema) NumColumns() int { return len(s.Columns) }

// Names returns the column names in schema order.
func (s *Schema) Names() []string {
	names := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		names[i] = c.Name
	}
	return names
}

// CompareOp enumerates the SARGable comparison operators of §3: =, is, <, ≤,
// >, ≥, between.
type CompareOp uint8

const (
	Eq CompareOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
	Between // inclusive on both ends, as in SQL BETWEEN
	IsNull
	IsNotNull
	// Prefix is a LIKE 'p%' predicate on string columns; it is SARGable
	// because the ordered dictionary maps it to a code range.
	Prefix
)

func (op CompareOp) String() string {
	switch op {
	case Eq:
		return "="
	case Ne:
		return "<>"
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Between:
		return "between"
	case IsNull:
		return "is null"
	case IsNotNull:
		return "is not null"
	case Prefix:
		return "like-prefix"
	default:
		return fmt.Sprintf("CompareOp(%d)", uint8(op))
	}
}

// Value is a dynamically typed cell value used at API boundaries (inserts,
// point lookups, query results). The hot paths inside scans never allocate
// Values; they work on typed column slices. It is 32 bytes: the string, one
// word that holds the int64 or the float64's bits, and three flag bytes.
type Value struct {
	s     string
	bits  uint64
	kind  Kind
	null  bool
	valid bool // distinguishes the zero Value from a typed one
}

// NullValue returns the NULL of the given kind.
func NullValue(k Kind) Value { return Value{kind: k, null: true, valid: true} }

// IntValue wraps an int64.
func IntValue(v int64) Value { return Value{kind: Int64, bits: uint64(v), valid: true} }

// FloatValue wraps a float64.
func FloatValue(v float64) Value { return Value{kind: Float64, bits: math.Float64bits(v), valid: true} }

// StringValue wraps a string.
func StringValue(v string) Value { return Value{kind: String, s: v, valid: true} }

// DateValue wraps a calendar date as days since the Unix epoch.
func DateValue(year int, month time.Month, day int) Value {
	return IntValue(DateToDays(year, month, day))
}

// DateToDays converts a calendar date to days since the Unix epoch.
func DateToDays(year int, month time.Month, day int) int64 {
	t := time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
	return t.Unix() / 86400
}

// DaysToDate converts days since the Unix epoch back to a calendar date.
func DaysToDate(days int64) (year int, month time.Month, day int) {
	t := time.Unix(days*86400, 0).UTC()
	return t.Year(), t.Month(), t.Day()
}

// Kind reports the value's logical type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.null }

// IsZero reports whether v is the uninitialized zero Value (no type at all).
func (v Value) IsZero() bool { return !v.valid }

// Int returns the int64 payload. It panics on a non-integer or NULL value.
func (v Value) Int() int64 {
	if v.kind != Int64 || v.null {
		panic(fmt.Sprintf("types: Int() on %s", v))
	}
	return int64(v.bits)
}

// Float returns the float64 payload. It panics on a non-float or NULL value.
func (v Value) Float() float64 {
	if v.kind != Float64 || v.null {
		panic(fmt.Sprintf("types: Float() on %s", v))
	}
	return math.Float64frombits(v.bits)
}

// Str returns the string payload. It panics on a non-string or NULL value.
func (v Value) Str() string {
	if v.kind != String || v.null {
		panic(fmt.Sprintf("types: Str() on %s", v))
	}
	return v.s
}

// Equal reports deep equality (NULL equals NULL here; this is identity, not
// SQL three-valued logic).
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind || v.null != o.null {
		return false
	}
	if v.null {
		return true
	}
	switch v.kind {
	case Int64:
		return v.bits == o.bits
	case Float64:
		f, g := math.Float64frombits(v.bits), math.Float64frombits(o.bits)
		return f == g || (math.IsNaN(f) && math.IsNaN(g))
	case String:
		return v.s == o.s
	}
	return false
}

// Compare orders two non-null values of the same kind: -1, 0, +1.
func (v Value) Compare(o Value) int {
	if v.kind != o.kind {
		panic(fmt.Sprintf("types: comparing %s with %s", v.kind, o.kind))
	}
	if v.null || o.null {
		panic("types: comparing NULL values")
	}
	switch v.kind {
	case Int64:
		return cmp3(int64(v.bits), int64(o.bits))
	case Float64:
		return cmp3(math.Float64frombits(v.bits), math.Float64frombits(o.bits))
	case String:
		return cmp3(v.s, o.s)
	}
	return 0
}

// cmp3 is Compare's three-way order; unordered floats (NaN) compare equal.
func cmp3[T int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func (v Value) String() string {
	if !v.valid {
		return "<zero>"
	}
	if v.null {
		return "NULL"
	}
	switch v.kind {
	case Int64:
		return fmt.Sprintf("%d", v.Int())
	case Float64:
		return fmt.Sprintf("%g", v.Float())
	case String:
		return fmt.Sprintf("%q", v.s)
	}
	return "<invalid>"
}

// Row is a tuple of values, one per schema column.
type Row []Value
