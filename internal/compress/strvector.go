package compress

import (
	"math"
	"sort"
	"strings"

	"datablocks/internal/simd"
)

// StringVector is one string attribute of a Data Block. Strings are always
// reduced to integer codes (§3.4: "also string types are always compressed
// to integers"): either a single value or an order-preserving dictionary.
//
// The dictionary is the block's string section (§3): its distinct values
// in ascending order, back to back in one string, and an offset array with
// one entry more than the dictionary, so entry c is
// Section[Offsets[c]:Offsets[c+1]]. Freeze builds both at exactly their
// size and a reload rebuilds them from the on-disk section in two
// allocations. Neither holds a pointer per entry, so the collector neither
// scans them nor lets them pin the strings the block was frozen from. A
// decoded value is a substring of the section and keeps all of it alive
// (core.Block.Row says when a point read copies).
type StringVector struct {
	Scheme  Scheme // SingleValue or Dictionary
	Width   int
	N       int
	AllNull bool
	Single  string
	Section string   // Dictionary: the distinct values, ascending, back to back
	Offsets []uint32 // Dictionary: entry c is Section[Offsets[c]:Offsets[c+1]]
	Data    []byte   // key codes
}

// EncodeStrings compresses one string column. nulls may be nil; null
// positions receive code 0 as a don't-care. The vector owns its strings:
// it references none of values.
func EncodeStrings(values []string, nulls []bool) *StringVector {
	v := &StringVector{N: len(values)}
	nonNull := values
	if nulls != nil {
		nonNull = make([]string, 0, len(values))
		for i, s := range values {
			if !nulls[i] {
				nonNull = append(nonNull, s)
			}
		}
	}
	if len(nonNull) == 0 {
		v.Scheme = SingleValue
		v.AllNull = true
		return v
	}
	dict := sortedDistinct(nonNull)
	if len(dict) == 1 {
		v.Scheme = SingleValue
		v.Single = strings.Clone(dict[0])
		return v
	}
	v.Scheme = Dictionary
	v.Width = ByteWidth(uint64(len(dict) - 1))
	size := 0
	for _, s := range dict {
		size += len(s)
	}
	var sec strings.Builder
	sec.Grow(size)
	v.Offsets = make([]uint32, len(dict)+1)
	idx := make(map[string]uint64, len(dict))
	for i, s := range dict {
		idx[s] = uint64(i)
		sec.WriteString(s)
		v.Offsets[i+1] = uint32(sec.Len())
	}
	v.Section = sec.String()
	v.Data = make([]byte, len(values)*v.Width+8)
	for i, s := range values {
		code := uint64(0)
		if nulls == nil || !nulls[i] {
			code = idx[s]
		}
		simd.WriteUint(v.Data, i, v.Width, code)
	}
	return v
}

// Entry returns dictionary entry c, a substring of the section.
func (v *StringVector) Entry(c int) string { return v.Section[v.Offsets[c]:v.Offsets[c+1]] }

// DictLen returns the number of dictionary entries (0 for SingleValue).
func (v *StringVector) DictLen() int { return max(len(v.Offsets)-1, 0) }

// search returns the first code whose entry satisfies f, which must be
// false and then true in dictionary order.
func (v *StringVector) search(f func(string) bool) int {
	return sort.Search(v.DictLen(), func(c int) bool { return f(v.Entry(c)) })
}

// Get decodes the string at row i (don't-care for null rows).
func (v *StringVector) Get(i int) string {
	if v.Scheme == SingleValue {
		return v.Single
	}
	return v.Entry(int(simd.ReadUint(v.Data, i, v.Width)))
}

// CodeAt returns the raw dictionary code at row i.
func (v *StringVector) CodeAt(i int) uint64 { return simd.ReadUint(v.Data, i, v.Width) }

// Min returns the smallest non-null string (SMA).
func (v *StringVector) Min() string {
	if v.Scheme == SingleValue {
		return v.Single
	}
	return v.Entry(0)
}

// Max returns the largest non-null string (SMA).
func (v *StringVector) Max() string {
	if v.Scheme == SingleValue {
		return v.Single
	}
	return v.Entry(v.DictLen() - 1)
}

// TranslateRange rewrites an inclusive string range into the code domain.
func (v *StringVector) TranslateRange(lo, hi string) Translation {
	return v.TranslateBounds(lo, hi, true, true, false, false)
}

// TranslateBounds rewrites a general string interval into the code domain.
// hasLo/hasHi select one- or two-sided intervals; loExcl/hiExcl make the
// respective bound strict. Strings have no predecessor/successor, so
// strict bounds cannot be rewritten as inclusive ones the way integers can.
func (v *StringVector) TranslateBounds(lo, hi string, hasLo, hasHi, loExcl, hiExcl bool) Translation {
	if v.AllNull {
		return Translation{Verdict: None}
	}
	inBounds := func(s string) bool {
		if hasLo && (s < lo || loExcl && s == lo) {
			return false
		}
		if hasHi && (s > hi || hiExcl && s == hi) {
			return false
		}
		return true
	}
	if v.Scheme == SingleValue {
		if inBounds(v.Single) {
			return Translation{Verdict: All}
		}
		return Translation{Verdict: None}
	}
	c1 := 0
	if hasLo {
		if loExcl {
			c1 = v.search(func(s string) bool { return s > lo })
		} else {
			c1 = v.search(func(s string) bool { return s >= lo })
		}
	}
	c2 := v.DictLen() - 1
	if hasHi {
		if hiExcl {
			c2 = v.search(func(s string) bool { return s >= hi }) - 1
		} else {
			c2 = v.search(func(s string) bool { return s > hi }) - 1
		}
	}
	switch {
	case c1 > c2:
		return Translation{Verdict: None}
	case c1 == 0 && c2 == v.DictLen()-1:
		return Translation{Verdict: All}
	default:
		return Translation{Verdict: Range, C1: uint64(c1), C2: uint64(c2)}
	}
}

// TranslatePrefix rewrites a LIKE 'p%' prefix predicate into a code range,
// exploiting the order-preserving dictionary.
func (v *StringVector) TranslatePrefix(p string) Translation {
	if v.AllNull {
		return Translation{Verdict: None}
	}
	if p == "" {
		return Translation{Verdict: All}
	}
	if v.Scheme == SingleValue {
		if len(v.Single) >= len(p) && v.Single[:len(p)] == p {
			return Translation{Verdict: All}
		}
		return Translation{Verdict: None}
	}
	c1 := v.search(func(s string) bool { return s >= p })
	c2 := v.search(func(s string) bool {
		return len(s) < len(p) && s > p || len(s) >= len(p) && s[:len(p)] > p
	}) - 1
	if c1 > c2 {
		return Translation{Verdict: None}
	}
	if c1 == 0 && c2 == v.DictLen()-1 {
		return Translation{Verdict: All}
	}
	return Translation{Verdict: Range, C1: uint64(c1), C2: uint64(c2)}
}

// TranslateNotEqual rewrites v != c into the code domain.
func (v *StringVector) TranslateNotEqual(c string) Translation {
	if v.AllNull {
		return Translation{Verdict: None}
	}
	if v.Scheme == SingleValue {
		if v.Single == c {
			return Translation{Verdict: None}
		}
		return Translation{Verdict: All}
	}
	i := v.search(func(s string) bool { return s >= c })
	if i >= v.DictLen() || v.Entry(i) != c {
		return Translation{Verdict: All}
	}
	return Translation{Verdict: NotEqual, C1: uint64(i)}
}

// CompressedSize returns the in-memory footprint in bytes: key codes plus
// the dictionary's string bytes and per-entry offsets.
func (v *StringVector) CompressedSize() int {
	if v.Scheme == SingleValue {
		return headerOverhead + len(v.Single) + 4
	}
	return headerOverhead + len(v.Section) + 4*v.DictLen() + v.N*v.Width
}

// FloatVector is one double attribute. Doubles are never truncated (§3.3);
// the only schemes are single-value and uncompressed.
type FloatVector struct {
	Scheme   Scheme // SingleValue or Uncompressed
	N        int
	AllNull  bool
	Min, Max float64
	Single   float64
	Values   []float64
}

// EncodeFloats compresses one double column. Two rules keep every value
// what it was. A column is a single value only when all its non-NULL
// values have the same bits: -0.0 equals 0 and is not the same value. And
// a non-NULL NaN poisons both SMA bounds to NaN: no ordered comparison
// places NaN inside an interval, so bounds that ignored it would let the
// SMA answer for a value it never saw; against NaN bounds every comparison
// is false and the SMA decides nothing.
func EncodeFloats(values []float64, nulls []bool) *FloatVector {
	v := &FloatVector{N: len(values)}
	first, single := true, true
	var bits uint64
	for i, x := range values {
		if nulls != nil && nulls[i] {
			continue
		}
		if first {
			v.Min, v.Max, bits = x, x, math.Float64bits(x)
			first = false
			continue
		}
		single = single && math.Float64bits(x) == bits
		switch {
		case math.IsNaN(x):
			v.Min, v.Max = x, x
		case x < v.Min:
			v.Min = x
		case x > v.Max:
			v.Max = x
		}
	}
	if first {
		v.Scheme = SingleValue
		v.AllNull = true
		return v
	}
	if single {
		v.Scheme = SingleValue
		v.Single = math.Float64frombits(bits)
		return v
	}
	v.Scheme = Uncompressed
	v.Values = append([]float64(nil), values...)
	if nulls != nil {
		for i := range v.Values {
			if nulls[i] {
				v.Values[i] = v.Min // don't-care
			}
		}
	}
	return v
}

// Get returns the double at row i (don't-care for null rows).
func (v *FloatVector) Get(i int) float64 {
	if v.Scheme == SingleValue {
		return v.Single
	}
	return v.Values[i]
}

// CompressedSize returns the in-memory footprint in bytes.
func (v *FloatVector) CompressedSize() int {
	if v.Scheme == SingleValue {
		return headerOverhead + 8
	}
	return headerOverhead + 8*v.N
}
