package core

import (
	"fmt"
	"math"

	"datablocks/internal/compress"
	"datablocks/internal/psma"
	"datablocks/internal/simd"
	"datablocks/internal/types"
)

// Predicate is one SARGable scan restriction (§3: =, is, <, ≤, >, ≥,
// between, plus LIKE-prefix on dictionary strings). Lo carries the constant
// for unary operators; Hi is the upper bound of Between. Constant kinds
// must match the column kind.
type Predicate struct {
	Col    int
	Op     types.CompareOp
	Lo, Hi types.Value
}

// DefaultVectorSize is the number of records fetched per scan invocation
// before they are pushed to the consumer — 8192 in HyPer (§4.1, Appendix A).
const DefaultVectorSize = 8192

// ScanSpec configures a block scan.
type ScanSpec struct {
	// Preds are evaluated on the compressed representation inside the scan.
	Preds []Predicate
	// Project lists the attribute ordinals to unpack for matching tuples.
	Project []int
	// VectorSize overrides DefaultVectorSize when positive.
	VectorSize int
	// UsePSMA enables Positional-SMA scan-range narrowing.
	UsePSMA bool
}

// predClass distinguishes how a compiled predicate is evaluated.
type predClass uint8

const (
	predCode  predClass = iota // simd kernels on compressed codes
	predFloat                  // scalar kernels on doubles
	predNull                   // validity-bitmap test
)

// compiledPred is a predicate translated into the block's physical domain.
type compiledPred struct {
	class predClass

	// predCode
	data   []byte
	width  int
	op     simd.Op
	c1, c2 uint64

	// predFloat
	fvals  []float64
	fop    simd.Op
	f1, f2 float64

	// predNull (also used to mask NULLs of value predicates)
	bitmap  []uint64
	wantSet bool

	// psma narrowing inputs (predCode with a range verdict only)
	psma    *psma.Table
	minCode uint64
	isRange bool
}

// Scanner evaluates a ScanSpec over one Data Block, yielding matches
// vector-at-a-time.
type Scanner struct {
	b       *Block
	spec    ScanSpec
	preds   []compiledPred
	vecSize int
	cur     int // next row to examine
	end     int
	skipped bool // block ruled out by SMA / dictionary probe
	matches []uint32
}

// NewScanner compiles spec against the block. A nil error with a skipped
// scanner (Next returning false immediately) means the block was ruled out
// before touching any data — the SMA skip of §3.2.
func NewScanner(b *Block, spec ScanSpec) (*Scanner, error) {
	s := &Scanner{b: b, spec: spec, vecSize: spec.VectorSize, end: b.n}
	if s.vecSize <= 0 {
		s.vecSize = DefaultVectorSize
	}
	for _, p := range spec.Preds {
		if p.Col < 0 || p.Col >= len(b.attrs) {
			return nil, fmt.Errorf("core: predicate column %d out of range", p.Col)
		}
		done, err := s.compilePred(p)
		if err != nil {
			return nil, err
		}
		if done { // predicate can never match: whole block skipped
			s.skipped = true
			s.cur = s.end
			return s, nil
		}
	}
	// Code predicates first: they are cheapest, PSMA-capable, and their
	// false positives on NULL don't-care codes are corrected by the
	// validity reductions that follow them.
	ordered := make([]compiledPred, 0, len(s.preds))
	for _, c := range s.preds {
		if c.class == predCode {
			ordered = append(ordered, c)
		}
	}
	for _, c := range s.preds {
		if c.class != predCode {
			ordered = append(ordered, c)
		}
	}
	s.preds = ordered
	if spec.UsePSMA {
		s.narrowWithPSMA()
	}
	return s, nil
}

// compilePred translates one predicate. It returns done=true when the
// predicate rules out the whole block.
func (s *Scanner) compilePred(p Predicate) (done bool, err error) {
	a := &s.b.attrs[p.Col]
	switch p.Op {
	case types.IsNull, types.IsNotNull:
		wantNull := p.Op == types.IsNull
		if a.Validity == nil {
			// No bitmap: the column is either entirely null or entirely
			// non-null, so the predicate is decided for the whole block.
			if s.attrAllNull(p.Col) == wantNull {
				return false, nil // trivially true: drop
			}
			return true, nil
		}
		s.preds = append(s.preds, compiledPred{class: predNull, bitmap: a.Validity, wantSet: !wantNull})
		return false, nil
	}

	// Value predicate: never matches NULL, so nullable columns get an
	// extra validity reduction.
	addValidity := func() {
		if a.Validity != nil {
			s.preds = append(s.preds, compiledPred{class: predNull, bitmap: a.Validity, wantSet: true})
		}
	}

	switch a.Kind {
	case types.Int64:
		if p.Lo.Kind() != types.Int64 {
			return false, fmt.Errorf("core: predicate on int column %d with %v constant", p.Col, p.Lo.Kind())
		}
		tr, isRange, err := translateInt(a.Ints, p)
		if err != nil {
			return false, err
		}
		return s.addTranslated(a, tr, isRange, a.Ints.Data, a.Ints.Width, a.Ints.MinCode(), addValidity)
	case types.String:
		if p.Lo.Kind() != types.String {
			return false, fmt.Errorf("core: predicate on string column %d with %v constant", p.Col, p.Lo.Kind())
		}
		tr, isRange, err := translateStr(a.Strs, p)
		if err != nil {
			return false, err
		}
		return s.addTranslated(a, tr, isRange, a.Strs.Data, a.Strs.Width, 0, addValidity)
	case types.Float64:
		if p.Lo.Kind() != types.Float64 {
			return false, fmt.Errorf("core: predicate on float column %d with %v constant", p.Col, p.Lo.Kind())
		}
		return s.compileFloat(a, p, addValidity)
	}
	return false, fmt.Errorf("core: unsupported column kind")
}

func (s *Scanner) attrAllNull(col int) bool {
	a := &s.b.attrs[col]
	switch a.Kind {
	case types.Int64:
		return a.Ints.AllNull
	case types.Float64:
		return a.Floats.AllNull
	default:
		return a.Strs.AllNull
	}
}

func (s *Scanner) addTranslated(a *Attr, tr compress.Translation, isRange bool, data []byte, width int, minCode uint64, addValidity func()) (bool, error) {
	switch tr.Verdict {
	case compress.None:
		return true, nil
	case compress.All:
		addValidity()
		return false, nil
	}
	op := simd.OpBetween
	if tr.Verdict == compress.NotEqual {
		op = simd.OpNe
	}
	s.preds = append(s.preds, compiledPred{
		class: predCode, data: data, width: width,
		op: op, c1: tr.C1, c2: tr.C2,
		psma: a.Psma, minCode: minCode, isRange: isRange && tr.Verdict == compress.Range,
	})
	addValidity()
	return false, nil
}

// translateInt normalizes an integer predicate to an inclusive range or a
// not-equal and translates it into the code domain.
func translateInt(v *compress.IntVector, p Predicate) (compress.Translation, bool, error) {
	c := func(val types.Value) int64 { return val.Int() }
	switch p.Op {
	case types.Eq:
		return v.TranslateRange(c(p.Lo), c(p.Lo)), true, nil
	case types.Ne:
		return v.TranslateNotEqual(c(p.Lo)), false, nil
	case types.Lt:
		if c(p.Lo) == math.MinInt64 {
			return compress.Translation{Verdict: compress.None}, false, nil
		}
		return v.TranslateRange(math.MinInt64, c(p.Lo)-1), true, nil
	case types.Le:
		return v.TranslateRange(math.MinInt64, c(p.Lo)), true, nil
	case types.Gt:
		if c(p.Lo) == math.MaxInt64 {
			return compress.Translation{Verdict: compress.None}, false, nil
		}
		return v.TranslateRange(c(p.Lo)+1, math.MaxInt64), true, nil
	case types.Ge:
		return v.TranslateRange(c(p.Lo), math.MaxInt64), true, nil
	case types.Between:
		return v.TranslateRange(c(p.Lo), c(p.Hi)), true, nil
	default:
		return compress.Translation{}, false, fmt.Errorf("core: operator %v not valid on integers", p.Op)
	}
}

func translateStr(v *compress.StringVector, p Predicate) (compress.Translation, bool, error) {
	switch p.Op {
	case types.Eq:
		return v.TranslateRange(p.Lo.Str(), p.Lo.Str()), true, nil
	case types.Ne:
		return v.TranslateNotEqual(p.Lo.Str()), false, nil
	case types.Lt:
		return v.TranslateBounds("", p.Lo.Str(), false, true, false, true), true, nil
	case types.Le:
		return v.TranslateBounds("", p.Lo.Str(), false, true, false, false), true, nil
	case types.Gt:
		return v.TranslateBounds(p.Lo.Str(), "", true, false, true, false), true, nil
	case types.Ge:
		return v.TranslateBounds(p.Lo.Str(), "", true, false, false, false), true, nil
	case types.Between:
		return v.TranslateRange(p.Lo.Str(), p.Hi.Str()), true, nil
	case types.Prefix:
		return v.TranslatePrefix(p.Lo.Str()), true, nil
	default:
		return compress.Translation{}, false, fmt.Errorf("core: operator %v not valid on strings", p.Op)
	}
}

// compileFloat performs the SMA check for doubles and compiles a scalar
// predicate (the paper's non-integer fallback, §4.2).
func (s *Scanner) compileFloat(a *Attr, p Predicate, addValidity func()) (bool, error) {
	v := a.Floats
	if v.AllNull {
		return true, nil
	}
	op, c1, c2, err := floatPred(p)
	if err != nil {
		return false, err
	}
	switch smaFloat(op, c1, c2, v.Min, v.Max) {
	case compress.None:
		return true, nil
	case compress.All:
		addValidity()
		return false, nil
	}
	s.preds = append(s.preds, compiledPred{class: predFloat, fvals: v.Values, fop: op, f1: c1, f2: c2})
	addValidity()
	return false, nil
}

// floatPred normalizes a predicate on a double column to a comparison
// operator and its constants.
func floatPred(p Predicate) (op simd.Op, c1, c2 float64, err error) {
	c1 = p.Lo.Float()
	c2 = c1
	switch p.Op {
	case types.Eq:
		op = simd.OpEq
	case types.Ne:
		op = simd.OpNe
	case types.Lt:
		op = simd.OpLt
	case types.Le:
		op = simd.OpLe
	case types.Gt:
		op = simd.OpGt
	case types.Ge:
		op = simd.OpGe
	case types.Between:
		op = simd.OpBetween
		c2 = p.Hi.Float()
	default:
		err = fmt.Errorf("core: operator %v not valid on doubles", p.Op)
	}
	return op, c1, c2, err
}

// MayMatch reports whether the block can hold a tuple that satisfies every
// predicate, judged by the directory alone: per attribute the SMA bounds,
// the single value, and the NULL flags — the whole-block skip of §3.2,
// decidable while the payload is on secondary storage. It errs on the side
// of true: a dictionary miss needs the dictionary, and a malformed
// predicate is NewScanner's to report once the block is pinned.
func (d *Directory) MayMatch(preds []Predicate) bool {
	for _, p := range preds {
		if p.Col < 0 || p.Col >= len(d.attrs) {
			continue
		}
		e := &d.attrs[p.Col]
		allNull := e.flags&flagAllNull != 0
		if p.Op == types.IsNull || p.Op == types.IsNotNull {
			// Without a validity bitmap the column is all NULL or all
			// non-NULL, which decides the predicate for the whole block.
			if e.flags&flagValidity == 0 && allNull != (p.Op == types.IsNull) {
				return false
			}
			continue
		}
		if allNull {
			return false // a value predicate never matches NULL
		}
		switch {
		case e.kind == types.Int64 && p.Lo.Kind() == types.Int64:
			// A payload-free stand-in: presented as uncompressed, its
			// translation can only be ruled out by min/max or the single
			// value, exactly what the directory knows.
			v := compress.IntVector{Scheme: compress.Uncompressed, Min: int64(e.min), Max: int64(e.max), Single: int64(e.single)}
			if e.scheme == compress.SingleValue {
				v.Scheme = compress.SingleValue
			}
			if tr, _, err := translateInt(&v, p); err == nil && tr.Verdict == compress.None {
				return false
			}
		case e.kind == types.Float64 && p.Lo.Kind() == types.Float64:
			op, c1, c2, err := floatPred(p)
			if err == nil && smaFloat(op, c1, c2, math.Float64frombits(e.min), math.Float64frombits(e.max)) == compress.None {
				return false
			}
		}
	}
	return true
}

// smaFloat decides whether the SMA interval [min, max] proves a float
// predicate always-false (None), always-true (All), or undecided (Range).
func smaFloat(op simd.Op, c1, c2, min, max float64) compress.Verdict {
	switch op {
	case simd.OpEq:
		if c1 < min || c1 > max {
			return compress.None
		}
		if min == max && min == c1 {
			return compress.All
		}
	case simd.OpNe:
		if c1 < min || c1 > max {
			return compress.All
		}
		if min == max && min == c1 {
			return compress.None
		}
	case simd.OpLt:
		if min >= c1 {
			return compress.None
		}
		if max < c1 {
			return compress.All
		}
	case simd.OpLe:
		if min > c1 {
			return compress.None
		}
		if max <= c1 {
			return compress.All
		}
	case simd.OpGt:
		if max <= c1 {
			return compress.None
		}
		if min > c1 {
			return compress.All
		}
	case simd.OpGe:
		if max < c1 {
			return compress.None
		}
		if min >= c1 {
			return compress.All
		}
	default: // between
		if c1 > c2 || c2 < min || c1 > max {
			return compress.None
		}
		if c1 <= min && c2 >= max {
			return compress.All
		}
	}
	return compress.Range
}

// narrowWithPSMA intersects the per-predicate PSMA ranges to shrink the
// scanned row interval (§3.2). Predicates without a range verdict or
// without a PSMA contribute the full block.
func (s *Scanner) narrowWithPSMA() {
	r := psma.Range{Begin: 0, End: uint32(s.b.n)}
	narrowed := false
	for i := range s.preds {
		p := &s.preds[i]
		if p.class != predCode || p.psma == nil || !p.isRange {
			continue
		}
		pr := p.psma.LookupRange(p.c1-p.minCode, p.c2-p.minCode)
		r = r.Intersect(pr)
		narrowed = true
	}
	if !narrowed {
		return
	}
	s.cur = int(r.Begin)
	s.end = int(r.End)
	if r.Empty() {
		s.cur, s.end = 0, 0
		s.skipped = true
	}
}

// SkippedBySMA reports whether the whole block was ruled out before
// scanning (SMA bounds, dictionary probe miss, or empty PSMA range).
func (s *Scanner) SkippedBySMA() bool { return s.skipped }

// ScanRange returns the row interval the scan will actually examine after
// PSMA narrowing.
func (s *Scanner) ScanRange() (begin, end int) { return s.cur, s.end }

// Next fills batch with the next vector of matching tuples. It returns
// false when the block is exhausted. The batch's buffers are reused.
func (s *Scanner) Next(batch *Batch) bool {
	m, ok := s.NextMatches()
	if !ok {
		return false
	}
	s.Unpack(batch, m)
	return true
}

// NextMatches runs the find/reduce phase only, returning the next non-empty
// match-position vector (valid until the next call). Splitting matching
// from unpacking lets callers thin the match vector further — e.g. by early
// probing an upstream join's tagged hash table (Appendix E) — before paying
// for decompression.
func (s *Scanner) NextMatches() ([]uint32, bool) {
	for s.cur < s.end {
		hi := s.cur + s.vecSize
		if hi > s.end {
			hi = s.end
		}
		n := hi - s.cur
		base := uint32(s.cur)
		m := s.matches[:0]
		if len(s.preds) == 0 {
			m = simd.Sequence(m, n, base)
		} else {
			m = s.evalFirst(&s.preds[0], n, base, m)
			for i := 1; i < len(s.preds) && len(m) > 0; i++ {
				m = s.evalReduce(&s.preds[i], m)
			}
		}
		s.cur = hi
		s.matches = m
		if len(m) == 0 {
			continue
		}
		return m, true
	}
	return nil, false
}

// Unpack materializes the projected attributes at the given positions into
// the batch.
func (s *Scanner) Unpack(batch *Batch, m []uint32) { s.unpack(batch, m) }

func (s *Scanner) evalFirst(p *compiledPred, n int, base uint32, m []uint32) []uint32 {
	switch p.class {
	case predCode:
		return simd.Find(p.data[int(base)*p.width:], p.width, n, p.op, p.c1, p.c2, base, m)
	case predFloat:
		return simd.FindFloat64(p.fvals[base:int(base)+n], p.fop, p.f1, p.f2, base, m)
	default:
		m = simd.Sequence(m, n, base)
		return simd.ReduceBitmap(p.bitmap, p.wantSet, m)
	}
}

func (s *Scanner) evalReduce(p *compiledPred, m []uint32) []uint32 {
	switch p.class {
	case predCode:
		return simd.Reduce(p.data, p.width, p.op, p.c1, p.c2, m)
	case predFloat:
		return simd.ReduceFloat64(p.fvals, p.fop, p.f1, p.f2, m)
	default:
		return simd.ReduceBitmap(p.bitmap, p.wantSet, m)
	}
}

// UnpackColumn materializes one projected attribute (index k into the
// projection) at the given positions. It is the building block of lazy
// (late-materializing) scans: the consumer unpacks predicate columns
// first, thins the match vector, and only pays decompression of the
// remaining columns for surviving tuples.
func (s *Scanner) UnpackColumn(batch *Batch, k int, m []uint32) {
	if cap(batch.Cols) < len(s.spec.Project) {
		batch.Cols = make([]BatchCol, len(s.spec.Project))
	}
	batch.Cols = batch.Cols[:len(s.spec.Project)]
	s.unpackCol(batch, k, m)
}

// unpack materializes the projected attributes of the matched positions
// into the batch (§3.4 "unpacking matches").
func (s *Scanner) unpack(batch *Batch, m []uint32) {
	batch.N = len(m)
	batch.Pos = append(batch.Pos[:0], m...)
	if cap(batch.Cols) < len(s.spec.Project) {
		batch.Cols = make([]BatchCol, len(s.spec.Project))
	}
	batch.Cols = batch.Cols[:len(s.spec.Project)]
	for k := range s.spec.Project {
		s.unpackCol(batch, k, m)
	}
}

func (s *Scanner) unpackCol(batch *Batch, k int, m []uint32) {
	col := s.spec.Project[k]
	a := &s.b.attrs[col]
	bc := &batch.Cols[k]
	bc.Kind = a.Kind
	switch a.Kind {
	case types.Int64:
		bc.Ints = resizeI64(bc.Ints, len(m))
		a.Ints.Gather(m, bc.Ints)
	case types.Float64:
		bc.Floats = resizeF64(bc.Floats, len(m))
		a.Floats.Gather(m, bc.Floats)
	default:
		bc.Strs = resizeStr(bc.Strs, len(m))
		a.Strs.Gather(m, bc.Strs)
	}
	switch {
	case a.Validity != nil:
		bc.Nulls = resizeBool(bc.Nulls, len(m))
		for i, p := range m {
			bc.Nulls[i] = !simd.BitmapGet(a.Validity, p)
		}
	case s.attrAllNull(col):
		bc.Nulls = resizeBool(bc.Nulls, len(m))
		for i := range bc.Nulls {
			bc.Nulls[i] = true
		}
	default:
		bc.Nulls = nil
	}
}
