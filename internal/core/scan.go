package core

import (
	"fmt"
	"math"
	"strings"

	"datablocks/internal/compress"
	"datablocks/internal/psma"
	"datablocks/internal/simd"
	"datablocks/internal/types"
)

// Predicate is one SARGable scan restriction (§3: =, is, <, ≤, >, ≥,
// between, plus LIKE-prefix on dictionary strings). Lo carries the constant
// for unary operators; Hi is the upper bound of Between. Constant kinds
// must match the column kind (Check).
type Predicate struct {
	Col    int
	Op     types.CompareOp
	Lo, Hi types.Value
}

// Check reports whether the predicate is well formed for a column of the
// given kind: the operator exists for the kind, and Lo — and Hi for Between —
// is a non-NULL constant of exactly that kind (no numeric coercion: an
// integer column is never compared with a double). It is the one statement
// of the SARG contract; every scan, on either layout and in every mode,
// rejects what it rejects.
func (p Predicate) Check(kind types.Kind) error {
	switch {
	case p.Op == types.IsNull || p.Op == types.IsNotNull:
		return nil
	case p.Op > types.Prefix, p.Op == types.Prefix && kind != types.String:
		return fmt.Errorf("operator %v not valid on %v columns", p.Op, kind)
	}
	consts := []types.Value{p.Lo, p.Hi}
	if p.Op != types.Between {
		consts = consts[:1]
	}
	for _, c := range consts {
		if c.Kind() != kind || c.IsNull() {
			return fmt.Errorf("%v on a %v column with %v constant %v", p.Op, kind, c.Kind(), c)
		}
	}
	return nil
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
	// Matches is optional scratch for the match vector: its capacity is
	// reused, its contents are not. A caller that scans chunk after chunk
	// passes the vector NextMatches last returned, so one buffer serves the
	// whole scan instead of one per chunk.
	Matches []uint32
	// Codes lists projection indices a consumer can take as codes
	// (UnpackCodes) — the group keys of an aggregation on the scan. It is
	// one choice per chunk, for all of them or none: a block whose listed
	// attributes all have 1-byte codes and no validity bitmap, with at most
	// MaxCodeCombos code combinations, is coded; a hot chunk never is.
	Codes []int
}

// MaxCodeCombos caps the product of the code domains of a coded scan's
// ScanSpec.Codes attributes, so a combination of codes indexes a table of
// at most 64 Ki entries.
const MaxCodeCombos = 1 << 16

// predClass distinguishes how a compiled predicate is evaluated.
type predClass uint8

const (
	predCode  predClass = iota // simd kernels on compressed codes
	predFloat                  // simd kernels on doubles (either layout)
	predInt                    // simd kernels on uncompressed integers
	predStr                    // scalar test on uncompressed strings
	predNull                   // validity-bitmap test
	predFlags                  // NULL-flag test (uncompressed layout)
)

// compiledPred is a predicate translated into the physical domain of the
// chunk it scans.
type compiledPred struct {
	class predClass

	op simd.Op // predCode, predFloat, predInt

	// predCode
	data   []byte
	width  int
	c1, c2 uint64

	// predFloat
	fvals  []float64
	f1, f2 float64

	// predInt
	ivals  []int64
	i1, i2 int64

	// predStr
	svals []string
	stest func(string) bool

	// predNull and predFlags (also used to mask NULLs of value predicates):
	// wantSet keeps the rows that hold a value.
	bitmap  []uint64
	nulls   []bool
	wantSet bool

	// psma narrowing inputs (predCode with a range verdict only)
	psma    *psma.Table
	minCode uint64
	isRange bool
}

// Scanner evaluates a ScanSpec over one chunk — a Data Block or the same
// tuples uncompressed — yielding matches vector-at-a-time: the single scan
// interface of Figure 6. What differs per layout is how a predicate is
// compiled (code translation, SMA and PSMA exist for blocks only) and how a
// cell is fetched; find → reduce → unpack is one loop.
type Scanner struct {
	b       *Block       // compressed layout, or
	cols    []ColumnData // the uncompressed one (b == nil)
	spec    ScanSpec
	preds   []compiledPred
	vecSize int
	cur     int // next row to examine
	end     int
	skipped bool // chunk ruled out before touching any data
	coded   bool // ScanSpec.Codes travel as codes (UnpackCodes)
	matches []uint32
}

// NewScanner compiles spec against the block. A nil error with a skipped
// scanner (NextMatches returning false immediately) means the block was
// ruled out before touching any data — the SMA skip of §3.2.
func NewScanner(b *Block, spec ScanSpec) (*Scanner, error) {
	s := &Scanner{b: b, spec: spec, end: b.n, coded: len(spec.Codes) > 0}
	combos := 1
	for _, k := range spec.Codes {
		combos *= b.attrs[spec.Project[k]].CodeCard()
		s.coded = s.coded && combos > 0 && combos <= MaxCodeCombos
	}
	return newScanner(s)
}

// CodeCard is the size of the attribute's code domain when its cells can
// travel as 1-byte codes — a string or integer dictionary (its length) or
// integer truncation (every byte: Min + code) — and the attribute has no
// validity bitmap; 0 otherwise.
func (a *Attr) CodeCard() int {
	switch {
	case a.Validity != nil:
		return 0
	case a.Kind == types.String && a.Strs.Width == 1:
		return a.Strs.DictLen()
	case a.Kind == types.Int64 && a.Ints.Width == 1 && a.Ints.Scheme == compress.Dictionary:
		return len(a.Ints.Dict)
	case a.Kind == types.Int64 && a.Ints.Width == 1:
		return 256
	}
	return 0
}

// CodeInt decodes one code of an integer attribute with a CodeCard.
func (a *Attr) CodeInt(c byte) int64 {
	if a.Ints.Scheme == compress.Dictionary {
		return a.Ints.Dict[c]
	}
	return a.Ints.Min + int64(c)
}

// CodeStr decodes one code of a string attribute with a CodeCard.
func (a *Attr) CodeStr(c byte) string { return a.Strs.Entry(int(c)) }

// NewColumnScanner compiles spec against the first n rows of uncompressed
// columns, the layout of a hot chunk. There is no SMA or PSMA to consult:
// the scan range is [0, n), and only a NULL test on a column without NULL
// flags is decided up front.
func NewColumnScanner(cols []ColumnData, n int, spec ScanSpec) (*Scanner, error) {
	for i := range cols {
		if err := cols[i].check(n); err != nil {
			return nil, fmt.Errorf("core: column %d: %w", i, err)
		}
	}
	return newScanner(&Scanner{cols: cols, spec: spec, end: n})
}

func newScanner(s *Scanner) (*Scanner, error) {
	s.vecSize, s.matches = s.spec.VectorSize, s.spec.Matches
	if s.vecSize <= 0 {
		s.vecSize = DefaultVectorSize
	}
	// Room for a NULL mask behind every value predicate.
	s.preds = make([]compiledPred, 0, 2*len(s.spec.Preds))
	for _, p := range s.spec.Preds {
		done, err := s.compilePred(p)
		if err != nil {
			return nil, err
		}
		if done { // predicate can never match: whole chunk skipped
			s.skipped = true
			s.cur = s.end
			return s, nil
		}
	}
	// Code predicates first, otherwise in the order given: they are
	// cheapest, PSMA-capable, and their false positives on NULL don't-care
	// codes are corrected by the validity reductions that follow them.
	codes := 0
	for i := range s.preds {
		if c := s.preds[i]; c.class == predCode {
			copy(s.preds[codes+1:i+1], s.preds[codes:i])
			s.preds[codes] = c
			codes++
		}
	}
	if s.spec.UsePSMA {
		s.narrowWithPSMA()
	}
	return s, nil
}

// compilePred checks one predicate against its column and translates it
// for the chunk's layout. It returns done=true when the predicate rules out
// the whole chunk.
func (s *Scanner) compilePred(p Predicate) (done bool, err error) {
	var kind types.Kind
	switch {
	case s.b != nil && p.Col >= 0 && p.Col < len(s.b.attrs):
		kind = s.b.attrs[p.Col].Kind
	case s.b == nil && p.Col >= 0 && p.Col < len(s.cols):
		kind = s.cols[p.Col].Kind
	default:
		return false, fmt.Errorf("core: predicate column %d out of range", p.Col)
	}
	if err := p.Check(kind); err != nil {
		return false, fmt.Errorf("core: predicate on column %d: %w", p.Col, err)
	}
	if s.b == nil {
		return s.compileColumnPred(&s.cols[p.Col], p), nil
	}
	a := &s.b.attrs[p.Col]
	switch p.Op {
	case types.IsNull, types.IsNotNull:
		wantNull := p.Op == types.IsNull
		if a.Validity == nil {
			// No bitmap: the column is either entirely null or entirely
			// non-null, so the predicate is decided for the whole block.
			if a.allNull() == wantNull {
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
		tr, isRange := translateInt(a.Ints, p)
		return s.addTranslated(a, tr, isRange, a.Ints.Data, a.Ints.Width, a.Ints.MinCode(), addValidity), nil
	case types.String:
		tr, isRange := translateStr(a.Strs, p)
		return s.addTranslated(a, tr, isRange, a.Strs.Data, a.Strs.Width, 0, addValidity), nil
	default:
		return s.compileFloat(a, p, addValidity), nil
	}
}

// compileColumnPred compiles a checked predicate for an uncompressed
// column: the constants are compared as they are, on the raw slices.
func (s *Scanner) compileColumnPred(c *ColumnData, p Predicate) (done bool) {
	switch p.Op {
	case types.IsNull, types.IsNotNull:
		wantNull := p.Op == types.IsNull
		if c.Nulls == nil {
			return wantNull // no flags, no NULLs: IS NOT NULL is dropped
		}
		s.preds = append(s.preds, compiledPred{class: predFlags, nulls: c.Nulls, wantSet: !wantNull})
		return false
	}
	switch c.Kind {
	case types.Int64:
		cp := compiledPred{class: predInt, ivals: c.Ints, op: kernelOp(p.Op), i1: p.Lo.Int()}
		if p.Op == types.Between {
			cp.i2 = p.Hi.Int()
		}
		s.preds = append(s.preds, cp)
	case types.Float64:
		op, c1, c2 := floatPred(p)
		s.preds = append(s.preds, compiledPred{class: predFloat, fvals: c.Floats, op: op, f1: c1, f2: c2})
	default:
		s.preds = append(s.preds, compiledPred{class: predStr, svals: c.Strs, stest: strTest(p)})
	}
	if c.Nulls != nil { // a value predicate never matches NULL
		s.preds = append(s.preds, compiledPred{class: predFlags, nulls: c.Nulls, wantSet: true})
	}
	return false
}

// strTest builds the scalar test of a string predicate: uncompressed
// strings have no integer codes to run a kernel over.
func strTest(p Predicate) func(string) bool {
	c := p.Lo.Str()
	switch p.Op {
	case types.Eq:
		return func(s string) bool { return s == c }
	case types.Ne:
		return func(s string) bool { return s != c }
	case types.Lt:
		return func(s string) bool { return s < c }
	case types.Le:
		return func(s string) bool { return s <= c }
	case types.Gt:
		return func(s string) bool { return s > c }
	case types.Ge:
		return func(s string) bool { return s >= c }
	case types.Between:
		hi := p.Hi.Str()
		return func(s string) bool { return s >= c && s <= hi }
	default: // Prefix
		return func(s string) bool { return strings.HasPrefix(s, c) }
	}
}

func (s *Scanner) addTranslated(a *Attr, tr compress.Translation, isRange bool, data []byte, width int, minCode uint64, addValidity func()) (done bool) {
	switch tr.Verdict {
	case compress.None:
		return true
	case compress.All:
		addValidity()
		return false
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
	return false
}

// translateInt normalizes a checked integer predicate to an inclusive range
// or a not-equal and translates it into the code domain.
func translateInt(v *compress.IntVector, p Predicate) (compress.Translation, bool) {
	c := p.Lo.Int()
	switch p.Op {
	case types.Eq:
		return v.TranslateRange(c, c), true
	case types.Ne:
		return v.TranslateNotEqual(c), false
	case types.Lt:
		if c == math.MinInt64 {
			return compress.Translation{Verdict: compress.None}, false
		}
		return v.TranslateRange(math.MinInt64, c-1), true
	case types.Le:
		return v.TranslateRange(math.MinInt64, c), true
	case types.Gt:
		if c == math.MaxInt64 {
			return compress.Translation{Verdict: compress.None}, false
		}
		return v.TranslateRange(c+1, math.MaxInt64), true
	case types.Ge:
		return v.TranslateRange(c, math.MaxInt64), true
	default: // Between
		return v.TranslateRange(c, p.Hi.Int()), true
	}
}

// translateStr is translateInt for a checked string predicate.
func translateStr(v *compress.StringVector, p Predicate) (compress.Translation, bool) {
	c := p.Lo.Str()
	switch p.Op {
	case types.Eq:
		return v.TranslateRange(c, c), true
	case types.Ne:
		return v.TranslateNotEqual(c), false
	case types.Lt:
		return v.TranslateBounds("", c, false, true, false, true), true
	case types.Le:
		return v.TranslateBounds("", c, false, true, false, false), true
	case types.Gt:
		return v.TranslateBounds(c, "", true, false, true, false), true
	case types.Ge:
		return v.TranslateBounds(c, "", true, false, false, false), true
	case types.Between:
		return v.TranslateRange(c, p.Hi.Str()), true
	default: // Prefix
		return v.TranslatePrefix(c), true
	}
}

// compileFloat performs the SMA check for doubles and compiles the
// comparison on the values themselves (the paper's non-integer fallback,
// §4.2).
func (s *Scanner) compileFloat(a *Attr, p Predicate, addValidity func()) (done bool) {
	v := a.Floats
	if v.AllNull {
		return true
	}
	op, c1, c2 := floatPred(p)
	verdict := compress.None
	if v.Scheme != compress.SingleValue {
		verdict = smaFloat(op, c1, c2, v.Min, v.Max)
	} else if len(simd.FindFloat64([]float64{v.Single}, op, c1, c2, 0, nil)) == 1 {
		// One value decides the block, and there are no values to scan. The
		// kernel is asked, not the SMA: a NaN constant lies on neither side
		// of any bound, which the SMA reads as undecided.
		verdict = compress.All
	}
	switch verdict {
	case compress.None:
		return true
	case compress.All:
		addValidity()
		return false
	}
	s.preds = append(s.preds, compiledPred{class: predFloat, fvals: v.Values, op: op, f1: c1, f2: c2})
	addValidity()
	return false
}

// kernelOp maps a checked value comparison (Eq … Between) to its kernel op.
func kernelOp(op types.CompareOp) simd.Op {
	return [...]simd.Op{
		types.Eq: simd.OpEq, types.Ne: simd.OpNe, types.Lt: simd.OpLt, types.Le: simd.OpLe,
		types.Gt: simd.OpGt, types.Ge: simd.OpGe, types.Between: simd.OpBetween,
	}[op]
}

// floatPred normalizes a checked predicate on a double column to a kernel
// op and its constants.
func floatPred(p Predicate) (op simd.Op, c1, c2 float64) {
	c1 = p.Lo.Float()
	c2 = c1
	if p.Op == types.Between {
		c2 = p.Hi.Float()
	}
	return kernelOp(p.Op), c1, c2
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
		if p.Check(e.kind) != nil {
			continue
		}
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
		switch e.kind {
		case types.Int64:
			// A payload-free stand-in: presented as uncompressed, its
			// translation can only be ruled out by min/max or the single
			// value, exactly what the directory knows.
			v := compress.IntVector{Scheme: compress.Uncompressed, Min: int64(e.min), Max: int64(e.max), Single: int64(e.single)}
			if e.scheme == compress.SingleValue {
				v.Scheme = compress.SingleValue
			}
			if tr, _ := translateInt(&v, p); tr.Verdict == compress.None {
				return false
			}
		case types.Float64:
			op, c1, c2 := floatPred(p)
			if smaFloat(op, c1, c2, math.Float64frombits(e.min), math.Float64frombits(e.max)) == compress.None {
				return false
			}
		}
	}
	return true
}

// smaFloat decides whether the SMA interval [min, max] proves a float
// predicate always-false (None), always-true (All), or undecided (Range).
// A column holding a NaN has NaN bounds (compress.EncodeFloats): every
// comparison below is then false and the verdict is Range — the kernels
// decide per value, by the IEEE rule.
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
	r := psma.Range{Begin: 0, End: uint32(s.end)}
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

func (s *Scanner) evalFirst(p *compiledPred, n int, base uint32, m []uint32) []uint32 {
	switch p.class {
	case predCode:
		return simd.Find(p.data[int(base)*p.width:], p.width, n, p.op, p.c1, p.c2, base, m)
	case predFloat:
		return simd.FindFloat64(p.fvals[base:int(base)+n], p.op, p.f1, p.f2, base, m)
	case predInt:
		return simd.FindInt64(p.ivals[base:int(base)+n], p.op, p.i1, p.i2, base, m)
	default:
		return s.evalReduce(p, simd.Sequence(m, n, base))
	}
}

func (s *Scanner) evalReduce(p *compiledPred, m []uint32) []uint32 {
	switch p.class {
	case predCode:
		return simd.Reduce(p.data, p.width, p.op, p.c1, p.c2, m)
	case predFloat:
		return simd.ReduceFloat64(p.fvals, p.op, p.f1, p.f2, m)
	case predInt:
		return simd.ReduceInt64(p.ivals, p.op, p.i1, p.i2, m)
	case predNull:
		return simd.ReduceBitmap(p.bitmap, p.wantSet, m)
	case predStr:
		w := 0
		for _, pos := range m {
			if p.stest(p.svals[pos]) {
				m[w] = pos
				w++
			}
		}
		return m[:w]
	default: // predFlags
		w := 0
		for _, pos := range m {
			if p.nulls[pos] != p.wantSet {
				m[w] = pos
				w++
			}
		}
		return m[:w]
	}
}

// GatherInts decodes integer column col at the given positions into dst
// (len(m) long) without touching the projection — what early probing reads
// before anything is unpacked.
func (s *Scanner) GatherInts(col int, m []uint32, dst []int64) {
	if s.b != nil {
		s.b.attrs[col].Ints.Gather(m, dst)
		return
	}
	src := s.cols[col].Ints
	for i, p := range m {
		dst[i] = src[p]
	}
}

// UnpackColumn materializes one projected attribute (index k into the
// projection) at the given positions. It is the building block of lazy
// (late-materializing) scans: the consumer unpacks predicate columns
// first, thins the match vector, and only pays decompression of the
// remaining columns for surviving tuples.
func (s *Scanner) UnpackColumn(batch *Batch, k int, m []uint32) {
	s.sizeCols(batch)
	s.unpackCol(batch, k, m)
}

// sizeCols gives the batch one column per projected attribute.
func (s *Scanner) sizeCols(batch *Batch) {
	if cap(batch.Cols) < len(s.spec.Project) {
		batch.Cols = make([]BatchCol, len(s.spec.Project))
	}
	batch.Cols = batch.Cols[:len(s.spec.Project)]
}

// Coded reports whether this chunk's ScanSpec.Codes columns travel as
// codes: whether UnpackCodes, rather than UnpackColumn, serves them.
func (s *Scanner) Coded() bool { return s.coded }

// UnpackCodes gathers the codes of every ScanSpec.Codes column of a coded
// chunk at the given positions into the batch, with the attribute that
// decodes them. A column UnpackColumn also serves keeps its values beside
// them, provided it was unpacked first.
func (s *Scanner) UnpackCodes(batch *Batch, m []uint32) {
	s.sizeCols(batch)
	for _, k := range s.spec.Codes {
		bc := &batch.Cols[k]
		a := &s.b.attrs[s.spec.Project[k]]
		var data []byte
		if a.Kind == types.String {
			data = a.Strs.Data
		} else {
			data = a.Ints.Data
		}
		bc.Domain = a
		bc.Codes = resize(bc.Codes, len(m))
		simd.GatherBytes(data, s.b.n, m, bc.Codes)
	}
}

func (s *Scanner) unpackCol(batch *Batch, k int, m []uint32) {
	col := s.spec.Project[k]
	bc := &batch.Cols[k]
	bc.Domain, bc.Ranged = nil, false
	if s.b == nil {
		Gather(&bc.ColumnData, &s.cols[col], m)
		return
	}
	a := &s.b.attrs[col]
	bc.Kind = a.Kind
	switch a.Kind {
	case types.Int64:
		bc.Ints = resize(bc.Ints, len(m))
		a.Ints.Gather(m, bc.Ints)
		bc.Ranged, bc.Lo, bc.Hi = !a.Ints.AllNull, a.Ints.Min, a.Ints.Max
	case types.Float64:
		bc.Floats = resize(bc.Floats, len(m))
		a.Floats.Gather(m, bc.Floats)
	default:
		bc.Strs = resize(bc.Strs, len(m))
		a.Strs.Gather(m, bc.Strs)
	}
	switch {
	case a.Validity != nil:
		bc.Nulls = resize(bc.Nulls, len(m))
		for i, p := range m {
			bc.Nulls[i] = !simd.BitmapGet(a.Validity, p)
		}
	case a.allNull():
		bc.Nulls = resize(bc.Nulls, len(m))
		for i := range bc.Nulls {
			bc.Nulls[i] = true
		}
	default:
		bc.Nulls = nil
	}
}
