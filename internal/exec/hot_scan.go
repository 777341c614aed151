package exec

import (
	"fmt"

	"datablocks/internal/core"
	"datablocks/internal/simd"
	"datablocks/internal/storage"
	"datablocks/internal/types"
)

// This file implements the interpreted vectorized scan over hot
// uncompressed chunks (Figure 6, middle path): SARGable predicates are
// evaluated on column vectors with the simd kernels, matching tuples are
// copied into a batch, and the batch is handed to the worker's consumer
// chain (whole in batch mode, tuple-at-a-time under TupleAtATime).

func (d *scanDriver) vecHot(ch *storage.ChunkView) error {
	h := ch.Hot()
	var s *scanShard
	if d.wp != nil {
		s = &d.wp.scan
	}
	// Iterate to the view's watermark: rows appended after the snapshot
	// are not part of the view.
	n := ch.Rows()
	for from := 0; from < n; from += d.vecSize {
		hi := from + d.vecSize
		if hi > n {
			hi = n
		}
		cnt := hi - from
		m := d.matches[:0]
		if d.pushSARG && len(d.scan.Preds) > 0 {
			var err error
			m, err = d.findHot(h, d.scan.Preds[0], from, cnt, m)
			if err != nil {
				return err
			}
			for _, p := range d.scan.Preds[1:] {
				if len(m) == 0 {
					break
				}
				m, err = d.reduceHot(h, p, m)
				if err != nil {
					return err
				}
			}
		} else {
			m = simd.Sequence(m, cnt, uint32(from))
		}
		if s != nil {
			s.vectors.Inc()
			if len(m) == 0 {
				// SARG predicates emptied this vector before visibility.
				s.prunedVectors.Inc()
			}
		}
		if len(m) > 0 {
			// Epoch-aware visibility: drops rows deleted at or before the
			// snapshot cutoff and update versions born after it, reading
			// the shared delete bitmap with atomic loads (zero-copy view).
			m = ch.FilterVisible(m)
		}
		if d.ep != nil && len(m) > 0 {
			m = d.earlyProbeHot(h, m)
		}
		d.matches = m
		if len(m) == 0 {
			continue
		}
		if s != nil {
			s.rowsMatched.Add(uint64(len(m)))
		}
		if d.bcons != nil {
			d.lazyPush(m, func(col int, m []uint32) {
				d.gatherHotCol(h, col, m)
			})
			continue
		}
		d.gatherHot(h, m)
		if s != nil {
			s.unpacks.Add(uint64(len(d.kinds)))
		}
		d.pushBatch()
	}
	return nil
}

// simdOp maps a SARGable operator to its kernel op.
func simdOp(op types.CompareOp) (simd.Op, bool) {
	switch op {
	case types.Eq:
		return simd.OpEq, true
	case types.Ne:
		return simd.OpNe, true
	case types.Lt:
		return simd.OpLt, true
	case types.Le:
		return simd.OpLe, true
	case types.Gt:
		return simd.OpGt, true
	case types.Ge:
		return simd.OpGe, true
	case types.Between:
		return simd.OpBetween, true
	default:
		return 0, false
	}
}

// findHot produces the initial match vector for one predicate over rows
// [from, from+cnt) of a hot chunk.
func (d *scanDriver) findHot(h *storage.HotChunk, p core.Predicate, from, cnt int, m []uint32) ([]uint32, error) {
	base := uint32(from)
	nulls := h.Nulls(p.Col)
	switch p.Op {
	case types.IsNull, types.IsNotNull:
		wantNull := p.Op == types.IsNull
		if nulls == nil {
			if wantNull {
				return m, nil
			}
			return simd.Sequence(m, cnt, base), nil
		}
		m = simd.EnsureCap(m, cnt)
		for i := 0; i < cnt; i++ {
			if nulls[from+i] == wantNull {
				m = append(m, base+uint32(i))
			}
		}
		return m, nil
	}
	kind := d.kinds[d.scan.colOrdinal(p.Col)]
	switch kind {
	case types.Int64:
		op, ok := simdOp(p.Op)
		if !ok {
			return nil, fmt.Errorf("exec: operator %v not valid on integers", p.Op)
		}
		c2 := int64(0)
		if p.Op == types.Between {
			c2 = p.Hi.Int()
		}
		m = simd.FindInt64(h.Ints(p.Col)[from:from+cnt], op, p.Lo.Int(), c2, base, m)
	case types.Float64:
		op, ok := simdOp(p.Op)
		if !ok {
			return nil, fmt.Errorf("exec: operator %v not valid on doubles", p.Op)
		}
		c2 := 0.0
		if p.Op == types.Between {
			c2 = p.Hi.Float()
		}
		m = simd.FindFloat64(h.Floats(p.Col)[from:from+cnt], op, p.Lo.Float(), c2, base, m)
	default:
		eval, err := strPredEval(p)
		if err != nil {
			return nil, err
		}
		col := h.Strs(p.Col)
		m = simd.EnsureCap(m, cnt)
		for i := 0; i < cnt; i++ {
			if eval(col[from+i]) {
				m = append(m, base+uint32(i))
			}
		}
	}
	if nulls != nil && len(m) > 0 {
		m = reduceNotNull(nulls, m)
	}
	return m, nil
}

// reduceHot shrinks an existing match vector by one additional predicate.
func (d *scanDriver) reduceHot(h *storage.HotChunk, p core.Predicate, m []uint32) ([]uint32, error) {
	nulls := h.Nulls(p.Col)
	switch p.Op {
	case types.IsNull, types.IsNotNull:
		wantNull := p.Op == types.IsNull
		if nulls == nil {
			if wantNull {
				return m[:0], nil
			}
			return m, nil
		}
		w := 0
		for _, pos := range m {
			if nulls[pos] == wantNull {
				m[w] = pos
				w++
			}
		}
		return m[:w], nil
	}
	kind := d.kinds[d.scan.colOrdinal(p.Col)]
	switch kind {
	case types.Int64:
		op, ok := simdOp(p.Op)
		if !ok {
			return nil, fmt.Errorf("exec: operator %v not valid on integers", p.Op)
		}
		c2 := int64(0)
		if p.Op == types.Between {
			c2 = p.Hi.Int()
		}
		m = simd.ReduceInt64(h.Ints(p.Col), op, p.Lo.Int(), c2, m)
	case types.Float64:
		op, ok := simdOp(p.Op)
		if !ok {
			return nil, fmt.Errorf("exec: operator %v not valid on doubles", p.Op)
		}
		c2 := 0.0
		if p.Op == types.Between {
			c2 = p.Hi.Float()
		}
		m = simd.ReduceFloat64(h.Floats(p.Col), op, p.Lo.Float(), c2, m)
	default:
		eval, err := strPredEval(p)
		if err != nil {
			return nil, err
		}
		col := h.Strs(p.Col)
		w := 0
		for _, pos := range m {
			if eval(col[pos]) {
				m[w] = pos
				w++
			}
		}
		m = m[:w]
	}
	if nulls != nil && len(m) > 0 {
		m = reduceNotNull(nulls, m)
	}
	return m, nil
}

// strPredEval builds a scalar evaluator for a string predicate (strings on
// hot chunks have no integer codes to vectorize over).
func strPredEval(p core.Predicate) (func(string) bool, error) {
	c := p.Lo.Str()
	switch p.Op {
	case types.Eq:
		return func(s string) bool { return s == c }, nil
	case types.Ne:
		return func(s string) bool { return s != c }, nil
	case types.Lt:
		return func(s string) bool { return s < c }, nil
	case types.Le:
		return func(s string) bool { return s <= c }, nil
	case types.Gt:
		return func(s string) bool { return s > c }, nil
	case types.Ge:
		return func(s string) bool { return s >= c }, nil
	case types.Between:
		hi := p.Hi.Str()
		return func(s string) bool { return s >= c && s <= hi }, nil
	case types.Prefix:
		return func(s string) bool { return len(s) >= len(c) && s[:len(c)] == c }, nil
	default:
		return nil, fmt.Errorf("exec: operator %v not valid on strings", p.Op)
	}
}

// reduceNotNull drops match positions whose value is NULL (value predicates
// never match NULL).
func reduceNotNull(nulls []bool, m []uint32) []uint32 {
	w := 0
	for _, pos := range m {
		if !nulls[pos] {
			m[w] = pos
			w++
		}
	}
	return m[:w]
}

// gatherHot copies the matched rows of the projected columns into the
// driver's batch (the "copying of matches" of Figure 6).
func (d *scanDriver) gatherHot(h *storage.HotChunk, m []uint32) {
	b := &d.batch
	b.N = len(m)
	b.Pos = append(b.Pos[:0], m...)
	for i := range d.scan.Cols {
		d.gatherHotCol(h, i, m)
	}
}

// gatherHotCol copies one projected column's matched rows into the batch.
func (d *scanDriver) gatherHotCol(h *storage.HotChunk, k int, m []uint32) {
	b := &d.batch
	if cap(b.Cols) < len(d.scan.Cols) {
		b.Cols = make([]core.BatchCol, len(d.scan.Cols))
	}
	b.Cols = b.Cols[:len(d.scan.Cols)]
	relCol := d.scan.Cols[k]
	bc := &b.Cols[k]
	bc.Kind = d.kinds[k]
	switch d.kinds[k] {
	case types.Int64:
		if cap(bc.Ints) < len(m) {
			bc.Ints = make([]int64, len(m))
		}
		bc.Ints = bc.Ints[:len(m)]
		col := h.Ints(relCol)
		for j, p := range m {
			bc.Ints[j] = col[p]
		}
	case types.Float64:
		if cap(bc.Floats) < len(m) {
			bc.Floats = make([]float64, len(m))
		}
		bc.Floats = bc.Floats[:len(m)]
		col := h.Floats(relCol)
		for j, p := range m {
			bc.Floats[j] = col[p]
		}
	default:
		if cap(bc.Strs) < len(m) {
			bc.Strs = make([]string, len(m))
		}
		bc.Strs = bc.Strs[:len(m)]
		col := h.Strs(relCol)
		for j, p := range m {
			bc.Strs[j] = col[p]
		}
	}
	if nulls := h.Nulls(relCol); nulls != nil {
		if cap(bc.Nulls) < len(m) {
			bc.Nulls = make([]bool, len(m))
		}
		bc.Nulls = bc.Nulls[:len(m)]
		for j, p := range m {
			bc.Nulls[j] = nulls[p]
		}
	} else {
		bc.Nulls = nil
	}
}
