package exec

import (
	"sort"

	"datablocks/internal/core"
	"datablocks/internal/types"
)

// topkSink is the bounded ORDER BY ... LIMIT k sink: instead of
// materializing the whole child result and sorting it, each worker keeps
// at most k rows in a columnar buffer governed by a max-heap over
// (sort keys, arrival sequence). A row enters only when it is strictly
// less than the current heap root in that order — the arrival-sequence
// tiebreak makes the kept set identical to a stable sort followed by
// truncation, so the sink is result-equivalent to Result.SortBy.
//
// The buffer holds limit+1 slots once full: slot `limit` is scratch, the
// staging area for each incoming row, so the heap comparison runs over
// uniform columnar storage with no boxing.
type topkSink struct {
	buf     *Result
	keys    []OrderKey
	limit   int
	seqs    []int64 // arrival sequence per slot (ties → earliest wins)
	heap    []int32 // max-heap of slot indexes; root = current worst row
	next    int64   // rows consumed (also the per-worker orderIn count)
	full    bool
	scratch int32
}

func newTopkSink(kinds []types.Kind, keys []OrderKey, limit int) *topkSink {
	return &topkSink{buf: NewResult(kinds), keys: keys, limit: limit}
}

// less orders slots by (keys, arrival sequence); a strict total order,
// since sequences are distinct.
func (s *topkSink) less(a, b int32) bool {
	if c := s.buf.compareRowsAt(s.keys, int(a), int(b)); c != 0 {
		return c < 0
	}
	return s.seqs[a] < s.seqs[b]
}

func (s *topkSink) siftDown(i int) {
	h := s.heap
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		big := l
		if r := l + 1; r < len(h) && s.less(h[big], h[r]) {
			big = r
		}
		if !s.less(h[i], h[big]) {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// becomeFull switches from the filling phase to bounded operation: append
// the scratch slot and heapify the limit resident rows in O(limit).
func (s *topkSink) becomeFull() {
	s.appendZeroRow()
	s.scratch = int32(s.limit)
	s.heap = make([]int32, s.limit)
	for i := range s.heap {
		s.heap[i] = int32(i)
	}
	for i := s.limit/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
	s.full = true
}

func (s *topkSink) appendZeroRow() {
	for i := range s.buf.Cols {
		c := &s.buf.Cols[i]
		c.Nulls = append(c.Nulls, false)
		switch c.Kind {
		case types.Int64:
			c.Ints = append(c.Ints, 0)
		case types.Float64:
			c.Floats = append(c.Floats, 0)
		default:
			c.Strs = append(c.Strs, "")
		}
	}
	s.buf.n++
	s.seqs = append(s.seqs, 0)
}

// fill makes batch row br resident in a new slot, while the buffer holds
// fewer than limit rows.
func (s *topkSink) fill(b *core.Batch, br int) {
	s.appendZeroRow()
	s.buf.writeRowFromBatch(s.buf.n-1, b, br)
	s.seqs[s.buf.n-1] = s.next
	s.next++
	if s.buf.n == s.limit {
		s.becomeFull()
	}
}

// offer routes a staged row: during filling it is already resident (slot
// buf.n-1); when full the caller staged it in scratch and offer replaces
// the heap root if the row beats it.
func (s *topkSink) offerScratch() {
	s.seqs[s.scratch] = s.next
	s.next++
	root := s.heap[0]
	if s.less(s.scratch, root) {
		s.buf.copyRow(int(root), int(s.scratch))
		s.seqs[root] = s.seqs[s.scratch]
		s.siftDown(0)
	}
}

// consumeBatch is the sink interface.
//
//dbvet:hotpath
func (s *topkSink) consumeBatch(b *core.Batch) {
	r := 0
	for ; !s.full && r < b.N; r++ {
		s.fill(b, r)
	}
	for ; r < b.N; r++ {
		s.buf.writeRowFromBatch(int(s.scratch), b, r)
		s.offerScratch()
	}
}

// finalize sorts the resident rows by (keys, arrival) and compacts the
// buffer in place (dropping the scratch slot); the returned result is the
// worker's exact top-k in output order.
func (s *topkSink) finalize() *Result {
	n := s.buf.n
	if s.full {
		n = s.limit
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// (keys, seq) is a strict total order, so a non-stable sort of the
	// slot indexes is deterministic.
	sort.Slice(idx, func(a, b int) bool { return s.less(int32(idx[a]), int32(idx[b])) })
	s.buf.permute(idx)
	return s.buf
}
