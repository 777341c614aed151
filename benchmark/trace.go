package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the harness made into a layer. Start and End are
// nanoseconds since the tracer's epoch; Parent is the ID of the span that
// caused this one (0 for a root); spans of one request (a query cycle, a
// transaction) share Request.
type span struct {
	ID      uint64 `json:"id"`
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Parent  uint64 `json:"parent"`
	Request uint64 `json:"request"`
}

// tracer keeps the spans of one client goroutine in memory. A nil tracer
// records nothing, so untraced runs pay one nil check per call site.
// Each client owns its tracer; they are merged when the run ends.
type tracer struct {
	epoch  time.Time
	client uint64
	seq    uint64
	spans  []span
}

func newTracer(epoch time.Time, client int) *tracer {
	return &tracer{epoch: epoch, client: uint64(client)}
}

// begin opens a span and returns its index for end.
func (t *tracer) begin(name string, parent, request uint64) int {
	if t == nil {
		return -1
	}
	t.seq++
	t.spans = append(t.spans, span{
		ID:      t.client<<48 | t.seq,
		Name:    name,
		Start:   int64(time.Since(t.epoch)),
		Parent:  parent,
		Request: request,
	})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.epoch))
}

// id returns the span ID at index i (0 on a nil tracer), for use as the
// parent of child spans.
func (t *tracer) id(i int) uint64 {
	if t == nil {
		return 0
	}
	return t.spans[i].ID
}

// selfTimes returns, per span name, the total self time: each span's
// duration minus the part of its interval that its child spans cover
// (overlapping children are counted once).
func selfTimes(spans []span) map[string]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, hi := int64(0), s.Start
		for _, k := range kids {
			lo, end := k.Start, k.End
			if lo < hi {
				lo = hi
			}
			if end > s.End {
				end = s.End
			}
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[s.Name] += (s.End - s.Start) - covered
	}
	return self
}

// traceFile is what a traced run leaves behind for inspection.
type traceFile struct {
	Workload string           `json:"workload"`
	Seed     uint64           `json:"seed"`
	SelfNs   map[string]int64 `json:"self_ns_by_name"`
	Spans    []span           `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
