package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share Op; Parent links a span to the span that caused it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Op     int    `json:"op"` // -1 when the span belongs to no single operation
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op, so timed code calls it
// unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span at the current time and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op, Start: now, End: now})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a span whose bounds were measured elsewhere, such as an
// open-loop operation that starts at its due time rather than its send
// time.
func (t *tracer) record(name string, parent, op int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// selfTimes returns, per span, its duration minus the part of it that
// its child spans cover (children are clipped to the parent, and
// overlapping children count once).
func selfTimes(spans []span) []int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, reach := int64(0), s.Start
		for _, c := range ivs {
			lo, hi := max(c.lo, reach), min(c.hi, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = (s.End - s.Start) - covered
	}
	return out
}

// write stores the spans and the self time summed per span name as
// JSON at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	byName := make(map[string]int64)
	for i, s := range spans {
		byName[s.Name] += self[i]
	}
	b, err := json.Marshal(map[string]any{"spans": spans, "self_ns_by_name": byName})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
