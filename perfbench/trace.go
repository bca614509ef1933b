package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// A span is one timed call into a layer, recorded from the benchmark's
// own code around a call into a module's public function. Spans of one
// request share a request id; Parent is 0 for a request's root span.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every finished span in memory until the run ends. A nil
// *tracer records nothing, so untraced code paths call it freely.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
	grown uint64 // bytes allocated for the span buffer
}

const spanBytes = uint64(unsafe.Sizeof(span{}))

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open is a span that has started and not yet ended.
type open struct {
	id, parent, req uint64
	name            string
	start           int64
}

// begin starts a root span: a new request.
func (t *tracer) begin(name string) open {
	if t == nil {
		return open{}
	}
	id := t.ids.Add(1)
	return open{id: id, req: id, name: name, start: int64(time.Since(t.epoch))}
}

// child starts a span caused by parent, in parent's request.
func (t *tracer) child(parent open, name string) open {
	if t == nil {
		return open{}
	}
	return open{id: t.ids.Add(1), parent: parent.id, req: parent.req, name: name, start: int64(time.Since(t.epoch))}
}

// end finishes o and records it.
func (t *tracer) end(o open) {
	if t == nil {
		return
	}
	s := span{ID: o.id, Parent: o.parent, Req: o.req, Name: o.name, Start: o.start, End: int64(time.Since(t.epoch))}
	t.add(s)
}

// record adds an already measured span, for intervals timed elsewhere
// (a request's due time comes from the arrival schedule, not the clock
// at begin).
func (t *tracer) record(parent open, name string, start, end time.Time) open {
	if t == nil {
		return open{}
	}
	id := t.ids.Add(1)
	req := parent.req
	if parent.id == 0 {
		req = id
	}
	s := span{ID: id, Parent: parent.id, Req: req, Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	t.add(s)
	return open{id: id, parent: parent.id, req: req, name: name, start: s.Start}
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	c := cap(t.spans)
	t.spans = append(t.spans, s)
	if cap(t.spans) != c {
		t.grown += uint64(cap(t.spans)) * spanBytes
	}
	t.mu.Unlock()
}

// allocated is the number of bytes the span buffer has allocated so far.
func (t *tracer) allocated() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.grown
}

// selfTimes returns, per span name, each span's self time in
// microseconds: its duration minus the part of its interval that its
// children cover. Overlapping children count once, and a child's time
// outside its parent's interval does not count.
func selfTimes(spans []span) map[string][]float64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		self := s.dur() - covered(s, children[s.ID])
		out[s.Name] = append(out[s.Name], float64(self)/1e3)
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// durations returns, per span name, each span's full duration in
// microseconds.
func durations(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.dur())/1e3)
	}
	return out
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
