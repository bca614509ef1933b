package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Two overlapping children covering [10, 50): 40 counted once.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},
		// A disjoint child [60, 70) and one running past the parent's
		// end, of which only [90, 100) counts.
		{ID: 4, Parent: 1, Name: "c", Start: 60, End: 70},
		{ID: 5, Parent: 1, Name: "d", Start: 90, End: 130},
		// A grandchild inside a: it reduces a's self time, not root's.
		{ID: 6, Parent: 2, Name: "e", Start: 15, End: 25},
		// A child of another request's span does not touch root.
		{ID: 7, Name: "other", Start: 0, End: 10},
		{ID: 8, Parent: 7, Name: "f", Start: 0, End: 10},
	}
	self := selfTimes(spans)
	want := map[string]float64{"root": 40, "a": 20, "b": 20, "c": 10, "d": 40, "e": 10, "other": 0, "f": 10}
	for name, ns := range want {
		got := self[name]
		if len(got) != 1 || math.Abs(got[0]-ns/1e3) > 1e-12 {
			t.Errorf("self time of %s = %v µs, want %v", name, got, ns/1e3)
		}
	}
}

func TestCoveredNested(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 90}, {Start: 20, End: 30}, {Start: 40, End: 95}, {Start: -5, End: 2}}
	if got := covered(parent, kids); got != 87 {
		t.Fatalf("covered = %d, want 87", got)
	}
	if got := covered(parent, nil); got != 0 {
		t.Fatalf("covered with no children = %d", got)
	}
}

func TestTracerSpans(t *testing.T) {
	var none *tracer
	none.end(none.child(none.begin("x"), "y")) // a nil tracer records nothing and does not panic

	tr := newTracer()
	root := tr.begin("request")
	c := tr.child(root, "layer")
	time.Sleep(time.Millisecond)
	tr.end(c)
	start := time.Now()
	tr.record(root, "handler", start, start.Add(time.Millisecond))
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	for _, s := range spans {
		if s.Req != root.id {
			t.Errorf("span %s in request %d, want %d", s.Name, s.Req, root.id)
		}
		if s.Name != "request" && s.Parent != root.id {
			t.Errorf("span %s has parent %d, want %d", s.Name, s.Parent, root.id)
		}
	}
	if self := selfTimes(spans)["request"][0]; self >= durations(spans)["request"][0] {
		t.Errorf("root self time %v not below its duration", self)
	}
}
