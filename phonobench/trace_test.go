package main

import (
	"context"
	"testing"
)

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		// Overlapping children count once: [10, 50] covers 40.
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},
		// A child running past its parent counts up to the parent's end.
		{ID: 4, Parent: 1, Start: 90, End: 120},
		// A grandchild is its child's business, not the root's.
		{ID: 5, Parent: 3, Start: 25, End: 45},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 50, 2: 20, 3: 10, 4: 30, 5: 20} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestSpansNestThroughContexts(t *testing.T) {
	tr := newTracer()
	ctx, root := tr.begin(context.Background(), "client.run_scenario")
	_, child := tr.begin(ctx, "client.submit")
	child.endWith(202, "127.0.0.1:1")
	root.end()
	_, other := tr.begin(context.Background(), "store.get")
	other.end()

	spans := tr.snapshot()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	byName := map[string]span{}
	for _, s := range spans {
		byName[s.Name] = s
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	r, c, o := byName["client.run_scenario"], byName["client.submit"], byName["store.get"]
	if c.Parent != r.ID || c.Req != r.ID || r.Req != r.ID {
		t.Errorf("child %+v not nested under root %+v", c, r)
	}
	if c.Status != 202 || c.Node != "127.0.0.1:1" {
		t.Errorf("route span lost its status or node: %+v", c)
	}
	if o.Parent != 0 || o.Req != o.ID {
		t.Errorf("unrelated span %+v should start its own operation", o)
	}
}

func TestNilTracerIsANoOp(t *testing.T) {
	var tr *tracer
	ctx := context.Background()
	got, sp := tr.begin(ctx, "x")
	if got != ctx || sp != nil {
		t.Fatal("nil tracer changed the context or opened a span")
	}
	sp.end()
	if tr.snapshot() != nil {
		t.Fatal("nil tracer recorded spans")
	}
}
