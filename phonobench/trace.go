package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of the call. Names are "<layer>.<operation>", with
// the layers named after the repository's modules (network, scenario,
// search, core, runner, client, service, store, sweep, fleet).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"` // root span of the operation
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // from the tracer's epoch
	End    int64  `json:"end_ns"`
	Status int    `json:"status,omitempty"` // HTTP status of route spans
	Node   string `json:"node,omitempty"`   // server host of route spans
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so the measured code paths are
// the same with tracing on and off.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

type spanKey struct{}

// spanCtx is the span a context carries: the parent of spans begun
// under it, and the operation they belong to.
type spanCtx struct{ id, req int64 }

// openSpan is a span that has begun and not yet ended.
type openSpan struct {
	t *tracer
	s span
}

// begin opens a span named name as a child of the span ctx carries (a
// new operation when it carries none) and returns the context that
// parents further spans under it.
func (t *tracer) begin(ctx context.Context, name string) (context.Context, *openSpan) {
	if t == nil {
		return ctx, nil
	}
	id := t.next.Add(1)
	s := span{ID: id, Req: id, Name: name}
	if p, ok := ctx.Value(spanKey{}).(spanCtx); ok {
		s.Parent, s.Req = p.id, p.req
	}
	s.Start = int64(time.Since(t.epoch))
	return context.WithValue(ctx, spanKey{}, spanCtx{id: id, req: s.Req}), &openSpan{t: t, s: s}
}

// end closes the span and keeps it.
func (o *openSpan) end() { o.endWith(0, "") }

// endWith closes a route span with its HTTP status and server host.
func (o *openSpan) endWith(status int, node string) {
	if o == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.epoch))
	o.s.Status, o.s.Node = status, node
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// snapshot returns the spans recorded so far, ordered by start.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// named returns the durations, in seconds, of the spans called name.
func named(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.seconds())
		}
	}
	return out
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval that its child spans cover. Children
// that overlap each other are counted once; parts of a child outside
// the parent's interval are not counted.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := append([]span(nil), children[s.ID]...)
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := int64(0)
		cur := s.Start // everything before cur is already counted
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}

// writeSpans writes the spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
