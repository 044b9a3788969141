package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"sync"
)

// The traced run keeps one span around every call the harness makes
// into a layer: {op_id, layer, name, start_ns, end_ns, parent}. Spans
// stay in memory while the run measures and are written to
// trace.jsonl when it ends. They are recorded from this package only;
// spans inside the program under test are a later change.

// spanName indexes the tracer's (layer, name) table, so a span in a
// hot loop is five words and no strings.
type spanName uint16

type span struct {
	id         uint64
	start, end int64
	parent     uint64
	n          int32 // calls covered; above 1 where a call is too short to time alone
	name       spanName
}

// laneCap bounds the spans one goroutine keeps: a direct-space loop
// completes millions of ops in a traced window, and the per-layer
// numbers need no more than this many of them. Spans beyond it are
// counted, not kept.
const laneCap = 1 << 14

type spanLane struct {
	base    uint64 // lane number in the high bits of every op_id
	parent  uint64
	spans   []span
	dropped int64
}

type tracer struct {
	mu     sync.Mutex
	layers []string
	names  []string
	lanes  []*spanLane
	parent uint64 // parent given to lanes created from now on
}

func newTracer() *tracer { return &tracer{} }

// name registers a (layer, name) pair; call before the goroutines
// that use it start. A nil tracer (an untraced run) names nothing.
func (t *tracer) name(layer, name string) spanName {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.names {
		if t.layers[i] == layer && t.names[i] == name {
			return spanName(i)
		}
	}
	t.layers = append(t.layers, layer)
	t.names = append(t.names, name)
	return spanName(len(t.names) - 1)
}

func (t *tracer) lane() *spanLane {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &spanLane{base: uint64(len(t.lanes)+1) << 40, parent: t.parent, spans: make([]span, 0, 1024)}
	t.lanes = append(t.lanes, l)
	return l
}

// root opens a span that later lanes hang their spans under (one per
// traced workload window, one for the ladder) and returns the
// function that closes it.
func (t *tracer) root(layer, name string) (end func()) {
	sn := t.name(layer, name)
	l := t.lane()
	l.parent = 0
	start := now()
	id := l.base | 1
	t.mu.Lock()
	t.parent = id
	t.mu.Unlock()
	return func() {
		l.spans = append(l.spans, span{id: id, start: start, end: now(), n: 1, name: sn})
		t.mu.Lock()
		t.parent = 0
		t.mu.Unlock()
	}
}

func (l *spanLane) add(name spanName, start, end int64, n int) {
	if len(l.spans) >= laneCap {
		l.dropped++
		return
	}
	l.spans = append(l.spans, span{
		id: l.base | uint64(len(l.spans)+2), start: start, end: end,
		parent: l.parent, n: int32(n), name: name,
	})
}

// perCall gathers the per-call durations of every span with the given
// name, in the lanes from fromLane on, into one histogram.
func (t *tracer) perCall(layer, name string, fromLane int) *hist {
	h := new(hist)
	for _, l := range t.lanes[fromLane:] {
		for i := range l.spans {
			s := &l.spans[i]
			if t.layers[s.name] == layer && t.names[s.name] == name && s.n > 0 {
				h.add((s.end - s.start) / int64(s.n))
			}
		}
	}
	return h
}

// writeJSONL writes every kept span, one JSON object a line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var b []byte
	for _, l := range t.lanes {
		for i := range l.spans {
			s := &l.spans[i]
			b = b[:0]
			b = append(b, `{"op_id":`...)
			b = strconv.AppendUint(b, s.id, 10)
			b = append(b, `,"layer":`...)
			b = strconv.AppendQuote(b, t.layers[s.name])
			b = append(b, `,"name":`...)
			b = strconv.AppendQuote(b, t.names[s.name])
			b = append(b, `,"start_ns":`...)
			b = strconv.AppendInt(b, s.start, 10)
			b = append(b, `,"end_ns":`...)
			b = strconv.AppendInt(b, s.end, 10)
			b = append(b, `,"parent":`...)
			b = strconv.AppendUint(b, s.parent, 10)
			b = append(b, `,"calls":`...)
			b = strconv.AppendInt(b, int64(s.n), 10)
			b = append(b, "}\n"...)
			if _, err := w.Write(b); err != nil {
				f.Close()
				return fmt.Errorf("write %s: %w", path, err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
