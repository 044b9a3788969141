package main

import "time"

// meter collects what the load-generating goroutines of one run
// complete inside its timed part [t0, end). A traced run splits the
// timed part in two: ops that end before split are the untraced
// segment, the rest the traced one, and only those get spans. Each
// goroutine records into its own lane, so recording takes no lock.
type meter struct {
	t0, split, stop int64 // ns since epoch; split == stop in an untraced run
	traced          bool
	lanes           []*lane
}

type segment struct {
	ops int64
	h   hist
}

type lane struct {
	m         *meter
	seg       [2]segment // untraced, traced
	attempted int64
	failed    int64
	spans     *spanLane
}

// newMeter times [t0, t0+window); with traced, the second half of it
// is the traced segment.
func newMeter(t0 int64, window time.Duration, traced bool) *meter {
	m := &meter{t0: t0, stop: t0 + int64(window), traced: traced}
	m.split = m.stop
	if traced {
		m.split = t0 + int64(window)/2
	}
	return m
}

// newSpanMeter times [t0, t0+window) with spans on all of it: the
// ladder's short runs have no untraced half.
func newSpanMeter(t0 int64, window time.Duration) *meter {
	m := newMeter(t0, window, true)
	m.split = t0
	return m
}

// end is when time-boxed loops stop issuing.
func (m *meter) end() int64 { return m.stop }

// cut ends the timed part early, at the moment fixed work completed;
// call it after the goroutines have finished.
func (m *meter) cut(at int64) {
	if at < m.stop {
		m.stop = at
	}
	if m.split > m.stop {
		m.split = m.stop
	}
}

// lane adds a recording lane; call before the goroutines start.
func (m *meter) lane(tr *tracer) *lane {
	l := &lane{m: m}
	if tr != nil {
		l.spans = tr.lane()
	}
	m.lanes = append(m.lanes, l)
	return l
}

// done records one completed, verified operation that was issued at
// start and completed at end.
func (l *lane) done(name spanName, start, end int64) { l.doneN(name, start, end, 1) }

// doneN records one timed call that completed n work units (the
// cells of a simulation grid): n ops for throughput, one latency
// sample, one span.
func (l *lane) doneN(name spanName, start, end int64, n int) {
	l.attempted += int64(n)
	m := l.m
	if l.spans != nil && m.traced && start >= m.split {
		l.spans.add(name, start, end, 1)
	}
	if end < m.t0 || end >= m.stop {
		return
	}
	s := &l.seg[0]
	if end >= m.split {
		s = &l.seg[1]
	}
	s.ops += int64(n)
	s.h.add(end - start)
}

// fail records an operation that failed, timed out or returned the
// wrong payload.
func (l *lane) fail() { l.failN(1, 1) }

// failN records n attempted units of which bad failed.
func (l *lane) failN(n, bad int) {
	l.attempted += int64(n)
	l.failed += int64(bad)
}

// windowStats summarises one segment of a meter: throughput over the
// segment's length, and the latency quantiles of every op in it.
type windowStats struct {
	Seconds float64
	OpsPerS float64
	P50Us   float64
	P99Us   float64
	Samples uint64
}

// p99MinSamples is the sample count a 99th percentile needs so that
// at least ten samples lie beyond it.
const p99MinSamples = 1000

// stats summarises the untraced (0) or traced (1) segment.
func (m *meter) stats(seg int) windowStats {
	from, to := m.t0, m.split
	if seg == 1 {
		from, to = m.split, m.stop
	}
	var ops int64
	h := new(hist)
	for _, l := range m.lanes {
		ops += l.seg[seg].ops
		h.merge(&l.seg[seg].h)
	}
	ws := windowStats{Seconds: float64(to-from) / 1e9, Samples: h.n}
	ws.OpsPerS = float64(ops) / ws.Seconds
	ws.P50Us, ws.P99Us = h.quantile(0.50)/1e3, h.quantile(0.99)/1e3
	return ws
}

// totals sums attempted and failed operations over the lanes.
func (m *meter) totals() (attempted, failed int64) {
	for _, l := range m.lanes {
		attempted += l.attempted
		failed += l.failed
	}
	return attempted, failed
}
