package space

import (
	"testing"

	"tpspace/internal/sim"
	"tpspace/internal/tuple"
)

// In-binary replica of the pre-index linear serving plane (global
// write-order list + per-type buckets, one waiter slice scanned on
// every write, O(n) waiter cancellation), kept as the benchmark
// baseline the same way the sim package keeps the old heap. Only the
// store/match/wake mechanics are replicated — leases, journal and
// crash are irrelevant to the serving-path comparison.

type linEntry struct {
	id           uint64
	t            tuple.Tuple
	prev, next   *linEntry
	tPrev, tNext *linEntry
	linked       bool
}

type linBucket struct{ head, tail *linEntry }

type linWaiter struct {
	tmpl tuple.Tuple
	take bool
	cb   func(tuple.Tuple, error)
	done bool
}

type linSpace struct {
	seq        uint64
	size       int
	head, tail *linEntry
	byType     map[string]*linBucket
	waiters    []*linWaiter
}

func newLinSpace() *linSpace {
	return &linSpace{byType: make(map[string]*linBucket)}
}

func (s *linSpace) link(e *linEntry) {
	e.prev = s.tail
	if s.tail != nil {
		s.tail.next = e
	} else {
		s.head = e
	}
	s.tail = e
	b := s.byType[e.t.Type]
	if b == nil {
		b = &linBucket{}
		s.byType[e.t.Type] = b
	}
	e.tPrev = b.tail
	if b.tail != nil {
		b.tail.tNext = e
	} else {
		b.head = e
	}
	b.tail = e
	e.linked = true
	s.size++
}

func (s *linSpace) unlink(e *linEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	b := s.byType[e.t.Type]
	if e.tPrev != nil {
		e.tPrev.tNext = e.tNext
	} else {
		b.head = e.tNext
	}
	if e.tNext != nil {
		e.tNext.tPrev = e.tPrev
	} else {
		b.tail = e.tPrev
	}
	e.prev, e.next, e.tPrev, e.tNext = nil, nil, nil, nil
	e.linked = false
	s.size--
}

func (s *linSpace) write(t tuple.Tuple) {
	stored := t.Clone()
	s.seq++
	e := &linEntry{id: s.seq, t: stored}
	consumed := false
	kept := s.waiters[:0]
	for _, w := range s.waiters {
		if w.done {
			continue
		}
		if !w.tmpl.Matches(stored) {
			kept = append(kept, w)
			continue
		}
		if w.take {
			if consumed {
				kept = append(kept, w)
				continue
			}
			consumed = true
		}
		w.done = true
		w.cb(stored.Clone(), nil)
	}
	s.waiters = kept
	if !consumed {
		s.link(e)
	}
}

func (s *linSpace) findOldest(tmpl tuple.Tuple) *linEntry {
	if tmpl.Type != "" {
		b := s.byType[tmpl.Type]
		if b == nil {
			return nil
		}
		for e := b.head; e != nil; e = e.tNext {
			if tmpl.Matches(e.t) {
				return e
			}
		}
		return nil
	}
	for e := s.head; e != nil; e = e.next {
		if tmpl.Matches(e.t) {
			return e
		}
	}
	return nil
}

func (s *linSpace) takeIfExists(tmpl tuple.Tuple) (tuple.Tuple, bool) {
	if e := s.findOldest(tmpl); e != nil {
		s.unlink(e)
		return e.t, true
	}
	return tuple.Tuple{}, false
}

func (s *linSpace) park(tmpl tuple.Tuple, take bool, cb func(tuple.Tuple, error)) *linWaiter {
	w := &linWaiter{tmpl: tmpl, take: take, cb: cb}
	s.waiters = append(s.waiters, w)
	return w
}

// cancel is the old slice-splice waiter cancellation: O(waiters).
func (s *linSpace) cancel(w *linWaiter) {
	for i, x := range s.waiters {
		if x == w {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			return
		}
	}
}

// Workload shapes. Entries and templates share one type name ("job")
// and one shape, so the old per-type bucket degenerates to a linear
// scan while staying its best case (a single-type store); the indexed
// plane must win on value signatures alone.

func benchTuple(i int) tuple.Tuple { return job("x", int64(i)) }

// nonMatching parks templates of the entry type that no benchmark
// write satisfies.
func nonMatchingTmpl(i int) tuple.Tuple { return job("wait", int64(i)) }

func fillSpace(s *Space, n int) {
	for i := 0; i < n; i++ {
		s.Write(benchTuple(i), NoLease)
	}
}

func fillLin(s *linSpace, n int) {
	for i := 0; i < n; i++ {
		s.write(benchTuple(i))
	}
}

const benchEntries = 100_000

// --- write with a cold waiter plane ---------------------------------

func BenchmarkSpaceWrite100k(b *testing.B) {
	s := New(NewRealRuntime())
	fillSpace(s, benchEntries)
	tmpl := benchTuple(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tmpl.Fields[1].Int = int64(benchEntries + i)
		s.Write(tmpl, NoLease)
	}
}

func BenchmarkLinearWrite100k(b *testing.B) {
	s := newLinSpace()
	fillLin(s, benchEntries)
	tmpl := benchTuple(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tmpl.Fields[1].Int = int64(benchEntries + i)
		s.write(tmpl)
	}
}

// --- take-hit, adversarial (youngest-first) order --------------------
//
// Taking youngest-first forces the linear bucket to scan past every
// older entry; the value index resolves each template in one bucket
// probe. The indexed loop must also run allocation-free (the
// acceptance gate in scripts/check.sh).

func BenchmarkSpaceTakeHit100k(b *testing.B) {
	s := New(NewRealRuntime())
	fillSpace(s, benchEntries)
	tmpl := benchTuple(0)
	idx := benchEntries
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if idx == 0 {
			b.StopTimer()
			fillSpace(s, benchEntries)
			idx = benchEntries
			b.StartTimer()
		}
		idx--
		tmpl.Fields[1].Int = int64(idx)
		if _, ok := s.TakeIfExists(tmpl); !ok {
			b.Fatal("miss on a present entry")
		}
	}
}

// BenchmarkSpaceTakeKindHit100k is the kind-routed wildcard take: a
// typed template with a wildcard field on an 8-way sharded space. With
// kind routing the template homes to one shard (one lock, one kind
// bucket probe); the legacy value-routed store would lock all eight
// shards per take. Must run allocation-free (gated in
// scripts/check.sh).
func BenchmarkSpaceTakeKindHit100k(b *testing.B) {
	s := New(NewRealRuntime(), WithShards(8))
	fillSpace(s, benchEntries)
	tmpl := anyJob()
	left := benchEntries
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if left == 0 {
			b.StopTimer()
			fillSpace(s, benchEntries)
			left = benchEntries
			b.StartTimer()
		}
		left--
		if _, ok := s.TakeIfExists(tmpl); !ok {
			b.Fatal("miss on a present entry")
		}
	}
}

func BenchmarkLinearTakeHit100k(b *testing.B) {
	s := newLinSpace()
	fillLin(s, benchEntries)
	tmpl := benchTuple(0)
	idx := benchEntries
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if idx == 0 {
			b.StopTimer()
			fillLin(s, benchEntries)
			idx = benchEntries
			b.StartTimer()
		}
		idx--
		tmpl.Fields[1].Int = int64(idx)
		if _, ok := s.takeIfExists(tmpl); !ok {
			b.Fatal("miss on a present entry")
		}
	}
}

// --- take-miss -------------------------------------------------------

func BenchmarkSpaceTakeMiss100k(b *testing.B) {
	s := New(NewRealRuntime())
	fillSpace(s, benchEntries)
	tmpl := benchTuple(benchEntries + 1) // never written
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.TakeIfExists(tmpl); ok {
			b.Fatal("hit on an absent entry")
		}
	}
}

func BenchmarkLinearTakeMiss100k(b *testing.B) {
	s := newLinSpace()
	fillLin(s, benchEntries)
	tmpl := benchTuple(benchEntries + 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.takeIfExists(tmpl); ok {
			b.Fatal("hit on an absent entry")
		}
	}
}

// --- write through 10^4 parked waiters (the acceptance workload) -----
//
// 10^5 live entries and 10^4 parked takers whose concrete templates
// never match. The old plane pays a full waiter-slice scan per write;
// the subscription index probes three empty buckets.

const benchWaiters = 10_000

func BenchmarkSpaceWriteParkedWaiters100k(b *testing.B) {
	s := New(NewRealRuntime())
	fillSpace(s, benchEntries)
	sink := func(tuple.Tuple, bool) {}
	for i := 0; i < benchWaiters; i++ {
		s.Take(nonMatchingTmpl(i), sim.Forever, sink)
	}
	tmpl := benchTuple(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tmpl.Fields[1].Int = int64(benchEntries + i)
		s.Write(tmpl, NoLease)
	}
}

func BenchmarkLinearWriteParkedWaiters100k(b *testing.B) {
	s := newLinSpace()
	fillLin(s, benchEntries)
	sink := func(tuple.Tuple, error) {}
	for i := 0; i < benchWaiters; i++ {
		s.park(nonMatchingTmpl(i), true, sink)
	}
	tmpl := benchTuple(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tmpl.Fields[1].Int = int64(benchEntries + i)
		s.write(tmpl)
	}
}

// --- waiter wake through 10^4 parked strangers -----------------------
//
// Each iteration parks one matching taker and writes its tuple: the
// write must find and wake exactly that waiter past 10^4 parked
// non-matching ones.

func BenchmarkSpaceWaiterWake10k(b *testing.B) {
	s := New(NewRealRuntime())
	sink := func(tuple.Tuple, bool) {}
	for i := 0; i < benchWaiters; i++ {
		s.Take(nonMatchingTmpl(i), sim.Forever, sink)
	}
	hit := job("hit", 0)
	woken := 0
	wake := func(tuple.Tuple, bool) { woken++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Take(hit, sim.Forever, wake)
		s.Write(hit, NoLease)
	}
	b.StopTimer()
	if woken != b.N {
		b.Fatalf("woke %d of %d", woken, b.N)
	}
}

func BenchmarkLinearWaiterWake10k(b *testing.B) {
	s := newLinSpace()
	sink := func(tuple.Tuple, error) {}
	for i := 0; i < benchWaiters; i++ {
		s.park(nonMatchingTmpl(i), true, sink)
	}
	hit := job("hit", 0)
	woken := 0
	wake := func(tuple.Tuple, error) { woken++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.park(hit, true, wake)
		s.write(hit)
	}
	b.StopTimer()
	if woken != b.N {
		b.Fatalf("woke %d of %d", woken, b.N)
	}
}

// --- waiter cancellation: O(1) vs parked population ------------------
//
// The same park+cancel op at two populations two orders of magnitude
// apart; flat ns/op is the O(1) claim (the old slice splice scaled
// with K — see the Linear pair).

func benchSpaceCancel(b *testing.B, parked int) {
	s := New(NewRealRuntime())
	sink := func(tuple.Tuple, bool) {}
	for i := 0; i < parked; i++ {
		s.Take(nonMatchingTmpl(i), sim.Forever, sink)
	}
	cb := func(tuple.Tuple, error) {}
	tmpl := job("solo", 1)
	class, key := classify(tmpl)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := &sub{tmpl: tmpl, class: class, key: key, take: true, cb: cb}
		w.seq = s.subSeq.Add(1)
		w.nodes = make([]subNode, 1)
		sh := s.shardFor(key)
		sh.mu.Lock()
		sh.addSub(w, &w.nodes[0])
		sh.mu.Unlock()
		if !s.cancelSub(w) {
			b.Fatal("cancel failed")
		}
	}
}

func BenchmarkSpaceWaiterCancel100(b *testing.B) { benchSpaceCancel(b, 100) }
func BenchmarkSpaceWaiterCancel10k(b *testing.B) { benchSpaceCancel(b, benchWaiters) }

func benchLinearCancel(b *testing.B, parked int) {
	s := newLinSpace()
	sink := func(tuple.Tuple, error) {}
	for i := 0; i < parked; i++ {
		s.park(nonMatchingTmpl(i), true, sink)
	}
	tmpl := job("solo", 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := s.park(tmpl, true, sink)
		s.cancel(w)
	}
}

func BenchmarkLinearWaiterCancel100(b *testing.B) { benchLinearCancel(b, 100) }
func BenchmarkLinearWaiterCancel10k(b *testing.B) { benchLinearCancel(b, benchWaiters) }

// --- 10^6-entry scale (indexed only: the linear plane needs minutes) -

func BenchmarkSpaceTakeHit1M(b *testing.B) {
	const n = 1_000_000
	s := New(NewRealRuntime())
	fillSpace(s, n)
	tmpl := benchTuple(0)
	idx := n
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if idx == 0 {
			b.StopTimer()
			fillSpace(s, n)
			idx = n
			b.StartTimer()
		}
		idx--
		tmpl.Fields[1].Int = int64(idx)
		if _, ok := s.TakeIfExists(tmpl); !ok {
			b.Fatal("miss on a present entry")
		}
	}
}

func BenchmarkSpaceWrite1M(b *testing.B) {
	const n = 1_000_000
	s := New(NewRealRuntime())
	fillSpace(s, n)
	tmpl := benchTuple(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tmpl.Fields[1].Int = int64(n + i)
		s.Write(tmpl, NoLease)
	}
}

// TestTakeHitFastPathZeroAlloc pins the acceptance criterion in a
// test (the bench gate in scripts/check.sh re-checks it from the
// emitted JSON): a concrete-template take hit allocates nothing.
func TestTakeHitFastPathZeroAlloc(t *testing.T) {
	s := New(NewRealRuntime())
	fillSpace(s, 1000)
	tmpl := benchTuple(0)
	idx := 1000
	allocs := testing.AllocsPerRun(500, func() {
		idx--
		tmpl.Fields[1].Int = int64(idx)
		if _, ok := s.TakeIfExists(tmpl); !ok {
			t.Fatal("miss")
		}
	})
	if allocs != 0 {
		t.Fatalf("take-hit fast path allocates %.1f/op, want 0", allocs)
	}
}

// TestWatchedPutAllocs bounds the write fan-out: a Put that eight
// notify watchers observe and that wakes one parked take (with a
// timeout armed) shares one tuple copy among the watchers and runs
// them from one callback, so the whole park-then-wake cycle stays
// within 20 allocations; a Put nobody watches, taken straight back,
// costs the two its tuple storage needs.
func TestWatchedPutAllocs(t *testing.T) {
	s := New(NewRealRuntime(), WithShards(4))
	var seen int
	for i := 0; i < 8; i++ {
		s.Notify(anyJob(), func(tuple.Tuple) { seen++ })
	}
	e, tmpl := job("fft", 1), anyJob()
	var woke int
	wake := func(_ tuple.Tuple, ok bool) {
		if ok {
			woke++
		}
	}
	watched := testing.AllocsPerRun(200, func() {
		s.Take(tmpl, 20*sim.Second, wake)
		if err := s.Put(e, NoLease); err != nil {
			t.Fatal(err)
		}
	})
	if woke != seen/8 || woke == 0 {
		t.Fatalf("woke %d takes, watchers saw %d writes", woke, seen/8)
	}
	if watched > 20 {
		t.Fatalf("watched Put + parked take allocates %.1f/op, want <= 20", watched)
	}

	u := New(NewRealRuntime(), WithShards(4))
	plain := job("plain", 7)
	unwatched := testing.AllocsPerRun(200, func() {
		if err := u.Put(plain, NoLease); err != nil {
			t.Fatal(err)
		}
		if _, ok := u.TakeIfExists(plain); !ok {
			t.Fatal("miss")
		}
	})
	t.Logf("allocs/op: watched Put + parked take %.0f, unwatched Put + TakeIfExists %.0f", watched, unwatched)
	if unwatched > 2 {
		t.Fatalf("unwatched Put + TakeIfExists allocates %.1f/op, want <= 2", unwatched)
	}
}
