package space

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"tpspace/internal/sim"
	"tpspace/internal/tuple"
)

func simSharded(n int) (*sim.Kernel, *Space) {
	k := sim.NewKernel(1)
	return k, New(SimRuntime{K: k}, WithShards(n))
}

func TestWithShardsConfiguration(t *testing.T) {
	_, s1 := simSpace()
	if s1.Shards() != 1 {
		t.Fatalf("default shards = %d", s1.Shards())
	}
	_, s4 := simSharded(4)
	if s4.Shards() != 4 {
		t.Fatalf("WithShards(4) shards = %d", s4.Shards())
	}
	if _, s := simSharded(0); s.Shards() != 1 {
		t.Fatalf("WithShards(0) shards = %d", s.Shards())
	}
}

// TestShardedTakersServedFIFO is TestTakersServedFIFO with wildcard
// templates parked across every shard: registration order must still
// decide who wakes, whichever shard the writes hash to.
func TestShardedTakersServedFIFO(t *testing.T) {
	_, s := simSharded(4)
	var order []int
	for i := 0; i < 6; i++ {
		i := i
		s.Take(anyJob(), sim.Forever, func(tp tuple.Tuple, ok bool) {
			if ok {
				order = append(order, i)
			}
		})
	}
	for i := 0; i < 6; i++ {
		// Under default kind routing these share a home shard; under
		// WithValueRouting they would spread. Either way registration
		// order decides the winner.
		s.Write(job("x", int64(i)), NoLease)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("takers served out of order: %v", order)
		}
	}
	if len(order) != 6 {
		t.Fatalf("served %d of 6", len(order))
	}
}

// TestShardedConcreteWaiterHomed checks a wildcard-free template
// parks on one shard only and is still woken by its matching write.
func TestShardedConcreteWaiterHomed(t *testing.T) {
	_, s := simSharded(4)
	w := &sub{tmpl: job("fft", 7), take: true, cb: func(tuple.Tuple, error) {}}
	w.class, w.key = classify(w.tmpl)
	if w.class != subValue {
		t.Fatalf("concrete template classified %v", w.class)
	}
	got := 0
	s.Take(job("fft", 7), sim.Forever, func(tp tuple.Tuple, ok bool) {
		if ok && tp.Fields[1].Int == 7 {
			got++
		}
	})
	parked := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		for n := sh.allHead; n != nil; n = n.aNext {
			parked++
		}
		sh.mu.Unlock()
	}
	if parked != 1 {
		t.Fatalf("concrete waiter parked on %d shards, want 1", parked)
	}
	s.Write(job("fft", 7), NoLease)
	if got != 1 {
		t.Fatalf("homed waiter not woken: %d", got)
	}
}

// TestShardedWildcardWaiterKindHomed checks the tentpole routing
// property: under default kind routing a typed template with wildcard
// fields parks on exactly one shard (its kind home) and is woken by a
// matching write, which must land on the same shard. Under legacy
// value routing the same template parks on every shard.
func TestShardedWildcardWaiterKindHomed(t *testing.T) {
	parkedNodes := func(s *Space) int {
		parked := 0
		for _, sh := range s.shards {
			sh.mu.Lock()
			for n := sh.allHead; n != nil; n = n.aNext {
				parked++
			}
			sh.mu.Unlock()
		}
		return parked
	}

	k := sim.NewKernel(1)
	s := New(SimRuntime{K: k}, WithShards(4))
	got := 0
	s.Take(anyJob(), sim.Forever, func(tp tuple.Tuple, ok bool) {
		if ok {
			got++
		}
	})
	if p := parkedNodes(s); p != 1 {
		t.Fatalf("kind-routed wildcard waiter parked on %d shards, want 1", p)
	}
	s.Write(job("fft", 7), NoLease)
	if got != 1 {
		t.Fatalf("kind-homed waiter not woken: %d", got)
	}

	k2 := sim.NewKernel(1)
	legacy := New(SimRuntime{K: k2}, WithShards(4), WithValueRouting())
	legacy.Take(anyJob(), sim.Forever, func(tuple.Tuple, bool) {})
	if p := parkedNodes(legacy); p != 4 {
		t.Fatalf("value-routed wildcard waiter parked on %d shards, want 4", p)
	}

	// An untyped template stays on the all-shard path in both modes.
	k3 := sim.NewKernel(1)
	s3 := New(SimRuntime{K: k3}, WithShards(4))
	s3.Take(tuple.New("", tuple.AnyString("op"), tuple.AnyInt("n")), sim.Forever,
		func(tuple.Tuple, bool) {})
	if p := parkedNodes(s3); p != 4 {
		t.Fatalf("untyped waiter parked on %d shards, want 4", p)
	}
}

func TestShardedWriteSatisfiesAllReadersOneTaker(t *testing.T) {
	k, s := simSharded(4)
	reads, takes := 0, 0
	for i := 0; i < 3; i++ {
		s.Read(anyJob(), sim.Forever, func(tp tuple.Tuple, ok bool) {
			if ok {
				reads++
			}
		})
	}
	for i := 0; i < 2; i++ {
		s.Take(anyJob(), sim.Forever, func(tp tuple.Tuple, ok bool) {
			if ok {
				takes++
			}
		})
	}
	s.Write(job("fft", 5), NoLease)
	k.Run()
	if reads != 3 || takes != 1 {
		t.Fatalf("reads=%d takes=%d, want 3/1", reads, takes)
	}
	if s.Size() != 0 {
		t.Fatal("entry stored despite consumption")
	}
	s.Write(job("fft", 6), NoLease)
	k.Run()
	if takes != 2 {
		t.Fatalf("second take not satisfied: %d", takes)
	}
}

func TestShardedScanMergesWriteOrder(t *testing.T) {
	_, s := simSharded(4)
	for i := 0; i < 40; i++ {
		s.Write(job("x", int64(i)), NoLease)
	}
	got := s.Scan(anyJob())
	if len(got) != 40 {
		t.Fatalf("scan returned %d", len(got))
	}
	for i, tp := range got {
		if tp.Fields[1].Int != int64(i) {
			t.Fatalf("scan out of write order at %d: %v", i, tp)
		}
	}
	if n := s.Count(anyJob()); n != 40 {
		t.Fatalf("count %d", n)
	}
}

func TestShardedCrashWakesAndReplayRestores(t *testing.T) {
	k, s := simSharded(4)
	var jb bytes.Buffer
	s.SetJournal(NewJournal(&jb))
	for i := 0; i < 10; i++ {
		s.Write(job("keep", int64(i)), NoLease)
	}
	s.TakeIfExists(job("keep", 3))

	var crashed []error
	s.TakeErr(job("nope", 1), sim.Forever, func(_ tuple.Tuple, err error) {
		crashed = append(crashed, err)
	})
	s.ReadErr(anyJob2("nope"), sim.Forever, func(_ tuple.Tuple, err error) {
		crashed = append(crashed, err)
	})
	s.Crash()
	if len(crashed) != 2 || crashed[0] != ErrCrashed || crashed[1] != ErrCrashed {
		t.Fatalf("crash wake errors: %v", crashed)
	}
	if s.Size() != 0 {
		t.Fatalf("size after crash: %d", s.Size())
	}
	k.Run()

	s.journal.Flush()
	n, err := s.Replay(bytes.NewReader(jb.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 9 {
		t.Fatalf("restored %d, want 9", n)
	}
	// FIFO drain must reproduce the original write order minus the take.
	want := []int64{0, 1, 2, 4, 5, 6, 7, 8, 9}
	for _, w := range want {
		got, ok := s.TakeIfExists(anyJob())
		if !ok || got.Fields[1].Int != w {
			t.Fatalf("restored order broken: got %v want n=%d", got, w)
		}
	}
}

// anyJob2 is a typed wildcard template for a non-job type.
func anyJob2(typ string) tuple.Tuple {
	return tuple.New(typ, tuple.AnyString("op"), tuple.AnyInt("n"))
}

func TestShardedTxnAbortRestoresOrder(t *testing.T) {
	_, s := simSharded(4)
	for i := 0; i < 6; i++ {
		s.Write(job("x", int64(i)), NoLease)
	}
	tx := s.NewTxn(0)
	for i := 0; i < 3; i++ {
		if _, ok, err := tx.TakeIfExists(anyJob()); !ok || err != nil {
			t.Fatalf("txn take %d: ok=%v err=%v", i, ok, err)
		}
	}
	if s.Size() != 3 {
		t.Fatalf("held entries still visible: size=%d", s.Size())
	}
	tx.Abort()
	for i := 0; i < 6; i++ {
		got, ok := s.TakeIfExists(anyJob())
		if !ok || got.Fields[1].Int != int64(i) {
			t.Fatalf("order after abort broken at %d: %v", i, got)
		}
	}
}

func TestShardedNotify(t *testing.T) {
	_, s := simSharded(4)
	var concrete, wild int
	cancelW := s.Notify(anyJob(), func(tuple.Tuple) { wild++ })
	cancelC := s.Notify(job("fft", 1), func(tuple.Tuple) { concrete++ })
	for i := 0; i < 4; i++ {
		s.Write(job("fft", int64(i)), NoLease)
	}
	if wild != 4 || concrete != 1 {
		t.Fatalf("wild=%d concrete=%d, want 4/1", wild, concrete)
	}
	cancelW()
	cancelC()
	s.Write(job("fft", 1), NoLease)
	if wild != 4 || concrete != 1 {
		t.Fatalf("notify fired after cancel: wild=%d concrete=%d", wild, concrete)
	}
}

// TestShardedConcurrentHammer drives a sharded space from real
// goroutines under -race: concurrent writers, takers, readers,
// notifies and waiter timeouts on overlapping concrete and wildcard
// templates.
func TestShardedConcurrentHammer(t *testing.T) {
	s := New(NewRealRuntime(), WithShards(4))
	const (
		workers = 8
		perW    = 300
	)
	var wg sync.WaitGroup
	var taken, notified atomic.Uint64
	cancel := s.Notify(anyJob(), func(tuple.Tuple) { notified.Add(1) })
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perW; i++ {
				switch rng.Intn(4) {
				case 0, 1:
					s.Write(job("op", int64(rng.Intn(16))), NoLease)
				case 2:
					if _, ok := s.TakeIfExists(job("op", int64(rng.Intn(16)))); ok {
						taken.Add(1)
					}
				case 3:
					if _, ok := s.TakeIfExists(anyJob()); ok {
						taken.Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()
	cancel()
	// Conservation: everything written is either taken or still there.
	st := s.Stats()
	if int(st.Writes) != int(st.Takes)+s.Size() {
		t.Fatalf("conservation broken: writes=%d takes=%d size=%d", st.Writes, st.Takes, s.Size())
	}
	if got := int(taken.Load()); got != int(st.Takes) {
		t.Fatalf("observed takes %d vs stats %d", got, st.Takes)
	}
	if notified.Load() != st.Notifies {
		t.Fatalf("observed notifies %d vs stats %d", notified.Load(), st.Notifies)
	}
}

// TestShardedPropertyEquivalence is the observational-equivalence
// property test: for random interleavings of write (leased and
// permanent), take, read, count, lease cancel, time advance (expiry)
// and crash+replay, with wildcard and concrete templates, the indexed
// store at shards ∈ {1, 4} — under every routing mode (default kind
// routing, a one-field value prefix, and legacy full-value routing) —
// must agree with the naive linear reference at every step. A pair of
// notify subscriptions (typed wildcard and untyped) rides along: the
// event counts must equal the reference's count of matching writes,
// whichever shard each write homed to.
func TestShardedPropertyEquivalence(t *testing.T) {
	type routing struct {
		name string
		opts []Option
	}
	combos := []struct {
		shards int
		mode   routing
	}{
		{1, routing{name: "kind"}},
		{4, routing{name: "kind"}},
		{4, routing{name: "prefix1", opts: []Option{WithRoutePrefix(1)}}},
		{4, routing{name: "value", opts: []Option{WithValueRouting()}}},
	}
	prop := func(seed int64) bool {
		for _, combo := range combos {
			shards := combo.shards
			rng := rand.New(rand.NewSource(seed))
			k := sim.NewKernel(1)
			s := New(SimRuntime{K: k}, append([]Option{WithShards(shards)}, combo.mode.opts...)...)
			var jb writerBuffer
			s.SetJournal(NewJournal(&jb))
			ref := &refSpace{}
			leases := map[uint64]*Lease{}

			// Notify equivalence: events fire on write (not replay or
			// abort), so the reference count is just matching writes.
			typedTmpl := tuple.New("a", tuple.AnyInt("x"), tuple.AnyString("s"))
			anyTmpl := tuple.New("", tuple.AnyInt("x"), tuple.AnyString("s"))
			var gotTyped, gotAny, wantTyped, wantAny int
			cancelTyped := s.Notify(typedTmpl, func(tuple.Tuple) { gotTyped++ })
			cancelAny := s.Notify(anyTmpl, func(tuple.Tuple) { gotAny++ })

			for step := 0; step < 250; step++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3: // write, sometimes leased
					tp := randomTuple(rng)
					var d sim.Duration
					if rng.Intn(4) == 0 {
						d = sim.Duration(1+rng.Intn(50)) * sim.Second
					}
					l, err := s.Write(tp, d)
					if err != nil {
						t.Errorf("seed %d step %d shards %d: write: %v", seed, step, shards, err)
						return false
					}
					id := ref.write(tp, d, k.Now())
					leases[id] = l
					if typedTmpl.Matches(tp) {
						wantTyped++
					}
					if anyTmpl.Matches(tp) {
						wantAny++
					}
				case 4, 5: // take
					tmpl := randomTemplate(rng)
					got, ok := s.TakeIfExists(tmpl)
					want, wok := ref.take(tmpl)
					if ok != wok || (ok && !got.Equal(want)) {
						t.Errorf("seed %d step %d shards %d: take %v got %v,%v want %v,%v",
							seed, step, shards, tmpl, got, ok, want, wok)
						return false
					}
				case 6: // read
					tmpl := randomTemplate(rng)
					got, ok := s.ReadIfExists(tmpl)
					wi := ref.findOldest(tmpl)
					if ok != (wi >= 0) || (ok && !got.Equal(ref.entries[wi].t)) {
						t.Errorf("seed %d step %d shards %d: read mismatch (%v)", seed, step, shards, tmpl)
						return false
					}
				case 7: // time advances; leases lapse
					d := sim.Duration(1+rng.Intn(20)) * sim.Second
					k.RunFor(d)
					ref.advance(k.Now())
				case 8: // cancel a random lease handle
					if len(leases) == 0 {
						continue
					}
					ids := make([]uint64, 0, len(leases))
					for id := range leases {
						ids = append(ids, id)
					}
					id := ids[rng.Intn(len(ids))]
					got := leases[id].Cancel()
					want := ref.cancel(id)
					delete(leases, id)
					if got != want {
						t.Errorf("seed %d step %d shards %d: cancel(%d) %v want %v",
							seed, step, shards, id, got, want)
						return false
					}
				case 9: // crash, then replay the journal so far
					s.Crash()
					leases = map[uint64]*Lease{} // pre-crash handles dropped
					if s.Size() != 0 {
						t.Errorf("seed %d step %d shards %d: size %d after crash", seed, step, shards, s.Size())
						return false
					}
					s.journal.Flush()
					if _, err := s.Replay(bytes.NewReader(jb.data)); err != nil {
						t.Errorf("seed %d step %d shards %d: replay: %v", seed, step, shards, err)
						return false
					}
					ref.replay(k.Now())
					// Crash drops notify registrations (and replay fires no
					// events); re-register, as a restarted client would.
					cancelTyped = s.Notify(typedTmpl, func(tuple.Tuple) { gotTyped++ })
					cancelAny = s.Notify(anyTmpl, func(tuple.Tuple) { gotAny++ })
				}
				// Invariants checked every step.
				if s.Size() != len(ref.entries) {
					t.Errorf("seed %d step %d shards %d: size %d want %d",
						seed, step, shards, s.Size(), len(ref.entries))
					return false
				}
			}
			cancelTyped()
			cancelAny()
			if gotTyped != wantTyped || gotAny != wantAny {
				t.Errorf("seed %d shards %d mode %s: notify counts typed %d/%d any %d/%d",
					seed, shards, combo.mode.name, gotTyped, wantTyped, gotAny, wantAny)
				return false
			}
			// Final drain comparison across a wildcard-of-everything
			// template set: every remaining entry comes out in id order.
			for _, typ := range []string{"a", "b", "c"} {
				tmpl := tuple.New(typ, tuple.AnyInt("x"), tuple.AnyString("s"))
				for {
					got, ok := s.TakeIfExists(tmpl)
					want, wok := ref.take(tmpl)
					if ok != wok || (ok && !got.Equal(want)) {
						t.Errorf("seed %d shards %d: drain(%s) diverged", seed, shards, typ)
						return false
					}
					if !ok {
						break
					}
				}
			}
			if s.Size() != 0 || len(ref.entries) != 0 {
				t.Errorf("seed %d shards %d: drain incomplete: %d vs %d", seed, shards, s.Size(), len(ref.entries))
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(44))}); err != nil {
		t.Fatal(err)
	}
}

// TestReplayShuffledIDsBudget is the O(n²)-replay regression guard:
// 10k journal records whose ids arrive in shuffled order must replay
// via the index in near-linear time and bounded allocations. Absolute
// wall-clock budgets flake across CI boxes, so the time budget is a
// ratio: shuffled-id replay may cost at most a small multiple of
// sequential-id replay of the same records. The fixed restore sorts
// ids first and appends (ratio ≈ 1); the old journal-order restore
// walked half the store per insert, putting the ratio in the
// hundreds.
func TestReplayShuffledIDsBudget(t *testing.T) {
	const n = 10000
	journalFor := func(ids []int) *bytes.Buffer {
		var jb bytes.Buffer
		j := NewJournal(&jb)
		for _, i := range ids {
			j.logWrite(uint64(i+1), job("x", int64(i)), 0)
		}
		j.Flush()
		return &jb
	}
	seq := make([]int, n)
	for i := range seq {
		seq[i] = i
	}
	shuffled := rand.New(rand.NewSource(7)).Perm(n)

	replay := func(jb *bytes.Buffer) time.Duration {
		_, s := simSpace()
		start := time.Now()
		got, err := s.Replay(bytes.NewReader(jb.Bytes()))
		elapsed := time.Since(start)
		if err != nil || got != n {
			t.Fatalf("replay: n=%d err=%v", got, err)
		}
		// Restored in id order regardless of journal order.
		first, ok := s.TakeIfExists(anyJob())
		if !ok || first.Fields[1].Int != 0 {
			t.Fatalf("first restored entry %v", first)
		}
		return elapsed
	}
	replay(journalFor(seq)) // warm caches before timing
	tSeq := replay(journalFor(seq))
	tShuf := replay(journalFor(shuffled))
	if tShuf > 20*tSeq && tShuf > 100*time.Millisecond {
		t.Fatalf("shuffled-id replay %v vs sequential %v: insertion degraded", tShuf, tSeq)
	}

	// Alloc budget: decode + entry + index bookkeeping per record,
	// independent of journal order.
	jb := journalFor(shuffled)
	_, s := simSpace()
	allocs := testing.AllocsPerRun(1, func() {
		s2 := New(s.rt)
		if got, err := s2.Replay(bytes.NewReader(jb.Bytes())); err != nil || got != n {
			t.Fatalf("replay: n=%d err=%v", got, err)
		}
	})
	if perEntry := allocs / n; perEntry > 40 {
		t.Fatalf("replay allocs per entry = %.1f, budget 40", perEntry)
	}
}
