package space

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"tpspace/internal/sim"
	"tpspace/internal/tuple"
)

// lease_test.go: the wheel lease engine against the refSpace oracle
// (model_test.go) and the crash/replay regression for wheel-armed
// leases.

// leaseScript is a quick-generated interleaving of lease-engine
// operations; each byte drives one step of the space and the oracle.
type leaseScript struct {
	ops  []byte
	seed int64
}

// leaseScriptValue wraps leaseScript for testing/quick generation.
type leaseScriptValue struct{ s leaseScript }

// Generate implements quick.Generator.
func (leaseScriptValue) Generate(r *rand.Rand, size int) reflect.Value {
	n := 40 + r.Intn(160)
	ops := make([]byte, n)
	r.Read(ops)
	return reflect.ValueOf(leaseScriptValue{leaseScript{ops: ops, seed: r.Int63()}})
}

// TestLeasePropertyWheelVsOracle drives random interleavings of
// write/take/cancel/renew/time-advance/crash+replay through a
// wheel-engine space and the refSpace oracle, for shard counts {1, 4},
// and demands identical observable state after every step: live size,
// exact store contents, and the expiry/cancel counters. Run under
// -race by scripts/check.sh.
func TestLeasePropertyWheelVsOracle(t *testing.T) {
	everything := tuple.New("", tuple.AnyInt("x"), tuple.AnyString("s"))
	for _, shards := range []int{1, 4} {
		shards := shards
		check := func(v leaseScriptValue) bool {
			script := v.s
			rng := rand.New(rand.NewSource(script.seed))
			k := sim.NewKernel(1)
			s := New(SimRuntime{K: k}, WithShards(shards))
			var journal writerBuffer
			s.SetJournal(NewJournal(&journal))
			ref := &refSpace{}

			type held struct {
				lease *Lease
				id    uint64 // the oracle's handle
			}
			var live []held

			for _, op := range script.ops {
				switch {
				case op < 110: // write with a lease drawn from ns..minutes
					tp := randomTuple(rng)
					var d sim.Duration
					switch rng.Intn(5) {
					case 0:
						d = sim.Duration(1 + rng.Int63n(int64(sim.Millisecond)))
					case 1:
						d = sim.Duration(1 + rng.Int63n(int64(sim.Second)))
					case 2:
						d = sim.Duration(1 + rng.Int63n(int64(5*sim.Minute)))
					case 3:
						d = NoLease // permanent
					case 4:
						d = sim.Duration(1 + rng.Int63n(int64(50*sim.Millisecond)))
					}
					l, err := s.Write(tp, d)
					if err != nil {
						t.Fatalf("write: %v", err)
					}
					live = append(live, held{lease: l, id: ref.write(tp, d, k.Now())})
				case op < 150: // take
					tmpl := randomTemplate(rng)
					got, ok := s.TakeIfExists(tmpl)
					want, wok := ref.take(tmpl)
					if ok != wok || (ok && !got.Equal(want)) {
						t.Errorf("shards=%d: take diverged: (%v,%v) vs oracle (%v,%v)", shards, got, ok, want, wok)
						return false
					}
				case op < 175: // cancel a random held lease
					if len(live) == 0 {
						continue
					}
					i := rng.Intn(len(live))
					h := live[i]
					live = append(live[:i], live[i+1:]...)
					if got, want := h.lease.Cancel(), ref.cancel(h.id); got != want {
						t.Errorf("shards=%d: cancel diverged: %v vs oracle %v", shards, got, want)
						return false
					}
				case op < 195: // renew a random held lease
					if len(live) == 0 {
						continue
					}
					h := live[rng.Intn(len(live))]
					d := sim.Duration(1 + rng.Int63n(int64(sim.Second)))
					if rng.Intn(4) == 0 {
						d = NoLease
					}
					if got, want := h.lease.Renew(d), ref.renew(h.id, d, k.Now()); got != want {
						t.Errorf("shards=%d: renew diverged: %v vs oracle %v", shards, got, want)
						return false
					}
				case op < 250: // advance time (the expiry trigger)
					to := k.Now()
					switch rng.Intn(4) {
					case 0:
						to = to.Add(sim.Duration(rng.Int63n(int64(10 * sim.Millisecond))))
					case 1:
						to = to.Add(sim.Duration(rng.Int63n(int64(2 * sim.Second))))
					case 2:
						to = to.Add(sim.Duration(rng.Int63n(int64(10 * sim.Minute))))
					default: // land exactly on a deadline: expiry is at, not after, it
						for _, e := range ref.entries {
							if e.deadline != 0 {
								to = e.deadline
								break
							}
						}
					}
					k.RunUntil(to)
					ref.advance(k.Now())
				default: // crash, then replay the journal into the same space
					s.Crash()
					live = live[:0]
					if err := s.journal.Flush(); err != nil {
						t.Fatal(err)
					}
					stream := journal
					if _, err := s.Replay(&stream); err != nil {
						t.Fatalf("replay: %v", err)
					}
					ref.replay(k.Now())
				}
				st := s.Stats()
				if s.Size() != len(ref.entries) || st.Expired != ref.expired || st.Cancelled != ref.cancelled {
					t.Errorf("shards=%d: state diverged at %v: size %d expired %d cancelled %d vs oracle %d/%d/%d",
						shards, k.Now(), s.Size(), st.Expired, st.Cancelled, len(ref.entries), ref.expired, ref.cancelled)
					return false
				}
				stored := s.Scan(everything)
				if len(stored) != len(ref.entries) {
					t.Errorf("shards=%d: contents diverged: %d vs oracle %d tuples", shards, len(stored), len(ref.entries))
					return false
				}
				for i := range stored {
					if !stored[i].Equal(ref.entries[i].t) {
						t.Errorf("shards=%d: tuple %d diverged: %v vs oracle %v", shards, i, stored[i], ref.entries[i].t)
						return false
					}
				}
			}
			return true
		}
		cfg := &quick.Config{MaxCount: 12}
		if testing.Short() {
			cfg.MaxCount = 4
		}
		if err := quick.Check(check, cfg); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
	}
}

// countJournalRemoves parses a journal stream and counts removal
// records per entry id.
func countJournalRemoves(t *testing.T, data []byte) map[uint64]int {
	t.Helper()
	counts := map[uint64]int{}
	r := bytes.NewReader(data)
	for r.Len() > 0 {
		op, _ := r.ReadByte()
		switch op {
		case journalWrite:
			var hdr [20]byte
			if _, err := r.Read(hdr[:]); err != nil {
				t.Fatalf("journal parse: %v", err)
			}
			n := binary.BigEndian.Uint32(hdr[16:])
			r.Seek(int64(n), 1)
		case journalRemove:
			var rec [8]byte
			if _, err := r.Read(rec[:]); err != nil {
				t.Fatalf("journal parse: %v", err)
			}
			counts[binary.BigEndian.Uint64(rec[:])]++
		default:
			t.Fatalf("journal parse: opcode %#x", op)
		}
	}
	return counts
}

// TestReplayRearmsThroughWheel is the crash/replay regression for the
// wheel engine: restored leases must expire through the wheel sweep —
// including leases that are due essentially immediately after replay —
// and each expiry must be journalled exactly once.
func TestReplayRearmsThroughWheel(t *testing.T) {
	var buf writerBuffer
	k, s := simSpace()
	s.SetJournal(NewJournal(&buf))

	// A mix of hair-trigger leases (due the instant replay re-arms
	// them), short leases, and a permanent entry.
	for i := int64(0); i < 8; i++ {
		if _, err := s.Write(job("hair", i), 1); err != nil { // 1 ns
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 8; i++ {
		if _, err := s.Write(job("short", i), sim.Duration(10*sim.Second)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Write(job("keep", 0), NoLease); err != nil {
		t.Fatal(err)
	}
	// Crash before any timer fires: all 17 records survive in the
	// journal, none have removal records yet.
	s.Crash()
	if err := s.journal.Flush(); err != nil {
		t.Fatal(err)
	}

	k2 := sim.NewKernel(1)
	s2 := New(SimRuntime{K: k2}, WithShards(4))
	replayStream := buf
	restored, err := s2.Replay(&replayStream)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 17 {
		t.Fatalf("restored %d entries, want 17", restored)
	}
	var buf2 writerBuffer
	buf2.data = append(buf2.data, buf.data...)
	s2.SetJournal(NewJournal(&buf2))

	// First sweeps: the 1ns leases are already past due relative to
	// their (fresh) arm time and must go in the first wheel sweep.
	k2.RunUntil(sim.Time(sim.Millisecond))
	if got := s2.Count(tuple.New("job", tuple.String("op", "hair"), tuple.AnyInt("n"))); got != 0 {
		t.Fatalf("%d hair-trigger leases survived the first sweep", got)
	}
	st := s2.Stats()
	if st.Expired != 8 {
		t.Fatalf("Expired = %d after first sweep, want 8", st.Expired)
	}

	// The 10s leases must still be live, re-armed from replay time.
	if got := s2.Size(); got != 9 {
		t.Fatalf("Size = %d mid-replay, want 9", got)
	}
	k2.RunUntil(sim.Time(11 * sim.Second))
	if got := s2.Size(); got != 1 {
		t.Fatalf("Size = %d after lease horizon, want 1 (permanent)", got)
	}
	if st := s2.Stats(); st.Expired != 16 {
		t.Fatalf("Expired = %d, want 16", st.Expired)
	}

	// Exactly-once journaling: one removal record per expired id, none
	// for the permanent entry.
	if err := s2.journal.Flush(); err != nil {
		t.Fatal(err)
	}
	counts := countJournalRemoves(t, buf2.data)
	if len(counts) != 16 {
		t.Fatalf("journal has removals for %d ids, want 16", len(counts))
	}
	for id, n := range counts {
		if n != 1 {
			t.Fatalf("id %d journalled %d removals, want exactly 1", id, n)
		}
	}

	// Idempotence across a second crash/replay cycle: nothing
	// resurrects.
	s2.Crash()
	k3 := sim.NewKernel(1)
	s3 := New(SimRuntime{K: k3})
	stream := buf2
	restored3, err := s3.Replay(&stream)
	if err != nil {
		t.Fatal(err)
	}
	if restored3 != 1 {
		t.Fatalf("second replay restored %d, want 1", restored3)
	}
	_ = k
}

// TestWheelSweepBatchesUnderOneLock checks the batching shape: many
// co-expiring entries are removed by a single sweep firing (one
// "space.sweep" kernel event), not one event per entry.
func TestWheelSweepBatchesUnderOneLock(t *testing.T) {
	k, s := simSpace()
	sweeps := 0
	k.SetTrace(func(_ sim.Time, label string) {
		if label == "space.sweep" {
			sweeps++
		}
	})
	const n = 1000
	for i := int64(0); i < n; i++ {
		if _, err := s.Write(job("x", i), sim.Duration(sim.Second)); err != nil {
			t.Fatal(err)
		}
	}
	k.RunUntil(sim.Time(2 * sim.Second))
	if st := s.Stats(); st.Expired != n {
		t.Fatalf("Expired = %d, want %d", st.Expired, n)
	}
	// All co-expiring writes happened at sim time 0 with one deadline,
	// so one sweep firing must have delivered the whole batch (arming
	// resets while the deadline shrinks never fire).
	if sweeps != 1 {
		t.Fatalf("sweep fired %d times for one co-expiring batch, want 1", sweeps)
	}
}

// TestLeaseRenewThroughWheel pins Renew re-arming on the wheel path.
func TestLeaseRenewThroughWheel(t *testing.T) {
	k, s := simSpace()
	l, err := s.Write(job("r", 1), sim.Duration(sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntil(sim.Time(900 * sim.Millisecond))
	if !l.Renew(sim.Duration(2 * sim.Second)) {
		t.Fatal("renew failed on live entry")
	}
	k.RunUntil(sim.Time(2 * sim.Second))
	if s.Size() != 1 {
		t.Fatal("entry expired despite renew")
	}
	k.RunUntil(sim.Time(3 * sim.Second))
	if s.Size() != 0 {
		t.Fatal("entry survived renewed lease")
	}
	if l.Renew(0) {
		t.Fatal("renew on expired entry should fail")
	}
}

// benchLeaseChurn measures write-with-lease + cancel on the wall
// clock — the per-op cost of lease arming/disarming on top of the
// store itself.
func BenchmarkSpaceLeaseChurn(b *testing.B) {
	s := New(NewRealRuntime())
	tp := job("lease", 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := s.Write(tp, sim.Duration(10*sim.Minute))
		if err != nil {
			b.Fatal(err)
		}
		l.Cancel()
	}
}
