package space

import (
	"io"
	"math/rand"
	"testing"

	"tpspace/internal/sim"
	"tpspace/internal/tuple"
)

// refSpace is a deliberately naive reference implementation of the
// tuplespace store and lease semantics — FIFO total order,
// oldest-match take/read, per-entry deadlines, cancel, renew, expiry
// on time advance, and crash+replay re-arming — used as the one oracle
// for model-based testing. Time is whatever the caller passes as now.
type refSpace struct {
	entries            []refEntry
	nextID             uint64
	expired, cancelled uint64
}

type refEntry struct {
	id       uint64
	t        tuple.Tuple
	lease    sim.Duration // as written: what a replay re-arms with
	deadline sim.Time     // zero: permanent
}

// write appends an entry and returns its handle for cancel/renew.
func (r *refSpace) write(t tuple.Tuple, lease sim.Duration, now sim.Time) uint64 {
	r.nextID++
	e := refEntry{id: r.nextID, t: t.Clone(), lease: lease}
	if lease > 0 {
		e.deadline = now.Add(lease)
	}
	r.entries = append(r.entries, e)
	return r.nextID
}

func (r *refSpace) findOldest(tmpl tuple.Tuple) int {
	for i, e := range r.entries {
		if tmpl.Matches(e.t) {
			return i
		}
	}
	return -1
}

func (r *refSpace) byID(id uint64) int {
	for i, e := range r.entries {
		if e.id == id {
			return i
		}
	}
	return -1
}

func (r *refSpace) removeAt(i int) tuple.Tuple {
	t := r.entries[i].t
	r.entries = append(r.entries[:i], r.entries[i+1:]...)
	return t
}

func (r *refSpace) take(tmpl tuple.Tuple) (tuple.Tuple, bool) {
	if i := r.findOldest(tmpl); i >= 0 {
		return r.removeAt(i), true
	}
	return tuple.Tuple{}, false
}

func (r *refSpace) read(tmpl tuple.Tuple) (tuple.Tuple, bool) {
	if i := r.findOldest(tmpl); i >= 0 {
		return r.entries[i].t, true
	}
	return tuple.Tuple{}, false
}

func (r *refSpace) count(tmpl tuple.Tuple) int {
	n := 0
	for _, e := range r.entries {
		if tmpl.Matches(e.t) {
			n++
		}
	}
	return n
}

// cancel is Lease.Cancel: remove the entry if it is still stored.
func (r *refSpace) cancel(id uint64) bool {
	i := r.byID(id)
	if i < 0 {
		return false
	}
	r.removeAt(i)
	r.cancelled++
	return true
}

// renew is Lease.Renew: a fresh lifetime of d from now (NoLease makes
// the entry permanent). The journalled lease is not rewritten.
func (r *refSpace) renew(id uint64, d sim.Duration, now sim.Time) bool {
	i := r.byID(id)
	if i < 0 {
		return false
	}
	r.entries[i].deadline = 0
	if d > 0 {
		r.entries[i].deadline = now.Add(d)
	}
	return true
}

// advance expires every entry whose deadline has been reached.
func (r *refSpace) advance(now sim.Time) {
	kept := r.entries[:0]
	for _, e := range r.entries {
		if e.deadline != 0 && e.deadline <= now {
			r.expired++
			continue
		}
		kept = append(kept, e)
	}
	r.entries = kept
}

// replay is Crash followed by Replay of the full journal: every
// surviving entry comes back in id order with its originally written
// lease re-armed from now; renewals are forgotten.
func (r *refSpace) replay(now sim.Time) {
	for i := range r.entries {
		e := &r.entries[i]
		e.deadline = 0
		if e.lease > 0 {
			e.deadline = now.Add(e.lease)
		}
	}
}

// randomTuple draws from a small universe so matches are frequent.
func randomTuple(rng *rand.Rand) tuple.Tuple {
	types := []string{"a", "b", "c"}
	return tuple.New(types[rng.Intn(len(types))],
		tuple.Int("x", int64(rng.Intn(4))),
		tuple.String("s", string(rune('p'+rng.Intn(3)))),
	)
}

// randomTemplate derives a template that may or may not match.
func randomTemplate(rng *rand.Rand) tuple.Tuple {
	t := randomTuple(rng)
	if rng.Intn(2) == 0 {
		t.Type = "" // any type
	}
	if rng.Intn(2) == 0 {
		t.Fields[0] = tuple.AnyInt("x")
	}
	if rng.Intn(2) == 0 {
		t.Fields[1] = tuple.AnyString("s")
	}
	return t
}

func TestModelBasedAgainstReference(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		_, s := simSpace()
		ref := &refSpace{}
		for step := 0; step < 400; step++ {
			switch rng.Intn(5) {
			case 0, 1: // write
				tp := randomTuple(rng)
				if _, err := s.Write(tp, NoLease); err != nil {
					t.Fatalf("seed %d step %d: write: %v", seed, step, err)
				}
				ref.write(tp, NoLease, 0)
			case 2: // takeIfExists
				tmpl := randomTemplate(rng)
				got, ok := s.TakeIfExists(tmpl)
				want, wok := ref.take(tmpl)
				if ok != wok {
					t.Fatalf("seed %d step %d: take ok=%v want %v (tmpl %v)", seed, step, ok, wok, tmpl)
				}
				if ok && !got.Equal(want) {
					t.Fatalf("seed %d step %d: take got %v want %v", seed, step, got, want)
				}
			case 3: // readIfExists
				tmpl := randomTemplate(rng)
				got, ok := s.ReadIfExists(tmpl)
				want, wok := ref.read(tmpl)
				if ok != wok || (ok && !got.Equal(want)) {
					t.Fatalf("seed %d step %d: read got %v,%v want %v,%v", seed, step, got, ok, want, wok)
				}
			case 4: // count + size
				tmpl := randomTemplate(rng)
				if got, want := s.Count(tmpl), ref.count(tmpl); got != want {
					t.Fatalf("seed %d step %d: count %d want %d", seed, step, got, want)
				}
				if s.Size() != len(ref.entries) {
					t.Fatalf("seed %d step %d: size %d want %d", seed, step, s.Size(), len(ref.entries))
				}
			}
		}
	}
}

func TestModelBasedWithJournalReplay(t *testing.T) {
	// The same random walk, journaled; after every walk, a replayed
	// space must agree with the reference on every template.
	for seed := int64(100); seed < 108; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var journalBuf writerBuffer
		_, s := simSpace()
		s.SetJournal(NewJournal(&journalBuf))
		ref := &refSpace{}
		for step := 0; step < 200; step++ {
			if rng.Intn(3) != 0 {
				tp := randomTuple(rng)
				s.Write(tp, NoLease)
				ref.write(tp, NoLease, 0)
			} else {
				tmpl := randomTemplate(rng)
				s.TakeIfExists(tmpl)
				ref.take(tmpl)
			}
		}
		s.journal.Flush()

		_, s2 := simSpace()
		if _, err := s2.Replay(&journalBuf); err != nil {
			t.Fatalf("seed %d: replay: %v", seed, err)
		}
		if s2.Size() != len(ref.entries) {
			t.Fatalf("seed %d: replayed size %d want %d", seed, s2.Size(), len(ref.entries))
		}
		// Drain both in FIFO order and compare.
		all := tuple.New("", tuple.AnyInt("x"), tuple.AnyString("s"))
		for i := range ref.entries {
			got, ok := s2.TakeIfExists(all)
			if !ok || !got.Equal(ref.entries[i].t) {
				t.Fatalf("seed %d: drained %d: %v vs %v", seed, i, got, ref.entries[i].t)
			}
		}
	}
}

// writerBuffer is a bytes.Buffer-alike usable as both journal sink
// and replay source without importing bytes twice (keeps reads from
// consuming the written prefix concurrently).
type writerBuffer struct {
	data []byte
	pos  int
}

func (w *writerBuffer) Write(p []byte) (int, error) {
	w.data = append(w.data, p...)
	return len(p), nil
}

func (w *writerBuffer) Read(p []byte) (int, error) {
	if w.pos >= len(w.data) {
		return 0, io.EOF
	}
	n := copy(p, w.data[w.pos:])
	w.pos += n
	return n, nil
}
