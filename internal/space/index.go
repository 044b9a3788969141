package space

import (
	"sync"
	"sync/atomic"

	"tpspace/internal/sim"
	"tpspace/internal/tuple"
)

// This file is the indexed serving plane: the per-shard entry store
// and the subscription (parked waiter / notify registration) index.
//
// Associative lookup cost is the classic scaling bottleneck of the
// Linda paradigm the paper builds on, so the store keeps three
// intrusive views of every entry, all in id (total) order:
//
//   - the shard order list — every entry, for bulk scans;
//   - a kind bucket keyed by tuple.KindSig() (type, arity, field
//     kinds) — the only entries a typed wildcard template can match;
//     buckets of one shape chain together so untyped templates search
//     per-bucket instead of per-entry;
//   - a value bucket keyed by tuple.ValueSig() (signature of every
//     field value) — wildcard-free typed templates resolve to their
//     candidates in O(1).
//
// Waiters and notify registrations mirror the same three-way split
// (see classify), so a write probes exactly the buckets its
// signatures can satisfy instead of scanning every parked operation.

// entry is a stored tuple with its bookkeeping. The sequence number
// implements the total order the paper relies on ("the timestamp on
// each tuple determines a total order relation"). Intrusive links make
// removal O(1) from all three views.
type entry struct {
	id        uint64
	t         tuple.Tuple
	writtenAt sim.Time

	// exp is the entry's lease deadline, embedded so arming and
	// cancelling never allocate.
	exp sim.WheelTimer

	vh, kk, sk uint64 // value / kind / shape signatures of t

	prev, next   *entry // shard order
	kPrev, kNext *entry // kind bucket
	vPrev, vNext *entry // value bucket
	linked       bool
}

// kindBucket holds the entries sharing one (type, arity, kind
// signature) in id order. Buckets sharing a shape signature chain via
// nextShape; the set of (type, shape) combinations is bounded by the
// application's schema, so empty kind buckets are kept.
type kindBucket struct {
	head, tail *entry
	nextShape  *kindBucket
}

// valueBucket holds the entries sharing one exact value signature in
// id order. Value diversity is unbounded (every distinct tuple value
// is a key), so empty buckets are recycled through a per-shard free
// list and their map slots deleted.
type valueBucket struct {
	head, tail *entry
	free       *valueBucket
}

// subClass selects the index a subscription template lives in, and
// symmetrically which entry view serves a lookup with that template.
type subClass uint8

const (
	subValue subClass = iota // typed, wildcard-free: exact-match index
	subKind                  // typed, with wildcards: kind bucket
	subShape                 // untyped: shape-chained kind buckets
)

// classify resolves a template to its index class and bucket key. Any
// template pins arity and per-field kinds, so even the weakest class
// confines a lookup to one shape chain.
func classify(tmpl tuple.Tuple) (subClass, uint64) {
	if tmpl.Type == "" {
		return subShape, tmpl.ShapeSig()
	}
	if vh, ok := tmpl.ValueSig(); ok {
		return subValue, vh
	}
	return subKind, tmpl.KindSig()
}

// sub is a parked blocking read/take or a notify registration. done
// flips exactly once — wake, timeout, crash, or notify cancellation —
// and is CAS-claimed because shards race to complete replicated
// wildcard subscriptions.
type sub struct {
	tmpl  tuple.Tuple
	seq   uint64 // registration order (FIFO fairness authority)
	class subClass
	key   uint64
	done  atomic.Bool

	notify bool
	fn     func(tuple.Tuple) // notify callback

	take        bool
	cb          func(tuple.Tuple, error) // waiter callback
	cancelTimer func()

	// nodes holds this sub's per-shard list membership: one node on
	// its home shard when the template routes (see
	// Space.classifyRoute), one per shard otherwise (matching writes
	// can then land on any shard).
	nodes []subNode
}

// subNode is one shard's intrusive membership of a sub: bucket list
// plus the shard-wide list the crash sweep walks.
type subNode struct {
	s            *sub
	sh           *shard
	list         *subList
	bPrev, bNext *subNode
	aPrev, aNext *subNode
	linked       bool
}

// subList is a bucket of subscriptions in registration order. owner
// and key let an emptied list delete its own map slot before being
// recycled.
type subList struct {
	head, tail *subNode
	owner      map[uint64]*subList
	key        uint64
	free       *subList
}

// shard is one independently locked slice of the space. The unsharded
// space is exactly one shard; WithShards(n) hashes value-signature
// traffic across n of them.
type shard struct {
	sp *Space
	mu sync.Mutex

	head, tail *entry
	byID       map[uint64]*entry
	kinds      map[uint64]*kindBucket
	shapes     map[uint64]*kindBucket // shape sig → chain of kind buckets
	values     map[uint64]*valueBucket
	vFree      *valueBucket
	eFree      *entry // recycled entries (see getEntry/freeEntry)
	size       int

	subVal           map[uint64]*subList
	subKind          map[uint64]*subList
	subShape         map[uint64]*subList
	slFree           *subList
	allHead, allTail *subNode

	// Lease engine (see lease.go): the shard's deadline wheel, its one
	// re-armable sweep timer, the absolute time the timer is armed for
	// (0 = unarmed), and the reused batch-journal scratch.
	wheel   *sim.Wheel
	sweep   Timer
	sweepAt sim.Time
	expIDs  []uint64

	stats Stats
}

func newShard(sp *Space) *shard {
	sh := &shard{
		sp:       sp,
		byID:     make(map[uint64]*entry),
		kinds:    make(map[uint64]*kindBucket),
		shapes:   make(map[uint64]*kindBucket),
		values:   make(map[uint64]*valueBucket),
		subVal:   make(map[uint64]*subList),
		subKind:  make(map[uint64]*subList),
		subShape: make(map[uint64]*subList),
		wheel:    sim.NewWheel(sp.rt.Now()),
	}
	sh.sweep = sp.rt.AfterBulk(sh.runSweep)
	return sh
}

func (sh *shard) newValueBucket() *valueBucket {
	if b := sh.vFree; b != nil {
		sh.vFree = b.free
		b.free = nil
		return b
	}
	return &valueBucket{}
}

// getEntry pops a recycled entry from the shard freelist (or
// allocates); the caller holds the shard lock. A recycled entry keeps
// its tuple's field storage, so the usual next step —
// tuple.CloneInto(&e.t, src) — reuses it and the steady-state write
// path allocates nothing.
func (sh *shard) getEntry() *entry {
	if e := sh.eFree; e != nil {
		sh.eFree = e.next
		e.next = nil
		return e
	}
	return &entry{}
}

// freeEntry pushes an unlinked entry onto the shard freelist; the
// caller holds the shard lock. Only entries whose whole lifecycle the
// shard controlled are recycled — a consumed write, a probe-take hit
// (tuple already cloned out), an expiry sweep victim — NEVER entries
// held by a transaction or returned by reference: callers that handed
// e.t's storage to the outside world must clear e.t first. Lease
// handles caching a recycled entry stay safe: resolve() re-validates
// (linked && id match) under this same shard lock, and ids are never
// reused.
func (sh *shard) freeEntry(e *entry) {
	if e.linked || e.exp.Armed() {
		return // defensive: never recycle an entry still indexed or timed
	}
	e.id = 0
	e.writtenAt = 0
	e.vh, e.kk, e.sk = 0, 0, 0
	e.next = sh.eFree
	sh.eFree = e
}

// link appends a stored entry to the tail of the shard order, its
// kind bucket and its value bucket; ids arrive ascending on every
// sequential path, so appends keep all views id-ordered. The caller
// holds the shard lock.
func (sh *shard) link(e *entry) {
	e.prev = sh.tail
	e.next = nil
	if sh.tail != nil {
		sh.tail.next = e
	} else {
		sh.head = e
	}
	sh.tail = e

	kb := sh.kinds[e.kk]
	if kb == nil {
		kb = &kindBucket{nextShape: sh.shapes[e.sk]}
		sh.kinds[e.kk] = kb
		sh.shapes[e.sk] = kb
	}
	e.kPrev = kb.tail
	e.kNext = nil
	if kb.tail != nil {
		kb.tail.kNext = e
	} else {
		kb.head = e
	}
	kb.tail = e

	vb := sh.values[e.vh]
	if vb == nil {
		vb = sh.newValueBucket()
		sh.values[e.vh] = vb
	}
	e.vPrev = vb.tail
	e.vNext = nil
	if vb.tail != nil {
		vb.tail.vNext = e
	} else {
		vb.head = e
	}
	vb.tail = e

	sh.byID[e.id] = e
	e.linked = true
	sh.size++
}

// insertSorted links e into its id-ordered position in all three
// views (used by transaction aborts restoring held entries); the
// caller holds the shard lock. Restored entries are usually near the
// tail, so each walk starts there.
func (sh *shard) insertSorted(e *entry) {
	at := sh.tail
	for at != nil && at.id > e.id {
		at = at.prev
	}
	if at == nil {
		e.prev = nil
		e.next = sh.head
		if sh.head != nil {
			sh.head.prev = e
		} else {
			sh.tail = e
		}
		sh.head = e
	} else {
		e.prev = at
		e.next = at.next
		if at.next != nil {
			at.next.prev = e
		} else {
			sh.tail = e
		}
		at.next = e
	}

	kb := sh.kinds[e.kk]
	if kb == nil {
		kb = &kindBucket{nextShape: sh.shapes[e.sk]}
		sh.kinds[e.kk] = kb
		sh.shapes[e.sk] = kb
	}
	kat := kb.tail
	for kat != nil && kat.id > e.id {
		kat = kat.kPrev
	}
	if kat == nil {
		e.kPrev = nil
		e.kNext = kb.head
		if kb.head != nil {
			kb.head.kPrev = e
		} else {
			kb.tail = e
		}
		kb.head = e
	} else {
		e.kPrev = kat
		e.kNext = kat.kNext
		if kat.kNext != nil {
			kat.kNext.kPrev = e
		} else {
			kb.tail = e
		}
		kat.kNext = e
	}

	vb := sh.values[e.vh]
	if vb == nil {
		vb = sh.newValueBucket()
		sh.values[e.vh] = vb
	}
	vat := vb.tail
	for vat != nil && vat.id > e.id {
		vat = vat.vPrev
	}
	if vat == nil {
		e.vPrev = nil
		e.vNext = vb.head
		if vb.head != nil {
			vb.head.vPrev = e
		} else {
			vb.tail = e
		}
		vb.head = e
	} else {
		e.vPrev = vat
		e.vNext = vat.vNext
		if vat.vNext != nil {
			vat.vNext.vPrev = e
		} else {
			vb.tail = e
		}
		vat.vNext = e
	}

	sh.byID[e.id] = e
	e.linked = true
	sh.size++
}

// unlink splices an entry out of all three views in O(1), cancelling
// its expiry timer and journalling the removal; the caller holds the
// shard lock. It reports whether the entry was present.
func (sh *shard) unlink(e *entry) bool {
	if !sh.unlinkNoLog(e) {
		return false
	}
	sh.sp.logR(e.id)
	return true
}

// unlinkNoLog is unlink without the journal write: the expiry sweep
// uses it to batch a whole slot's removal records into one journal
// pass. Every other caller wants unlink.
func (sh *shard) unlinkNoLog(e *entry) bool {
	if !e.linked {
		return false
	}
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}

	kb := sh.kinds[e.kk]
	if e.kPrev != nil {
		e.kPrev.kNext = e.kNext
	} else {
		kb.head = e.kNext
	}
	if e.kNext != nil {
		e.kNext.kPrev = e.kPrev
	} else {
		kb.tail = e.kPrev
	}

	vb := sh.values[e.vh]
	if e.vPrev != nil {
		e.vPrev.vNext = e.vNext
	} else {
		vb.head = e.vNext
	}
	if e.vNext != nil {
		e.vNext.vPrev = e.vPrev
	} else {
		vb.tail = e.vPrev
	}
	if vb.head == nil {
		delete(sh.values, e.vh)
		vb.free = sh.vFree
		sh.vFree = vb
	}

	e.prev, e.next, e.kPrev, e.kNext, e.vPrev, e.vNext = nil, nil, nil, nil, nil, nil
	e.linked = false
	delete(sh.byID, e.id)
	sh.size--
	sh.disarmLease(e)
	return true
}

// removeByID unlinks an entry; the caller holds the shard lock.
func (sh *shard) removeByID(id uint64) *entry {
	e := sh.byID[id]
	if e == nil {
		return nil
	}
	sh.unlink(e)
	return e
}

// oldest returns the oldest entry of this shard matching the
// template, or nil; the caller holds the shard lock. Every view is
// id-ordered, so the first match in a bucket is the bucket's oldest;
// only the untyped class compares across buckets.
func (sh *shard) oldest(class subClass, key uint64, tmpl tuple.Tuple) *entry {
	switch class {
	case subValue:
		if b := sh.values[key]; b != nil {
			for e := b.head; e != nil; e = e.vNext {
				if tmpl.Matches(e.t) {
					return e
				}
			}
		}
	case subKind:
		if b := sh.kinds[key]; b != nil {
			for e := b.head; e != nil; e = e.kNext {
				if tmpl.Matches(e.t) {
					return e
				}
			}
		}
	case subShape:
		var best *entry
		for b := sh.shapes[key]; b != nil; b = b.nextShape {
			for e := b.head; e != nil; e = e.kNext {
				if tmpl.Matches(e.t) {
					if best == nil || e.id < best.id {
						best = e
					}
					break
				}
			}
		}
		return best
	}
	return nil
}

// countIn counts this shard's matches; the caller holds the shard lock.
func (sh *shard) countIn(class subClass, key uint64, tmpl tuple.Tuple) int {
	n := 0
	switch class {
	case subValue:
		if b := sh.values[key]; b != nil {
			for e := b.head; e != nil; e = e.vNext {
				if tmpl.Matches(e.t) {
					n++
				}
			}
		}
	case subKind:
		if b := sh.kinds[key]; b != nil {
			for e := b.head; e != nil; e = e.kNext {
				if tmpl.Matches(e.t) {
					n++
				}
			}
		}
	case subShape:
		for b := sh.shapes[key]; b != nil; b = b.nextShape {
			for e := b.head; e != nil; e = e.kNext {
				if tmpl.Matches(e.t) {
					n++
				}
			}
		}
	}
	return n
}

// scanHit is one Scan candidate; ids let cross-bucket and cross-shard
// results merge back into write order.
type scanHit struct {
	id uint64
	t  tuple.Tuple
}

// scanIn appends clones of this shard's matches; the caller holds the
// shard lock.
func (sh *shard) scanIn(class subClass, key uint64, tmpl tuple.Tuple, out []scanHit) []scanHit {
	switch class {
	case subValue:
		if b := sh.values[key]; b != nil {
			for e := b.head; e != nil; e = e.vNext {
				if tmpl.Matches(e.t) {
					out = append(out, scanHit{e.id, e.t.Clone()})
				}
			}
		}
	case subKind:
		if b := sh.kinds[key]; b != nil {
			for e := b.head; e != nil; e = e.kNext {
				if tmpl.Matches(e.t) {
					out = append(out, scanHit{e.id, e.t.Clone()})
				}
			}
		}
	case subShape:
		for b := sh.shapes[key]; b != nil; b = b.nextShape {
			for e := b.head; e != nil; e = e.kNext {
				if tmpl.Matches(e.t) {
					out = append(out, scanHit{e.id, e.t.Clone()})
				}
			}
		}
	}
	return out
}

func (sh *shard) subMap(class subClass) map[uint64]*subList {
	switch class {
	case subValue:
		return sh.subVal
	case subKind:
		return sh.subKind
	default:
		return sh.subShape
	}
}

// addSub appends a node for s to this shard's bucket for s's class
// and key, and to the shard-wide list; the caller holds the shard
// lock. Appending under the lock keeps every bucket in registration
// (seq) order, which is what makes "first match in bucket" the
// bucket's FIFO-oldest.
func (sh *shard) addSub(s *sub, node *subNode) {
	m := sh.subMap(s.class)
	l := m[s.key]
	if l == nil {
		if l = sh.slFree; l != nil {
			sh.slFree = l.free
			l.free = nil
		} else {
			l = &subList{}
		}
		l.owner, l.key = m, s.key
		m[s.key] = l
	}
	node.s, node.sh, node.list = s, sh, l
	node.bPrev = l.tail
	node.bNext = nil
	if l.tail != nil {
		l.tail.bNext = node
	} else {
		l.head = node
	}
	l.tail = node
	node.aPrev = sh.allTail
	node.aNext = nil
	if sh.allTail != nil {
		sh.allTail.aNext = node
	} else {
		sh.allHead = node
	}
	sh.allTail = node
	node.linked = true
}

// dropSub unlinks a node from its bucket and the shard-wide list in
// O(1); the caller holds the shard lock. Emptied buckets free their
// map slot and recycle.
func (sh *shard) dropSub(node *subNode) {
	if !node.linked {
		return
	}
	l := node.list
	if node.bPrev != nil {
		node.bPrev.bNext = node.bNext
	} else {
		l.head = node.bNext
	}
	if node.bNext != nil {
		node.bNext.bPrev = node.bPrev
	} else {
		l.tail = node.bPrev
	}
	if l.head == nil {
		delete(l.owner, l.key)
		l.owner = nil
		l.free = sh.slFree
		sh.slFree = l
	}
	if node.aPrev != nil {
		node.aPrev.aNext = node.aNext
	} else {
		sh.allHead = node.aNext
	}
	if node.aNext != nil {
		node.aNext.aPrev = node.aPrev
	} else {
		sh.allTail = node.aPrev
	}
	node.bPrev, node.bNext, node.aPrev, node.aNext, node.list = nil, nil, nil, nil, nil
	node.linked = false
}

// unlinkAll drops every remaining shard node of a completed sub;
// called WITHOUT any shard lock held (wake and timeout paths run it
// after their critical sections). For an unsharded space the single
// node is usually already dropped and this is one uncontended lock.
func (sb *sub) unlinkAll() {
	for i := range sb.nodes {
		n := &sb.nodes[i]
		if n.sh == nil {
			continue
		}
		n.sh.mu.Lock()
		n.sh.dropSub(n)
		n.sh.mu.Unlock()
	}
}
