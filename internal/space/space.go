package space

import (
	"errors"
	"sort"
	"sync/atomic"

	"tpspace/internal/sim"
	"tpspace/internal/tuple"
)

// NoLease requests an entry that never expires.
const NoLease sim.Duration = 0

// ErrTemplateWrite is returned when a tuple containing wildcards is
// written: only actual tuples may enter the space.
var ErrTemplateWrite = errors.New("space: cannot write a template (wildcard fields)")

// ErrTimeout reports a blocking operation that expired (or a
// non-blocking one that found no match) before a tuple arrived.
var ErrTimeout = errors.New("space: operation timed out")

// ErrCrashed reports a parked operation failed by a server crash:
// instead of hanging forever, waiters are woken with this typed error
// so clients can re-issue after the restart.
var ErrCrashed = errors.New("space: server crashed")

// Stats counts space activity.
type Stats struct {
	Writes    uint64
	Reads     uint64 // satisfied read operations
	Takes     uint64 // satisfied take operations
	Misses    uint64 // IfExists operations that found nothing
	Timeouts  uint64 // blocking operations that expired
	Expired   uint64 // entries removed by lease expiry
	Cancelled uint64 // entries removed by lease cancel
	Notifies  uint64 // notify callbacks fired
	Crashes   uint64 // injected crashes taken
	Restored  uint64 // surviving write records replayed (stored or handed to a parked waiter)
}

// add accumulates per-shard counters into a snapshot.
func (a *Stats) add(b Stats) {
	a.Writes += b.Writes
	a.Reads += b.Reads
	a.Takes += b.Takes
	a.Misses += b.Misses
	a.Timeouts += b.Timeouts
	a.Expired += b.Expired
	a.Cancelled += b.Cancelled
	a.Notifies += b.Notifies
	a.Crashes += b.Crashes
	a.Restored += b.Restored
}

// Lease controls the lifetime of a written entry, after JavaSpaces
// leases.
type Lease struct {
	sp *Space
	sh *shard
	id uint64
	// e caches the entry so Cancel and Renew skip the byID lookup on
	// the hot path — at 10^7 live leases that map probe dominates the
	// whole operation. The cache is validated under the shard lock
	// (linked + id match; ids are never reused, so a recycled or
	// expired entry can't impersonate) and falls back to the map when
	// stale, which keeps renew-after-restore working: replay builds
	// fresh entry objects under the original ids.
	e *entry
	// Expiry is the absolute time the entry lapses, or zero for a
	// permanent entry.
	Expiry sim.Time
}

// resolve returns the live entry this lease controls, or nil; the
// caller holds the shard lock.
func (l *Lease) resolve() *entry {
	e := l.e
	if e != nil && e.linked && e.id == l.id {
		return e
	}
	if e = l.sh.byID[l.id]; e != nil {
		l.e = e
	}
	return e
}

// ID returns the entry id the lease controls (0 for a detached lease,
// whose entry went straight to a parked taker).
func (l *Lease) ID() uint64 {
	if l == nil || l.sp == nil {
		return 0
	}
	return l.id
}

// Cancel removes the entry immediately. It reports whether the entry
// was still present.
func (l *Lease) Cancel() bool {
	if l == nil || l.sp == nil {
		return false
	}
	l.sh.mu.Lock()
	e := l.resolve()
	if e != nil {
		l.sh.unlink(e)
		l.sh.stats.Cancelled++
	}
	l.sh.mu.Unlock()
	return e != nil
}

// Renew replaces the entry's remaining lifetime with a fresh lease of
// d (NoLease makes it permanent). It reports false if the entry is no
// longer in the space.
func (l *Lease) Renew(d sim.Duration) bool {
	if l == nil || l.sp == nil {
		return false
	}
	s, sh := l.sp, l.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := l.resolve()
	if e == nil {
		return false
	}
	l.Expiry = 0
	if d > 0 {
		l.Expiry = s.rt.Now().Add(d)
		sh.renewLease(e, l.Expiry)
	} else {
		sh.disarmLease(e)
	}
	return true
}

// Space is the tuplespace. All methods are safe for concurrent use;
// callbacks are always invoked without internal locks held.
//
// Internally the space is one or more independently locked shards
// (see New and WithShards). Entries are hashed across shards by their
// routing signature — by default tuple.RouteSig(0), i.e. the kind
// signature (type, arity, field kinds) — so every tuple a typed
// template could match lives on one home shard, and the template
// (wildcards included) touches exactly one shard and one index
// bucket. Only untyped templates (empty type name), which can match
// entries of any kind-home, take the documented cross-shard path:
// they lock every shard in index order, which preserves
// FIFO/total-order semantics exactly and degrades to the single-lock
// behaviour when the space is unsharded. WithRoutePrefix and
// WithValueRouting shift the routing depth toward the PR-4 value
// hashing, trading wildcard-template locality for value spread (see
// DESIGN.md §15).
type Space struct {
	rt Runtime

	seq    atomic.Uint64 // entry id authority (the total order)
	subSeq atomic.Uint64 // waiter/notify registration order authority

	shards []*shard

	// routePrefix is the shard-routing depth: entries and templates
	// route by tuple.RouteSig(routePrefix). 0 = kind routing (default),
	// maxRoutePrefix = full value routing (the legacy scheme).
	routePrefix int

	// journal is attach-before-use (see SetJournal): logW/logR read it
	// under a shard lock, SetJournal writes it under all of them.
	journal *Journal
}

// config collects New options.
type config struct {
	shards      int
	routePrefix int
}

// Option configures a Space at construction.
type Option func(*config)

// WithShards splits the space into n independently locked shards.
// Traffic hashes across them by routing signature (kind routing by
// default; see WithRoutePrefix); only untyped templates use the
// cross-shard path. n <= 1 keeps the single-shard space, whose
// observable behaviour every sharded configuration preserves: one
// global id sequence, FIFO waiter fairness by registration order, and
// byte-identical journal replay, crash and transaction semantics.
func WithShards(n int) Option {
	return func(c *config) {
		if n > 1 {
			c.shards = n
		}
	}
}

// maxRoutePrefix is the routing depth that folds every field of any
// realistic tuple — the "route by full value signature" setting.
const maxRoutePrefix = 1 << 30

// WithRoutePrefix routes entries and templates by
// tuple.RouteSig(k): the kind signature extended with the first k
// concrete field values. k = 0 (the default) is pure kind routing —
// every typed template, wildcards or not, resolves to one home shard.
// Larger k spreads value-diverse traffic of a single kind across
// shards (multicore parallelism) at the cost of sending templates
// with a wildcard among their first k fields down the all-shard
// path.
func WithRoutePrefix(k int) Option {
	return func(c *config) {
		if k > 0 {
			c.routePrefix = k
		}
	}
}

// WithValueRouting restores the legacy PR-4 routing: entries hash
// across shards by their full value signature, and every
// wildcard-bearing template locks all shards. Kept in-binary as the
// bench baseline and property-test oracle for kind routing.
func WithValueRouting() Option { return WithRoutePrefix(maxRoutePrefix) }

// New creates an empty space on the given runtime.
func New(rt Runtime, opts ...Option) *Space {
	cfg := config{shards: 1}
	for _, o := range opts {
		o(&cfg)
	}
	s := &Space{rt: rt, shards: make([]*shard, cfg.shards), routePrefix: cfg.routePrefix}
	for i := range s.shards {
		s.shards[i] = newShard(s)
	}
	return s
}

// Shards reports the shard count (1 for an unsharded space).
func (s *Space) Shards() int { return len(s.shards) }

// RoutePrefix reports the routing depth entries and templates hash
// by (see WithRoutePrefix). Dispatch layers feed it to
// tuple.Tuple.RouteSig / xmlcodec.WireRouteSig so wire-side routing
// agrees with the store's.
func (s *Space) RoutePrefix() int { return s.routePrefix }

// shardFor routes a routing signature to its home shard.
func (s *Space) shardFor(rh uint64) *shard {
	if len(s.shards) == 1 {
		return s.shards[0]
	}
	return s.shards[rh%uint64(len(s.shards))]
}

// ShardOf reports the index of the home shard for a routing
// signature — the same routing shardFor applies internally. Dispatch
// layers use it to queue requests by home shard (computed from wire
// bytes via tuple.Sig) so traffic for different shards never
// serializes on one queue, while same-shard traffic keeps its
// arrival order.
func (s *Space) ShardOf(rh uint64) int {
	if len(s.shards) == 1 {
		return 0
	}
	return int(rh % uint64(len(s.shards)))
}

// routeOf returns the routing hash of a data tuple whose value and
// kind signatures are already computed — the write/replay/restore
// side of the routing contract: an entry lives on the shard every
// template that can match it routes to.
func (s *Space) routeOf(t tuple.Tuple, vh, kk uint64) uint64 {
	switch {
	case s.routePrefix == 0:
		return kk
	case s.routePrefix >= len(t.Fields):
		return vh
	default:
		rh, _ := t.RouteSig(s.routePrefix) // data tuples always route
		return rh
	}
}

// classifyRoute resolves a template to its index class, bucket key
// and home shard. home == nil is the all-shard path: the template's
// candidates may live on any shard, so the caller must lock all of
// them (and park subscriptions shard-replicated). With the default
// kind routing only untyped templates lose their home; under deeper
// route prefixes, so do templates with a wildcard inside the prefix
// window.
func (s *Space) classifyRoute(tmpl tuple.Tuple) (class subClass, key uint64, home *shard) {
	class, key = classify(tmpl)
	if len(s.shards) == 1 {
		return class, key, s.shards[0]
	}
	switch {
	case class == subShape:
		return class, key, nil // untyped: any kind-home can hold a match
	case class == subKind && s.routePrefix == 0:
		return class, key, s.shards[key%uint64(len(s.shards))] // key is the kind sig
	case class == subValue && s.routePrefix >= len(tmpl.Fields):
		return class, key, s.shards[key%uint64(len(s.shards))] // key is the value sig
	}
	if rh, ok := tmpl.RouteSig(s.routePrefix); ok {
		return class, key, s.shards[rh%uint64(len(s.shards))]
	}
	return class, key, nil
}

// lockAll acquires every shard lock in index order (the repo-wide
// lock order; cross-shard paths and registration both use it, so the
// order is deadlock-free by construction).
func (s *Space) lockAll() {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
}

func (s *Space) unlockAll() {
	for i := len(s.shards) - 1; i >= 0; i-- {
		s.shards[i].mu.Unlock()
	}
}

// logW records a stored write in the attached journal, if any. The
// caller holds a shard lock.
func (s *Space) logW(id uint64, t tuple.Tuple, lease sim.Duration) {
	if s.journal != nil {
		s.journal.logWrite(id, t, lease)
	}
}

// logR records a removal in the attached journal, if any. The caller
// holds a shard lock.
func (s *Space) logR(id uint64) {
	if s.journal != nil {
		s.journal.logRemove(id)
	}
}

// Runtime returns the space's runtime.
func (s *Space) Runtime() Runtime { return s.rt }

// Stats returns a snapshot of the counters.
func (s *Space) Stats() Stats {
	var out Stats
	s.lockAll()
	for _, sh := range s.shards {
		out.add(sh.stats)
	}
	s.unlockAll()
	return out
}

// Size reports the number of stored entries.
func (s *Space) Size() int {
	n := 0
	s.lockAll()
	for _, sh := range s.shards {
		n += sh.size
	}
	s.unlockAll()
	return n
}

// Count reports how many stored entries match the template.
func (s *Space) Count(tmpl tuple.Tuple) int {
	class, key, home := s.classifyRoute(tmpl)
	if home != nil {
		home.mu.Lock()
		n := home.countIn(class, key, tmpl)
		home.mu.Unlock()
		return n
	}
	n := 0
	s.lockAll()
	for _, sh := range s.shards {
		n += sh.countIn(class, key, tmpl)
	}
	s.unlockAll()
	return n
}

// Scan returns copies of every matching entry in write order without
// removing them. JavaSpaces lacks a bulk read but TSpaces (also cited
// by the paper) provides one as "scan"; registries need it.
func (s *Space) Scan(tmpl tuple.Tuple) []tuple.Tuple {
	class, key, home := s.classifyRoute(tmpl)
	var hits []scanHit
	if home != nil {
		home.mu.Lock()
		hits = home.scanIn(class, key, tmpl, hits)
		home.mu.Unlock()
	} else {
		s.lockAll()
		for _, sh := range s.shards {
			hits = sh.scanIn(class, key, tmpl, hits)
		}
		s.unlockAll()
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].id < hits[j].id })
	var out []tuple.Tuple
	for _, h := range hits {
		out = append(out, h.t)
	}
	return out
}

// Write stores a tuple with the given lease duration (NoLease for
// permanent). The tuple is cloned, so later mutation by the caller
// cannot corrupt the space. Pending blocking operations are satisfied
// immediately: every matching pending read receives a copy and the
// oldest matching pending take (if any) consumes the entry, in which
// case nothing is stored.
func (s *Space) Write(t tuple.Tuple, lease sim.Duration) (*Lease, error) {
	if t.HasWildcards() {
		return nil, ErrTemplateWrite
	}
	stored := t.Clone()
	vh, _ := stored.ValueSig()
	e := &entry{t: stored, vh: vh, kk: stored.KindSig(), sk: stored.ShapeSig()}

	sh := s.shardFor(s.routeOf(stored, vh, e.kk))
	sh.mu.Lock()
	e.id = s.seq.Add(1)
	sh.stats.Writes++
	l, fire := sh.store(e, lease, true)
	sh.mu.Unlock()

	for _, f := range fire {
		f()
	}
	return l, nil
}

// Put is Write for callers that discard the lease — the serving
// plane's write path. It runs the identical store machinery (waiter
// satisfaction, notify fan-out, journaling, lease arming, the same
// stats and journal bytes), but clones the tuple into a freelisted
// entry under the shard lock instead of allocating entry + clone +
// Lease per call: in the steady state a Put allocates nothing.
func (s *Space) Put(t tuple.Tuple, lease sim.Duration) error {
	if t.HasWildcards() {
		return ErrTemplateWrite
	}
	vh, _ := t.ValueSig()
	kk := t.KindSig()
	sh := s.shardFor(s.routeOf(t, vh, kk))
	sh.mu.Lock()
	e := sh.getEntry()
	tuple.CloneInto(&e.t, t)
	e.vh, e.kk, e.sk = vh, kk, t.ShapeSig()
	e.id = s.seq.Add(1)
	sh.stats.Writes++
	_, _, fire := sh.storeCore(e, lease, true)
	sh.mu.Unlock()

	for _, f := range fire {
		f()
	}
	return nil
}

// probeSubs scans the subscription buckets e's signatures can satisfy
// — exact-match, typed-wildcard, and untyped; nothing else in the
// space can match it. Matching readers are claimed as they are found,
// the registration-order (FIFO) oldest matching taker consumes the
// entry, and when withNotify is set notify registrations fire too
// (store sets it; the txn abort restore path does not, because the
// tuple was already announced when first written). It reports whether
// a taker consumed the entry and returns the callbacks the caller
// must run after releasing the shard lock.
func (sh *shard) probeSubs(e *entry, withNotify bool) (consumed bool, fire []func()) {
	stored := e.t
	var notifies, woken []*sub
	var takers []*subNode
	scan := func(l *subList) {
		if l == nil {
			return
		}
		for node := l.head; node != nil; {
			next := node.bNext
			sb := node.s
			switch {
			case sb.done.Load():
				sh.dropSub(node) // lazily reap raced-out registrations
			case !sb.tmpl.Matches(stored):
			case sb.notify:
				if withNotify {
					notifies = append(notifies, sb)
				}
			case sb.take:
				takers = append(takers, node)
			default: // reader
				if sb.done.CompareAndSwap(false, true) {
					sh.dropSub(node)
					woken = append(woken, sb)
					sh.stats.Reads++
				}
			}
			node = next
		}
	}
	scan(sh.subVal[e.vh])
	scan(sh.subKind[e.kk])
	scan(sh.subShape[e.sk])

	// The sorts below guard on length: sort.Slice builds a reflection
	// swapper before it looks at the data, a measurable per-write cost
	// on the serving plane where all three slices are almost always
	// empty or single.
	if len(takers) > 1 {
		sort.Slice(takers, func(i, j int) bool { return takers[i].s.seq < takers[j].s.seq })
	}
	for _, node := range takers {
		if node.s.done.CompareAndSwap(false, true) {
			sh.dropSub(node)
			woken = append(woken, node.s)
			sh.stats.Takes++
			consumed = true
			break
		}
	}

	// Fire notifies first, then satisfied waiters, each in
	// registration order — the legacy single-list fan-out order.
	if len(notifies) > 1 {
		sort.Slice(notifies, func(i, j int) bool { return notifies[i].seq < notifies[j].seq })
	}
	for _, n := range notifies {
		n := n
		cp := stored.Clone()
		sh.stats.Notifies++
		fire = append(fire, func() { n.fn(cp) })
	}
	if len(woken) > 1 {
		sort.Slice(woken, func(i, j int) bool { return woken[i].seq < woken[j].seq })
	}
	for _, w := range woken {
		if w.cancelTimer != nil {
			w.cancelTimer()
		}
		w := w
		cp := stored.Clone()
		fire = append(fire, func() {
			w.unlinkAll() // reap replicas parked on other shards
			w.cb(cp, nil)
		})
	}
	return consumed, fire
}

// store runs the write machinery for a prepared entry (id assigned,
// signatures computed, tuple already cloned) under the shard lock:
// notify fan-out, waiter satisfaction, linking, journaling and lease
// arming. journal=false is the replay path — the write already sits
// in the journal under this id, so only a replay-time consumption by
// a parked waiter is logged. The returned callbacks must run after
// the lock is released. A detached lease (nil sp) signals the entry
// went straight to a parked taker and was not stored.
func (sh *shard) store(e *entry, lease sim.Duration, journal bool) (*Lease, []func()) {
	consumed, expiry, fire := sh.storeCore(e, lease, journal)
	if consumed {
		return &Lease{}, fire // detached: entry is already gone
	}
	return &Lease{sp: sh.sp, sh: sh, id: e.id, e: e, Expiry: expiry}, fire
}

// storeCore is store without the Lease materialization — the shared
// machinery of Write (which wraps the result in a Lease) and Put
// (which discards it and so never allocates one). A consumed entry is
// recycled onto the shard freelist here: probeSubs cloned the tuple
// for every recipient, so nothing references it afterwards.
func (sh *shard) storeCore(e *entry, lease sim.Duration, journal bool) (consumed bool, expiry sim.Time, fire []func()) {
	s := sh.sp
	e.writtenAt = s.rt.Now()
	consumed, fire = sh.probeSubs(e, true)

	if consumed {
		if !journal {
			// A restored entry went straight to a parked taker: persist
			// the consumption so a later replay does not resurrect it.
			s.logR(e.id)
		}
		sh.freeEntry(e)
		return true, 0, fire
	}
	sh.link(e)
	if journal {
		s.logW(e.id, e.t, lease)
	}
	if lease > 0 {
		expiry = s.rt.Now().Add(lease)
		sh.armLease(e, expiry)
	}
	return false, expiry, fire
}

// Crash simulates a server crash: the in-memory store, subscriptions
// and parked operations vanish, with every waiter woken under
// ErrCrashed so no client hangs. The attached journal is NOT touched —
// it is the durable state a restart replays — and no removals are
// logged for the wiped entries. The entry id sequence keeps counting
// so ids stay unique across the crash.
func (s *Space) Crash() {
	s.lockAll()
	s.shards[0].stats.Crashes++
	var woken []*sub
	for _, sh := range s.shards {
		for node := sh.allHead; node != nil; {
			next := node.aNext
			sb := node.s
			node.linked = false
			node.list = nil
			if sb.notify {
				sb.done.Store(true)
			} else if sb.done.CompareAndSwap(false, true) {
				if sb.cancelTimer != nil {
					sb.cancelTimer()
				}
				woken = append(woken, sb)
			}
			node = next
		}
		sh.allHead, sh.allTail = nil, nil
		sh.subVal = make(map[uint64]*subList)
		sh.subKind = make(map[uint64]*subList)
		sh.subShape = make(map[uint64]*subList)
		sh.slFree = nil

		sh.drainLeases()
		for e := sh.head; e != nil; {
			next := e.next
			e.prev, e.next, e.kPrev, e.kNext, e.vPrev, e.vNext = nil, nil, nil, nil, nil, nil
			e.linked = false
			e = next
		}
		sh.head, sh.tail = nil, nil
		sh.byID = make(map[uint64]*entry)
		sh.kinds = make(map[uint64]*kindBucket)
		sh.shapes = make(map[uint64]*kindBucket)
		sh.values = make(map[uint64]*valueBucket)
		sh.vFree = nil
		sh.eFree = nil // wiped entries are lost, not recycled
		sh.size = 0
	}
	s.unlockAll()

	sort.Slice(woken, func(i, j int) bool { return woken[i].seq < woken[j].seq })
	for _, w := range woken {
		w.cb(tuple.Tuple{}, ErrCrashed)
	}
}

// ReadIfExists returns a copy of the oldest matching entry without
// removing it, or ok=false if none is present.
func (s *Space) ReadIfExists(tmpl tuple.Tuple) (tuple.Tuple, bool) {
	class, key, home := s.classifyRoute(tmpl)
	if home != nil {
		home.mu.Lock()
		if e := home.oldest(class, key, tmpl); e != nil {
			home.stats.Reads++
			out := e.t.Clone()
			home.mu.Unlock()
			return out, true
		}
		home.stats.Misses++
		home.mu.Unlock()
		return tuple.Tuple{}, false
	}
	s.lockAll()
	if e, esh := s.oldestAllLocked(class, key, tmpl); e != nil {
		esh.stats.Reads++
		out := e.t.Clone()
		s.unlockAll()
		return out, true
	}
	s.shards[0].stats.Misses++
	s.unlockAll()
	return tuple.Tuple{}, false
}

// TakeIfExists removes and returns the oldest matching entry, or
// ok=false if none is present.
func (s *Space) TakeIfExists(tmpl tuple.Tuple) (tuple.Tuple, bool) {
	class, key, home := s.classifyRoute(tmpl)
	if home != nil {
		// The take-hit fast path — one lock, one bucket probe, O(1)
		// unlink, no allocation — now serves every homed template:
		// under kind routing that includes wildcard-bearing typed
		// templates, the bread and butter of master/worker loops.
		sh := home
		sh.mu.Lock()
		if e := sh.oldest(class, key, tmpl); e != nil {
			sh.unlink(e)
			sh.stats.Takes++
			out := e.t
			e.t = tuple.Tuple{} // out owns the storage now
			sh.freeEntry(e)
			sh.mu.Unlock()
			return out, true
		}
		sh.stats.Misses++
		sh.mu.Unlock()
		return tuple.Tuple{}, false
	}
	s.lockAll()
	if e, esh := s.oldestAllLocked(class, key, tmpl); e != nil {
		esh.unlink(e)
		esh.stats.Takes++
		out := e.t
		e.t = tuple.Tuple{}
		esh.freeEntry(e)
		s.unlockAll()
		return out, true
	}
	s.shards[0].stats.Misses++
	s.unlockAll()
	return tuple.Tuple{}, false
}

// ProbeTake removes the oldest matching entry and clones it into
// *dst via tuple.CloneInto, reusing dst's field storage — a caller
// recycling its result tuple takes without allocating. It reports
// whether a match was found; on a miss *dst is left untouched.
//
// Stats mirror the blocking take's immediate-hit path exactly: a hit
// counts Takes, a miss counts nothing (a blocking take with a nonzero
// timeout parks on a miss rather than counting one). That is what
// lets a serving plane probe first and fall back to TakeErr only on
// miss without perturbing the stats the goldens pin. For an
// IfExists-shaped op (zero timeout, miss counted) use TakeIfExists.
func (s *Space) ProbeTake(dst *tuple.Tuple, tmpl tuple.Tuple) bool {
	class, key, home := s.classifyRoute(tmpl)
	if home != nil {
		sh := home
		sh.mu.Lock()
		if e := sh.oldest(class, key, tmpl); e != nil {
			sh.unlink(e)
			sh.stats.Takes++
			tuple.CloneInto(dst, e.t)
			sh.freeEntry(e)
			sh.mu.Unlock()
			return true
		}
		sh.mu.Unlock()
		return false
	}
	s.lockAll()
	if e, esh := s.oldestAllLocked(class, key, tmpl); e != nil {
		esh.unlink(e)
		esh.stats.Takes++
		tuple.CloneInto(dst, e.t)
		esh.freeEntry(e)
		s.unlockAll()
		return true
	}
	s.unlockAll()
	return false
}

// ProbeRead is ProbeTake without removal: the oldest match is cloned
// into *dst (entry left in place, Reads counted on a hit, nothing on
// a miss).
func (s *Space) ProbeRead(dst *tuple.Tuple, tmpl tuple.Tuple) bool {
	class, key, home := s.classifyRoute(tmpl)
	if home != nil {
		sh := home
		sh.mu.Lock()
		if e := sh.oldest(class, key, tmpl); e != nil {
			sh.stats.Reads++
			tuple.CloneInto(dst, e.t)
			sh.mu.Unlock()
			return true
		}
		sh.mu.Unlock()
		return false
	}
	s.lockAll()
	if e, esh := s.oldestAllLocked(class, key, tmpl); e != nil {
		esh.stats.Reads++
		tuple.CloneInto(dst, e.t)
		s.unlockAll()
		return true
	}
	s.unlockAll()
	return false
}

// oldestAllLocked finds the globally oldest match across shards; the
// caller holds every shard lock.
func (s *Space) oldestAllLocked(class subClass, key uint64, tmpl tuple.Tuple) (*entry, *shard) {
	var best *entry
	var bsh *shard
	for _, sh := range s.shards {
		if c := sh.oldest(class, key, tmpl); c != nil && (best == nil || c.id < best.id) {
			best, bsh = c, sh
		}
	}
	return best, bsh
}

// takeEntry removes and returns the oldest matching entry without
// miss accounting — the store side of a transactional take, whose
// miss is only known after the transaction checks its own buffered
// writes.
func (s *Space) takeEntry(tmpl tuple.Tuple) *entry {
	class, key, home := s.classifyRoute(tmpl)
	if home != nil {
		sh := home
		sh.mu.Lock()
		e := sh.oldest(class, key, tmpl)
		if e != nil {
			sh.unlink(e)
			sh.stats.Takes++
		}
		sh.mu.Unlock()
		return e
	}
	s.lockAll()
	e, esh := s.oldestAllLocked(class, key, tmpl)
	if e != nil {
		esh.unlink(e)
		esh.stats.Takes++
	}
	s.unlockAll()
	return e
}

// readEntry returns a copy of the oldest matching entry without miss
// accounting (see takeEntry).
func (s *Space) readEntry(tmpl tuple.Tuple) (tuple.Tuple, bool) {
	class, key, home := s.classifyRoute(tmpl)
	if home != nil {
		sh := home
		sh.mu.Lock()
		if e := sh.oldest(class, key, tmpl); e != nil {
			sh.stats.Reads++
			out := e.t.Clone()
			sh.mu.Unlock()
			return out, true
		}
		sh.mu.Unlock()
		return tuple.Tuple{}, false
	}
	s.lockAll()
	if e, esh := s.oldestAllLocked(class, key, tmpl); e != nil {
		esh.stats.Reads++
		out := e.t.Clone()
		s.unlockAll()
		return out, true
	}
	s.unlockAll()
	return tuple.Tuple{}, false
}

// countMiss accounts an IfExists miss discovered outside a shard
// critical section (transactions).
func (s *Space) countMiss() {
	sh := s.shards[0]
	sh.mu.Lock()
	sh.stats.Misses++
	sh.mu.Unlock()
}

// Read delivers a copy of a matching entry to cb. If none is present
// it parks until one is written or the timeout elapses (sim.Forever
// blocks indefinitely); on timeout cb receives ok=false. cb runs
// without space locks held.
func (s *Space) Read(tmpl tuple.Tuple, timeout sim.Duration, cb func(tuple.Tuple, bool)) {
	s.blockingOp(tmpl, timeout, false, adaptBoolCB(cb))
}

// Take is Read with removal semantics: the matched entry is consumed.
func (s *Space) Take(tmpl tuple.Tuple, timeout sim.Duration, cb func(tuple.Tuple, bool)) {
	s.blockingOp(tmpl, timeout, true, adaptBoolCB(cb))
}

// ReadErr is Read with a typed failure: cb receives nil on success,
// ErrTimeout on expiry or immediate miss, or ErrCrashed if the space
// crashes while the operation is parked.
func (s *Space) ReadErr(tmpl tuple.Tuple, timeout sim.Duration, cb func(tuple.Tuple, error)) {
	s.blockingOp(tmpl, timeout, false, cb)
}

// TakeErr is Take with a typed failure (see ReadErr).
func (s *Space) TakeErr(tmpl tuple.Tuple, timeout sim.Duration, cb func(tuple.Tuple, error)) {
	s.blockingOp(tmpl, timeout, true, cb)
}

// adaptBoolCB collapses the typed error to the legacy ok flag.
func adaptBoolCB(cb func(tuple.Tuple, bool)) func(tuple.Tuple, error) {
	return func(t tuple.Tuple, err error) { cb(t, err == nil) }
}

func (s *Space) blockingOp(tmpl tuple.Tuple, timeout sim.Duration, take bool, cb func(tuple.Tuple, error)) {
	// home non-nil: single-shard op; nil: all shards locked.
	class, key, home := s.classifyRoute(tmpl)
	if home != nil {
		home.mu.Lock()
	} else {
		s.lockAll()
	}
	unlock := func() {
		if home != nil {
			home.mu.Unlock()
		} else {
			s.unlockAll()
		}
	}

	var e *entry
	esh := home
	if home != nil {
		e = home.oldest(class, key, tmpl)
	} else {
		e, esh = s.oldestAllLocked(class, key, tmpl)
	}
	if e != nil {
		var out tuple.Tuple
		if take {
			esh.unlink(e)
			esh.stats.Takes++
			out = e.t
			e.t = tuple.Tuple{} // out owns the storage now
			esh.freeEntry(e)
		} else {
			esh.stats.Reads++
			out = e.t.Clone()
		}
		unlock()
		cb(out, nil)
		return
	}
	if timeout == 0 {
		if home != nil {
			home.stats.Misses++
		} else {
			s.shards[0].stats.Misses++
		}
		unlock()
		cb(tuple.Tuple{}, ErrTimeout)
		return
	}

	// Park. Homed templates register on their home shard only — under
	// kind routing every matching write lands there too; an unroutable
	// template registers a node per shard, because a matching write
	// can land on any of them. Registration and the bucket appends
	// happen under the lock(s), so bucket order == seq order.
	// The template is cloned: a parked waiter outlives the call, and
	// callers (the serving plane's pooled decoders in particular) are
	// free to reuse their template storage the moment we return.
	w := &sub{tmpl: tmpl.Clone(), class: class, key: key, take: take, cb: cb}
	w.seq = s.subSeq.Add(1)
	if home != nil {
		w.nodes = make([]subNode, 1)
		home.addSub(w, &w.nodes[0])
	} else {
		w.nodes = make([]subNode, len(s.shards))
		for i, sh := range s.shards {
			sh.addSub(w, &w.nodes[i])
		}
	}
	if timeout != sim.Forever {
		statsSh := home
		if statsSh == nil {
			statsSh = s.shards[0]
		}
		w.cancelTimer = s.rt.After(timeout, func() {
			if !w.done.CompareAndSwap(false, true) {
				return
			}
			w.unlinkAll()
			statsSh.mu.Lock()
			statsSh.stats.Timeouts++
			statsSh.mu.Unlock()
			cb(tuple.Tuple{}, ErrTimeout)
		})
	}
	unlock()
}

// cancelSub withdraws a parked waiter before it fires: the O(1)
// intrusive unlink on every shard it registered with. It reports
// whether the waiter was still pending. (Internal: the public API
// cancels via timeouts; benchmarks exercise this directly.)
func (s *Space) cancelSub(w *sub) bool {
	if !w.done.CompareAndSwap(false, true) {
		return false
	}
	if w.cancelTimer != nil {
		w.cancelTimer()
	}
	w.unlinkAll()
	return true
}

// Notify registers fn to be called (without locks held) for every
// tuple subsequently written that matches the template, implementing
// the subscribe/notify paradigm. The returned cancel function ends
// the subscription.
func (s *Space) Notify(tmpl tuple.Tuple, fn func(tuple.Tuple)) (cancel func()) {
	class, key, home := s.classifyRoute(tmpl)
	// Cloned for the same reason blockingOp clones on park: the
	// subscription outlives the call, the caller's template does not
	// have to.
	n := &sub{tmpl: tmpl.Clone(), class: class, key: key, notify: true, fn: fn}
	if home != nil {
		sh := home
		sh.mu.Lock()
		n.seq = s.subSeq.Add(1)
		n.nodes = make([]subNode, 1)
		sh.addSub(n, &n.nodes[0])
		sh.mu.Unlock()
	} else {
		s.lockAll()
		n.seq = s.subSeq.Add(1)
		n.nodes = make([]subNode, len(s.shards))
		for i, sh := range s.shards {
			sh.addSub(n, &n.nodes[i])
		}
		s.unlockAll()
	}
	return func() {
		if n.done.CompareAndSwap(false, true) {
			n.unlinkAll()
		}
	}
}

// TakeWait and ReadWait are blocking conveniences for wall-clock
// callers (server goroutines). They must not be used from simulation
// event context, where blocking the goroutine would deadlock the
// kernel; simulated clients use the callback forms or sim.Process.

// TakeWait blocks the calling goroutine until a take succeeds or the
// timeout elapses.
func (s *Space) TakeWait(tmpl tuple.Tuple, timeout sim.Duration) (tuple.Tuple, bool) {
	ch := make(chan struct {
		t  tuple.Tuple
		ok bool
	}, 1)
	s.Take(tmpl, timeout, func(t tuple.Tuple, ok bool) {
		ch <- struct {
			t  tuple.Tuple
			ok bool
		}{t, ok}
	})
	r := <-ch
	return r.t, r.ok
}

// ReadWait blocks the calling goroutine until a read succeeds or the
// timeout elapses.
func (s *Space) ReadWait(tmpl tuple.Tuple, timeout sim.Duration) (tuple.Tuple, bool) {
	ch := make(chan struct {
		t  tuple.Tuple
		ok bool
	}, 1)
	s.Read(tmpl, timeout, func(t tuple.Tuple, ok bool) {
		ch <- struct {
			t  tuple.Tuple
			ok bool
		}{t, ok}
	})
	r := <-ch
	return r.t, r.ok
}
