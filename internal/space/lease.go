package space

import "tpspace/internal/sim"

// lease.go is the lease engine: one hierarchical timing wheel and one
// re-armable runtime timer per shard (a runtime timer per leased entry
// does not survive the 10^7 outstanding leases the ROADMAP targets).
// Arming and cancelling a lease are intrusive wheel operations on
// storage embedded in the entry — 0 allocations — and expiry is a
// batched sweep: one shard lock acquisition unlinks every entry that
// has lapsed and journals the removals in one pass.
//
// Determinism: the wheel never rounds a deadline (see sim.Wheel). The
// sweep timer is always armed at or before the earliest armed
// deadline, and each sweep expires exactly the entries with
// expiry <= Now() before re-arming at the wheel's next wake. Under a
// SimRuntime, sweeps are therefore kernel events that fire at exactly
// the entries' deadlines — the instants the paper CLI's byte-identical
// goldens were captured against; spurious wakes (a cancelled earliest
// lease, a cascade boundary) advance the wheel and re-arm without
// observable effect.

// armLease schedules expiry of a linked entry at the given absolute
// time; the caller holds the shard lock. This is an O(1) intrusive
// insert plus, when the new deadline precedes the scheduled sweep, one
// timer reset.
func (sh *shard) armLease(e *entry, expiry sim.Time) {
	e.exp.Owner = e
	sh.wheel.Add(&e.exp, expiry)
	if sh.sweepAt == 0 || expiry < sh.sweepAt {
		sh.scheduleSweep(expiry)
	}
}

// disarmLease cancels a pending expiry; the caller holds the shard
// lock. The sweep timer is left alone unless the wheel emptied — a
// sweep firing with nothing due is harmless (it re-arms from the
// wheel), but a timer armed under an empty wheel would tick forever.
func (sh *shard) disarmLease(e *entry) {
	if sh.wheel.Cancel(&e.exp) && sh.wheel.Len() == 0 && sh.sweepAt != 0 {
		sh.sweep.Stop()
		sh.sweepAt = 0
	}
}

// renewLease replaces a linked entry's pending expiry in place; the
// caller holds the shard lock. It rides Wheel.Reset's same-slot fast
// path — a renewal that stays within the timer's current slot is one
// deadline store — instead of a full disarm+re-arm round trip.
func (sh *shard) renewLease(e *entry, expiry sim.Time) {
	e.exp.Owner = e
	sh.wheel.Reset(&e.exp, expiry)
	if sh.sweepAt == 0 || expiry < sh.sweepAt {
		sh.scheduleSweep(expiry)
	}
}

// scheduleSweep (re-)arms the shard sweep timer to fire at the given
// absolute time; the caller holds the shard lock.
func (sh *shard) scheduleSweep(at sim.Time) {
	sh.sweepAt = at
	d := sim.Duration(at - sh.sp.rt.Now())
	if d < 0 {
		d = 0
	}
	sh.sweep.Reset(d)
}

// runSweep is the shard sweep timer's callback: expire, under one
// lock acquisition, every lease that has lapsed. Expired entries are
// unlinked without per-entry journal writes; the removals are logged
// in one batch afterwards (one journal lock, one buffered run of
// records — same bytes as the per-entry path, so replay is
// unaffected).
func (sh *shard) runSweep() {
	s := sh.sp
	sh.mu.Lock()
	now := s.rt.Now()
	ids := sh.expIDs[:0]
	for t := sh.wheel.AdvanceTo(now); t != nil; {
		next := t.Next()
		e := t.Owner.(*entry)
		if e.linked {
			sh.unlinkNoLog(e)
			sh.stats.Expired++
			ids = append(ids, e.id)
			sh.freeEntry(e) // fully detached; nothing references it now
		}
		t = next
	}
	sh.expIDs = ids[:0] // retain capacity across sweeps
	if len(ids) > 0 && s.journal != nil {
		s.journal.logRemoveBatch(ids)
	}
	sh.sweepAt = 0
	if wake, ok := sh.wheel.NextWake(); ok {
		sh.scheduleSweep(wake)
	}
	sh.mu.Unlock()
}

// drainLeases discards every armed lease wholesale (the crash path);
// the caller holds the shard lock.
func (sh *shard) drainLeases() {
	sh.wheel.DrainAll()
	if sh.sweepAt != 0 {
		sh.sweep.Stop()
		sh.sweepAt = 0
	}
}
