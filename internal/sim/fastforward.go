package sim

// Bulk-advance API: the burst-mode fast path skips provably event-free
// stretches of simulated time (FastForward), bounded by the next
// pending event (NextEventAt) and the current run's horizon (Horizon).
// Skipping rewrites event bookkeeping only — the modelled timeline a
// caller can observe through Now, event timestamps and model
// statistics is unchanged, which is what keeps fast-path and per-event
// runs byte-identical.

// foreverTime is the horizon of an unbounded run.
const foreverTime = Time(Forever)

// NextEventAt reports the timestamp of the earliest pending event, or
// false when the calendar is empty. Fast-path code uses it to bound a
// coalesced window so that no foreign event is skipped.
func (k *Kernel) NextEventAt() (Time, bool) {
	if len(k.events) == 0 {
		return 0, false
	}
	return k.events[0].at, true
}

// Horizon reports the bound of the Run call currently executing:
// RunUntil/RunRealtime's argument from inside the run, Forever
// otherwise. Coalesced windows must not extend past it, because the
// slow path would have stopped firing events there.
func (k *Kernel) Horizon() Time { return k.horizon }

// CoalesceAllowed reports whether a fast path may skip events on this
// kernel at all. Tracing observes every fired event and real-time
// pacing sleeps before each one, so either disables it.
func (k *Kernel) CoalesceAllowed() bool { return k.trace == nil && !k.realtime }

// FastForward advances the clock to t without firing anything. It is
// the caller's proof obligation that the skipped stretch is
// quiescent-periodic — nothing observable happens in (Now, t) — and
// the kernel enforces the checkable half: it refuses (returning false)
// if t lies in the past, beyond the current run's horizon, or past a
// pending event that would have fired inside the skipped window.
func (k *Kernel) FastForward(t Time) bool {
	if t < k.now || t > k.horizon {
		return false
	}
	if len(k.events) > 0 && k.events[0].at < t {
		return false
	}
	k.now = t
	return true
}
