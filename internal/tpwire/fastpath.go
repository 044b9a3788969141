package tpwire

import "tpspace/internal/sim"

// Burst-mode fast path. At high bit rates the poller's idle sweeps
// dominate the event count: every poll period it pings an empty chain,
// sees nothing, and sleeps again — thousands of identical windows
// between two interesting moments (a CBR packet, the tuplespace
// exchange, a fault). The fast path detects that quiescent-periodic
// steady state empirically and replays whole windows as bookkeeping:
// it fast-forwards the kernel clock across K provably event-free
// cycles, adds K times the measured per-window statistics deltas, and
// translates the slave watchdog deadlines by K cycles. Modelled time
// is never changed — only the number of kernel events spent modelling
// it — so a run with the fast path on is byte-identical to one with it
// off.
//
// The quiescent-periodic predicate has two halves:
//
//   - Eligibility (coalesceEligible): no tracing, no real-time pacing,
//     no possible RNG draw from frame corruption, master fully idle,
//     and no slave resetting or with a pending device interrupt. Under
//     these conditions an idle sweep is a pure function of the master's
//     addressing mirror and the chain config: its frames touch no
//     device state and consume no randomness.
//
//   - Calibration: three consecutive idle points (the poller's Wait
//     sites) whose two inter-point windows have identical length,
//     identical stats deltas (chain, master, poller, every slave),
//     exactly one sweep each, no service/error/reset activity, and
//     identical end states (mirror, slave addressing, relative
//     watchdog deadlines). Two identical pure windows prove the next
//     window would be identical too, as long as no foreign event
//     intervenes.
//
// The skip itself is bounded strictly below the earliest pending
// event (so no foreign event — CBR tick, tuplespace op, fault window,
// drop release — is ever jumped over, and same-instant seq ordering
// hazards cannot arise) and by the current run's horizon (so the slow
// machinery still performs the final partial sweep exactly as it
// would have). Anything the calibration cannot prove simply leaves
// the poller on the per-event path: the fast path is an optimisation
// gated on proofs, never a semantic switch.

// burstCalibration is the poller's idle-point history: up to three
// snapshots forming two comparable windows.
type burstCalibration struct {
	snaps [3]idleSnap
	n     int
}

// idleSnap captures everything an idle sweep can read or write, taken
// at one idle point (immediately before the poller parks).
type idleSnap struct {
	at     sim.Time
	chain  ChainStats
	master MasterStats
	poller PollerStats

	// Master addressing mirror.
	selNode   int
	selSystem bool
	regPtr    int
	broadcast bool

	slaves []slaveSnap // in chain order
}

// slaveSnap is the per-slave half of an idle point.
type slaveSnap struct {
	stats    SlaveStats
	selected bool
	system   bool
	regPtr   uint8
	// wdIn is the armed watchdog's deadline relative to the snapshot
	// time, or -1 when disarmed. Relative deadlines compare equal
	// across periodic windows; absolute ones never would.
	wdIn sim.Duration
}

// idleWait is the funnel for every idle-sweep park site: it gives the
// fast path a chance to skip ahead, then sleeps one poll period as the
// slow path always has.
func (p *Poller) idleWait(proc *sim.Process) {
	if p.coalesceEligible() {
		p.maybeCoalesce()
	} else {
		p.burst.n = 0
	}
	proc.Wait(p.period)
}

// coalesceEligible reports whether an idle sweep is currently a pure
// function of mirror state and config: nothing observes individual
// events (trace, realtime), nothing may draw randomness (frame
// corruption disabled, or the armed fault hook provably inert), and
// nothing is mid-flight (master busy, slave resetting, device
// interrupt pending).
func (p *Poller) coalesceEligible() bool {
	c := p.chain
	if !p.FastPath || !c.kernel.CoalesceAllowed() || c.tracer != nil {
		return false
	}
	if c.corruptHook != nil {
		if c.corruptIdle == nil || !c.corruptIdle() {
			return false
		}
	} else if c.cfg.FrameErrorRate > 0 {
		return false
	}
	m := c.master
	if !m.Idle() {
		return false
	}
	for _, s := range c.slaves {
		if s.resetting || s.dev.Pending() {
			return false
		}
	}
	return true
}

// snapshot fills s with the current idle-point state, reusing its
// slave slice.
func (p *Poller) snapshot(s *idleSnap) {
	c := p.chain
	m := c.master
	now := c.kernel.Now()
	s.at = now
	s.chain = c.stats
	s.master = m.stats
	s.poller = p.stats
	s.selNode, s.selSystem, s.regPtr, s.broadcast = m.selNode, m.selSystem, m.regPtr, m.broadcast
	s.slaves = s.slaves[:0]
	for _, sl := range c.slaves {
		ss := slaveSnap{stats: sl.stats, selected: sl.selected, system: sl.system, regPtr: sl.regPtr, wdIn: -1}
		if sl.watchdog != nil {
			ss.wdIn = sl.watchdog.At().Sub(now)
		}
		s.slaves = append(s.slaves, ss)
	}
}

// chainDelta, masterDelta, pollerDelta and slaveDelta are field-wise
// window differences; the structs are comparable, so two windows match
// exactly when their deltas compare equal.

func chainDelta(a, b *idleSnap) ChainStats {
	return ChainStats{
		TXFrames:    b.chain.TXFrames - a.chain.TXFrames,
		RXFrames:    b.chain.RXFrames - a.chain.RXFrames,
		CorruptedTX: b.chain.CorruptedTX - a.chain.CorruptedTX,
		CorruptedRX: b.chain.CorruptedRX - a.chain.CorruptedRX,
		BusyTime:    b.chain.BusyTime - a.chain.BusyTime,
	}
}

func masterDelta(a, b *idleSnap) MasterStats {
	return MasterStats{
		Transactions: b.master.Transactions - a.master.Transactions,
		Frames:       b.master.Frames - a.master.Frames,
		Retries:      b.master.Retries - a.master.Retries,
		Timeouts:     b.master.Timeouts - a.master.Timeouts,
		Failures:     b.master.Failures - a.master.Failures,
		Broadcasts:   b.master.Broadcasts - a.master.Broadcasts,
	}
}

func pollerDelta(a, b *idleSnap) PollerStats {
	return PollerStats{
		Sweeps:   b.poller.Sweeps - a.poller.Sweeps,
		Pings:    b.poller.Pings - a.poller.Pings,
		Serviced: b.poller.Serviced - a.poller.Serviced,
		Bytes:    b.poller.Bytes - a.poller.Bytes,
		Rereads:  b.poller.Rereads - a.poller.Rereads,
		Repushes: b.poller.Repushes - a.poller.Repushes,
		Errors:   b.poller.Errors - a.poller.Errors,
	}
}

func slaveDelta(a, b *idleSnap, i int) SlaveStats {
	return SlaveStats{
		FramesSeen:   b.slaves[i].stats.FramesSeen - a.slaves[i].stats.FramesSeen,
		Executed:     b.slaves[i].stats.Executed - a.slaves[i].stats.Executed,
		Replies:      b.slaves[i].stats.Replies - a.slaves[i].stats.Replies,
		Resets:       b.slaves[i].stats.Resets - a.slaves[i].stats.Resets,
		CRCDiscarded: b.slaves[i].stats.CRCDiscarded - a.slaves[i].stats.CRCDiscarded,
		Drops:        b.slaves[i].stats.Drops - a.slaves[i].stats.Drops,
	}
}

// pureIdleWindow reports whether the window (a, b] was exactly one
// sweep that serviced nothing, absorbed no errors, corrupted no frames
// and reset no slaves — the only kind of window the fast path may
// replicate.
func pureIdleWindow(a, b *idleSnap) bool {
	pd := pollerDelta(a, b)
	if pd.Sweeps != 1 || pd.Serviced != 0 || pd.Bytes != 0 || pd.Rereads != 0 || pd.Repushes != 0 || pd.Errors != 0 {
		return false
	}
	cd := chainDelta(a, b)
	if cd.CorruptedTX != 0 || cd.CorruptedRX != 0 {
		return false
	}
	md := masterDelta(a, b)
	if md.Retries != 0 || md.Timeouts != 0 || md.Failures != 0 || md.Broadcasts != 0 {
		return false
	}
	if len(a.slaves) != len(b.slaves) {
		return false
	}
	for i := range a.slaves {
		sd := slaveDelta(a, b, i)
		if sd.Resets != 0 || sd.CRCDiscarded != 0 || sd.Drops != 0 {
			return false
		}
	}
	return true
}

// windowsMatch reports whether the two windows (s0,s1) and (s1,s2)
// are exact replicas: equal stats deltas everywhere and an identical
// end state (mirror, slave addressing, relative watchdog deadlines).
func windowsMatch(s0, s1, s2 *idleSnap) bool {
	if chainDelta(s0, s1) != chainDelta(s1, s2) {
		return false
	}
	if masterDelta(s0, s1) != masterDelta(s1, s2) {
		return false
	}
	if pollerDelta(s0, s1) != pollerDelta(s1, s2) {
		return false
	}
	if s1.selNode != s2.selNode || s1.selSystem != s2.selSystem ||
		s1.regPtr != s2.regPtr || s1.broadcast != s2.broadcast {
		return false
	}
	if len(s0.slaves) != len(s1.slaves) || len(s1.slaves) != len(s2.slaves) {
		return false
	}
	for i := range s1.slaves {
		if slaveDelta(s0, s1, i) != slaveDelta(s1, s2, i) {
			return false
		}
		a, b := &s1.slaves[i], &s2.slaves[i]
		if a.selected != b.selected || a.system != b.system || a.regPtr != b.regPtr || a.wdIn != b.wdIn {
			return false
		}
	}
	return true
}

// maybeCoalesce records the current idle point and, once two
// consecutive windows prove the steady state, skips as many whole
// cycles as fit strictly before the earliest pending event and within
// the run's horizon.
func (p *Poller) maybeCoalesce() {
	b := &p.burst
	if b.n == 3 {
		b.snaps[0], b.snaps[1], b.snaps[2] = b.snaps[1], b.snaps[2], b.snaps[0]
		b.n = 2
	}
	p.snapshot(&b.snaps[b.n])
	b.n++
	if b.n < 3 {
		return
	}
	s0, s1, s2 := &b.snaps[0], &b.snaps[1], &b.snaps[2]
	cycle := s2.at.Sub(s1.at)
	if cycle <= 0 || s1.at.Sub(s0.at) != cycle {
		return
	}
	if !pureIdleWindow(s0, s1) || !pureIdleWindow(s1, s2) || !windowsMatch(s0, s1, s2) {
		return
	}

	c := p.chain
	k := c.kernel
	now := s2.at
	// A watchdog due exactly now would fire the instant the poller
	// parks; never coalesce across it.
	for _, sl := range c.slaves {
		if sl.watchdog != nil && sl.watchdog.At() <= now {
			return
		}
	}
	// Pause the watchdogs so they do not bound the event peek; their
	// deadlines are restored below, translated across the skip.
	for _, sl := range c.slaves {
		if sl.watchdog != nil {
			k.Cancel(sl.watchdog)
			sl.watchdog = nil
		}
	}
	rearm := func(base sim.Time) {
		for i, sl := range c.slaves {
			if d := s2.slaves[i].wdIn; d >= 0 {
				sl.watchdog = k.At(base.Add(d), sl.onWatchdog)
			}
		}
	}

	// K whole cycles fit if they end strictly before the earliest
	// pending foreign event (same-instant ordering stays untouched)
	// and no later than the horizon (the final partial sweep is left
	// to the slow machinery).
	var skip int64
	next, hasNext := k.NextEventAt()
	horizon := k.Horizon()
	switch {
	case hasNext && next <= horizon:
		skip = (int64(next.Sub(now)) - 1) / int64(cycle)
	case horizon < sim.Time(sim.Forever):
		skip = int64(horizon.Sub(now)) / int64(cycle)
	default:
		// Unbounded run with an empty calendar: the slow path would
		// spin forever too; there is nothing meaningful to skip to.
		skip = 0
	}
	if skip <= 0 {
		rearm(now)
		return
	}
	end := now.Add(sim.Duration(skip) * cycle)
	if !k.FastForward(end) {
		rearm(now)
		b.n = 0
		return
	}

	// Replay the skipped windows as bookkeeping: K times the measured
	// per-window deltas.
	addChain(&c.stats, chainDelta(s1, s2), skip)
	addMaster(&c.master.stats, masterDelta(s1, s2), skip)
	addPoller(&p.stats, pollerDelta(s1, s2), skip)
	for i, sl := range c.slaves {
		addSlave(&sl.stats, slaveDelta(s1, s2, i), skip)
	}
	rearm(end)
	b.n = 0
}

func addChain(dst *ChainStats, d ChainStats, k int64) {
	dst.TXFrames += d.TXFrames * uint64(k)
	dst.RXFrames += d.RXFrames * uint64(k)
	dst.CorruptedTX += d.CorruptedTX * uint64(k)
	dst.CorruptedRX += d.CorruptedRX * uint64(k)
	dst.BusyTime += d.BusyTime * sim.Duration(k)
}

func addMaster(dst *MasterStats, d MasterStats, k int64) {
	dst.Transactions += d.Transactions * uint64(k)
	dst.Frames += d.Frames * uint64(k)
	dst.Retries += d.Retries * uint64(k)
	dst.Timeouts += d.Timeouts * uint64(k)
	dst.Failures += d.Failures * uint64(k)
	dst.Broadcasts += d.Broadcasts * uint64(k)
}

func addPoller(dst *PollerStats, d PollerStats, k int64) {
	dst.Sweeps += d.Sweeps * uint64(k)
	dst.Pings += d.Pings * uint64(k)
	dst.Serviced += d.Serviced * uint64(k)
	dst.Bytes += d.Bytes * uint64(k)
	dst.Rereads += d.Rereads * uint64(k)
	dst.Repushes += d.Repushes * uint64(k)
	dst.Errors += d.Errors * uint64(k)
}

func addSlave(dst *SlaveStats, d SlaveStats, k int64) {
	dst.FramesSeen += d.FramesSeen * uint64(k)
	dst.Executed += d.Executed * uint64(k)
	dst.Replies += d.Replies * uint64(k)
	dst.Resets += d.Resets * uint64(k)
	dst.CRCDiscarded += d.CRCDiscarded * uint64(k)
	dst.Drops += d.Drops * uint64(k)
}
