package sim

import (
	"fmt"
	"math/rand"
)

// Priority orders events that fire at the same instant. Lower values
// run first. Using explicit priorities keeps co-simulated domains
// deterministic: for example, wire-level sampling runs before
// higher-level protocol reactions scheduled for the same tick.
type Priority int

// Standard priorities. Most events use Normal.
const (
	PriorityWire    Priority = -10 // physical-layer sampling
	PriorityNormal  Priority = 0
	PriorityMonitor Priority = 10 // statistics and tracing hooks
)

// Event is a scheduled callback. Events are created by the Kernel's
// Schedule methods and may be cancelled until they fire.
//
// Lifetime rule: once an event has fired or been cancelled the kernel
// recycles its storage for a later scheduling, so a retained *Event
// is only meaningful while the event is pending. Holders that clear
// their reference when the event fires (in the event's own callback)
// may keep using plain Cancel; holders whose reference can outlive
// the firing must capture Seq at scheduling time and cancel through
// Kernel.CancelSeq, which is a safe no-op on a stale handle.
type Event struct {
	at       Time
	priority Priority
	seq      uint64
	index    int // heap index, -1 once fired or cancelled
	fn       func()
	label    string
}

// At reports when the event will fire.
func (e *Event) At() Time { return e.at }

// Label reports the debug label attached at scheduling time.
func (e *Event) Label() string { return e.label }

// Pending reports whether the event is still in the calendar.
func (e *Event) Pending() bool { return e.index >= 0 }

// Seq returns the scheduling's unique sequence number. Each call to a
// Schedule method gets a fresh value, including reschedulings that
// reuse this Event's storage, so (e, e.Seq()) captured together
// identify one scheduling forever; see Kernel.CancelSeq.
func (e *Event) Seq() uint64 { return e.seq }

// Kernel is the discrete-event scheduler. It is not safe for
// concurrent use from multiple goroutines except through Process,
// which hands control back and forth in a strictly sequential way.
type Kernel struct {
	now    Time
	seq    uint64
	events calendar
	free   []*Event // recycled fired/cancelled events
	// procs holds every spawned process whose body has not returned;
	// Shutdown unwinds them.
	procs   []*Process
	stopped bool
	fired   uint64
	rng     *rand.Rand
	// horizon is the bound of the Run* call currently executing:
	// RunUntil's argument while inside RunUntil, Forever otherwise.
	// Fast-path code uses it to keep coalesced windows inside the run.
	horizon Time
	// realtime is set while RunRealtime is pacing events against the
	// wall clock; coalescing is disabled there because skipping events
	// would also skip their pacing sleeps.
	realtime bool
	// trace, if set, receives every fired event. Used by tests and by
	// cmd/tpsim's -trace flag.
	trace func(t Time, label string)
}

// NewKernel returns a kernel with its clock at zero and a deterministic
// random source seeded with seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed)), horizon: foreverTime}
}

// Now returns the current simulated time. Kernel implements Clock.
func (k *Kernel) Now() Time { return k.now }

// Rand exposes the kernel's deterministic random source. All model
// randomness (traffic jitter, error injection) must come from here so
// that a run is reproducible from its seed.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Pending reports the number of events currently in the calendar.
func (k *Kernel) Pending() int { return len(k.events) }

// Fired reports how many events have been executed so far.
func (k *Kernel) Fired() uint64 { return k.fired }

// SetTrace installs a hook invoked for every fired event.
func (k *Kernel) SetTrace(fn func(t Time, label string)) { k.trace = fn }

// Schedule arranges for fn to run after delay. A negative delay is an
// error in the model and panics, because silently reordering the past
// would corrupt causality.
func (k *Kernel) Schedule(delay Duration, fn func()) *Event {
	return k.ScheduleName("", delay, fn)
}

// ScheduleName is Schedule with a debug label.
func (k *Kernel) ScheduleName(label string, delay Duration, fn func()) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return k.at(label, k.now.Add(delay), PriorityNormal, fn)
}

// SchedulePrio schedules fn after delay with an explicit same-instant
// priority.
func (k *Kernel) SchedulePrio(label string, delay Duration, p Priority, fn func()) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return k.at(label, k.now.Add(delay), p, fn)
}

// At schedules fn at absolute time t, which must not precede the
// current time.
func (k *Kernel) At(t Time, fn func()) *Event {
	if t < k.now {
		panic(fmt.Sprintf("sim: schedule in the past: %v < %v", t, k.now))
	}
	return k.at("", t, PriorityNormal, fn)
}

func (k *Kernel) at(label string, t Time, p Priority, fn func()) *Event {
	var e *Event
	if n := len(k.free); n > 0 {
		e = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		e = new(Event)
	}
	e.at, e.priority, e.seq, e.fn, e.label = t, p, k.seq, fn, label
	k.seq++
	k.events.push(e)
	return e
}

// recycle returns a fired or cancelled event to the free list,
// dropping its callback and label so their referents can be
// collected. e.seq is kept until the next reuse so a stale CancelSeq
// still sees a mismatch-free comparison.
func (k *Kernel) recycle(e *Event) {
	e.fn = nil
	e.label = ""
	k.free = append(k.free, e)
}

// Cancel removes a pending event from the calendar. Cancelling an
// already-fired or already-cancelled event is a no-op and reports
// false — but see the Event lifetime rule: once the kernel may have
// reused the storage behind a stale handle, use CancelSeq instead.
func (k *Kernel) Cancel(e *Event) bool {
	if e == nil || e.index < 0 {
		return false
	}
	k.events.remove(e.index)
	k.recycle(e)
	return true
}

// CancelSeq cancels the scheduling identified by (e, seq) where seq
// was captured via e.Seq() right after scheduling. Unlike Cancel it
// is safe on handles that may have outlived their event: if the event
// already fired, was already cancelled, or the storage now carries a
// different scheduling, CancelSeq does nothing and reports false.
func (k *Kernel) CancelSeq(e *Event, seq uint64) bool {
	if e == nil || e.seq != seq {
		return false
	}
	return k.Cancel(e)
}

// Step fires the single next event, advancing the clock to it. It
// reports false when the calendar is empty.
func (k *Kernel) Step() bool {
	if len(k.events) == 0 {
		return false
	}
	e := k.events.popMin()
	k.now = e.at
	k.fired++
	if k.trace != nil {
		k.trace(k.now, e.label)
	}
	fn := e.fn
	fn()
	// Recycle only after the callback returns: the callback may hold
	// this very handle (a timeout cancelling itself on the retry path)
	// and must observe the fired no-op, not a reused live event.
	k.recycle(e)
	return true
}

// Run executes events until the calendar drains or Stop is called.
func (k *Kernel) Run() {
	k.stopped = false
	for !k.stopped && k.Step() {
	}
}

// RunUntil executes events with timestamps not after horizon, then
// advances the clock to the horizon. Events scheduled beyond the
// horizon remain pending.
func (k *Kernel) RunUntil(horizon Time) {
	prev := k.horizon
	k.horizon = horizon
	defer func() { k.horizon = prev }()
	k.stopped = false
	for !k.stopped && len(k.events) > 0 && k.events[0].at <= horizon {
		k.Step()
	}
	if !k.stopped && k.now < horizon {
		k.now = horizon
	}
}

// RunFor is RunUntil relative to the current time.
func (k *Kernel) RunFor(d Duration) { k.RunUntil(k.now.Add(d)) }

// Stop halts Run/RunUntil after the currently executing event returns.
func (k *Kernel) Stop() { k.stopped = true }

// Stopped reports whether the last Run/RunUntil was interrupted by
// Stop.
func (k *Kernel) Stopped() bool { return k.stopped }
