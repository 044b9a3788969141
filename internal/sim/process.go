package sim

import (
	"fmt"
	"iter"
)

// Process is a sequential coroutine running inside the simulation, in
// the style of an NS-2 application object or a SystemC SC_THREAD. A
// process is an iter.Pull coroutine: the kernel switches into it
// directly and it switches straight back when it waits or finishes,
// with no channel operation or scheduler wake-up in between. Control
// strictly alternates, so the simulation stays single-threaded and
// fully deterministic.
//
// The body receives the Process and uses Wait / WaitUntil / Block to
// advance simulated time. When the body returns, the process ends.
type Process struct {
	k     *Kernel
	name  string
	next  func() (struct{}, bool) // kernel -> process: resume the body
	yield func(struct{}) bool     // process -> kernel: suspend the body
	done  bool
	dead  bool
	// slot is the process's index in Kernel.procs while it is live.
	slot int
	// Everything the Wait/Block hot path hands to the kernel is built
	// once here: scheduling labels, the callbacks (a method value
	// allocates each time it is taken), and the one blocker Block
	// re-arms.
	wakeLabel    string
	unblockLabel string
	timeoutLabel string
	killLabel    string
	activateFn   func()
	block        blocker
}

// blocker is the state behind Process.Block. A process is sequential,
// so it has at most one Block outstanding and one blocker serves them
// all.
type blocker struct {
	armed  bool // between Block and the return of its wait
	parked bool // the process is suspended inside wait
	fired  bool // wake was called while armed
	d      Duration
	timer  *Event
	wake   func()
	wait   func() bool
	expire func()
}

// Spawn creates a process and schedules its first activation after
// delay. The body runs to completion unless it calls Kill on itself.
func (k *Kernel) Spawn(name string, delay Duration, body func(p *Process)) *Process {
	p := &Process{
		k:            k,
		name:         name,
		slot:         len(k.procs),
		wakeLabel:    "wake:" + name,
		unblockLabel: "unblock:" + name,
		timeoutLabel: "blocktimeout:" + name,
		killLabel:    "kill:" + name,
	}
	p.activateFn = p.activate
	p.block.wake = p.wakeBlocked
	p.block.wait = p.waitBlocked
	p.block.expire = p.expireBlocked
	k.procs = append(k.procs, p)
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		// Deferred so that a body panic, which next re-raises at the
		// caller of activate, still leaves the process finished.
		defer func() { p.done = true }()
		if !p.dead {
			runKilled(func() { body(p) })
		}
	})
	k.ScheduleName("spawn:"+name, delay, p.activateFn)
	return p
}

// activate switches into the process and returns when it yields back
// (by waiting or by finishing). A panic in the body, other than the
// kill sentinel, surfaces here, on the goroutine running the kernel.
func (p *Process) activate() {
	if p.done {
		return
	}
	defer func() {
		if p.done {
			p.k.forget(p)
		}
	}()
	p.next()
}

// forget drops a finished process from the kernel's live list.
func (k *Kernel) forget(p *Process) {
	last := len(k.procs) - 1
	k.procs[p.slot] = k.procs[last]
	k.procs[p.slot].slot = p.slot
	k.procs[last] = nil
	k.procs = k.procs[:last]
}

// Shutdown unwinds every process that has not finished — parked in
// Wait or Block, or not yet started — so its coroutine finishes and
// everything the body references becomes collectable. A runner that
// owns a kernel calls it once the run is over; without it each parked
// process pins its suspended coroutine, and through it the whole
// simulation, for the life of the program. It must be called from
// outside the run (not from an event or a process body); the kernel
// must not be run again afterwards.
func (k *Kernel) Shutdown() {
	for len(k.procs) > 0 {
		p := k.procs[len(k.procs)-1]
		p.dead = true
		p.activate()
	}
}

// Name reports the process name given at Spawn.
func (p *Process) Name() string { return p.name }

// Kernel returns the kernel the process runs on.
func (p *Process) Kernel() *Kernel { return p.k }

// Now returns the current simulated time; sugar for p.Kernel().Now().
func (p *Process) Now() Time { return p.k.Now() }

// Done reports whether the process body has returned.
func (p *Process) Done() bool { return p.done }

// Wait suspends the process for d of simulated time. It must only be
// called from the process's own body.
func (p *Process) Wait(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: process %s waits negative %v", p.name, d))
	}
	p.k.ScheduleName(p.wakeLabel, d, p.activateFn)
	p.park()
}

// park switches back to the kernel and returns when reactivated.
func (p *Process) park() {
	p.yield(struct{}{})
	if p.dead {
		// Unwind the body via panic; runKilled in Spawn's coroutine
		// recovers it and the coroutine finishes.
		panic(killSentinel{})
	}
}

// killSentinel unwinds a killed process body.
type killSentinel struct{}

// Kill terminates the process the next time it would resume. It may be
// called from any event context. Waiting processes never resume their
// body again.
func (p *Process) Kill() {
	if p.done || p.dead {
		return
	}
	p.dead = true
	// If the process is parked, activate it once so the coroutine can
	// unwind and finish; the spawn wrapper swallows the sentinel panic.
	p.k.ScheduleName(p.killLabel, 0, p.activateFn)
}

// Block suspends the process until another event calls the returned
// wake function. A wake that arrives before the process parks is
// remembered; further wakes are ignored. Optional timeout: if d is not
// Forever and elapses first, wait returns false.
//
// Both functions belong to the process's single blocker, which every
// Block re-arms: they are the same two values on every call, and a wake
// kept from an earlier Block acts on whichever Block is armed when it
// is called. Call wake at most once per Block, or not after the process
// has blocked again.
func (p *Process) Block(d Duration) (wake func(), wait func() bool) {
	b := &p.block
	b.armed, b.fired, b.d = true, false, d
	return b.wake, b.wait
}

func (p *Process) wakeBlocked() {
	b := &p.block
	if !b.armed || b.fired {
		return
	}
	b.fired = true
	if b.timer != nil {
		p.k.Cancel(b.timer)
		b.timer = nil
	}
	if b.parked {
		p.k.ScheduleName(p.unblockLabel, 0, p.activateFn)
	}
}

func (p *Process) waitBlocked() bool {
	b := &p.block
	if !b.fired {
		if b.d != Forever {
			b.timer = p.k.ScheduleName(p.timeoutLabel, b.d, b.expire)
		}
		b.parked = true
		p.park()
		b.parked = false
	}
	b.armed = false
	return b.fired
}

// expireBlocked is the Block timeout. wake cancels the timer, so when
// it fires the blocker is still unfired; disarming it here makes a
// late wake a no-op.
func (p *Process) expireBlocked() {
	p.block.timer = nil
	p.block.armed = false
	p.activate()
}

// runKilled recovers the kill sentinel; used by Spawn's wrapper.
func runKilled(body func()) (killed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killSentinel); ok {
				killed = true
				return
			}
			panic(r)
		}
	}()
	body()
	return false
}
