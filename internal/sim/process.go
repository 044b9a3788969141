package sim

import "fmt"

// Process is a sequential coroutine running inside the simulation, in
// the style of an NS-2 application object or a SystemC SC_THREAD. A
// process runs on its own goroutine but control is handed back and
// forth with the kernel in strict alternation, so the simulation stays
// single-threaded in effect and fully deterministic.
//
// The body receives the Process and uses Wait / WaitUntil / Block to
// advance simulated time. When the body returns, the process ends.
type Process struct {
	k      *Kernel
	name   string
	resume chan struct{} // kernel -> process
	yield  chan struct{} // process -> kernel
	done   bool
	dead   bool
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
		resume:       make(chan struct{}),
		yield:        make(chan struct{}),
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
	go func() {
		<-p.resume
		if !p.dead {
			runKilled(func() { body(p) })
		}
		p.done = true
		p.yield <- struct{}{}
	}()
	k.ScheduleName("spawn:"+name, delay, p.activateFn)
	return p
}

// activate transfers control to the process goroutine and blocks until
// it yields back (by waiting or by finishing).
func (p *Process) activate() {
	if p.done {
		return
	}
	p.resume <- struct{}{}
	<-p.yield
	if p.done {
		p.k.forget(p)
	}
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
// Wait or Block, or not yet started — so its goroutine exits and
// everything the body references becomes collectable. A runner that
// owns a kernel calls it once the run is over; without it each parked
// process pins its goroutine, and through it the whole simulation, for
// the life of the program. It must be called from outside the run (not
// from an event or a process body); the kernel must not be run again
// afterwards.
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

// park yields control to the kernel and blocks until reactivated.
func (p *Process) park() {
	p.yield <- struct{}{}
	<-p.resume
	if p.dead {
		// Unwind the body via panic; Spawn's goroutine recovers by
		// letting the goroutine exit (the panic is confined).
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
	// If the process is parked, activate it once so the goroutine can
	// unwind and exit; the spawn wrapper swallows the sentinel panic.
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
