package sim

import (
	"runtime"
	"slices"
	"testing"
	"time"
)

func TestProcessSequentialWaits(t *testing.T) {
	k := NewKernel(1)
	var marks []Time
	k.Spawn("p", 0, func(p *Process) {
		for i := 0; i < 5; i++ {
			marks = append(marks, p.Now())
			p.Wait(10 * Millisecond)
		}
	})
	k.Run()
	for i, m := range marks {
		if m != Time(Duration(i)*10*Millisecond) {
			t.Fatalf("mark %d at %v", i, m)
		}
	}
	if len(marks) != 5 {
		t.Fatalf("marks = %d, want 5", len(marks))
	}
}

func TestTwoProcessesInterleaveDeterministically(t *testing.T) {
	k := NewKernel(1)
	var order []string
	k.Spawn("a", 0, func(p *Process) {
		for i := 0; i < 3; i++ {
			order = append(order, "a")
			p.Wait(10 * Millisecond)
		}
	})
	k.Spawn("b", 5*Millisecond, func(p *Process) {
		for i := 0; i < 3; i++ {
			order = append(order, "b")
			p.Wait(10 * Millisecond)
		}
	})
	k.Run()
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcessBlockAndWake(t *testing.T) {
	k := NewKernel(1)
	var woken bool
	var wake func()
	p := k.Spawn("blocker", 0, func(p *Process) {
		var wait func() bool
		wake, wait = p.Block(Forever)
		// Yield so the waker can run; Block parks immediately in wait.
		woken = wait()
	})
	k.Schedule(50*Millisecond, func() { wake() })
	k.Run()
	if !woken {
		t.Fatal("process not woken")
	}
	if !p.Done() {
		t.Fatal("process not done")
	}
	if k.Now() != Time(50*Millisecond) {
		t.Fatalf("woke at %v", k.Now())
	}
}

func TestProcessBlockTimeout(t *testing.T) {
	k := NewKernel(1)
	var ok bool
	var at Time
	k.Spawn("timeout", 0, func(p *Process) {
		_, wait := p.Block(30 * Millisecond)
		ok = wait()
		at = p.Now()
	})
	k.Run()
	if ok {
		t.Fatal("wait reported success on timeout")
	}
	if at != Time(30*Millisecond) {
		t.Fatalf("timed out at %v, want 30ms", at)
	}
}

func TestProcessBlockWakeBeatsTimeout(t *testing.T) {
	k := NewKernel(1)
	var ok bool
	var wake func()
	k.Spawn("race", 0, func(p *Process) {
		var wait func() bool
		wake, wait = p.Block(100 * Millisecond)
		ok = wait()
	})
	k.Schedule(10*Millisecond, func() { wake() })
	k.Run()
	if !ok {
		t.Fatal("wake did not beat timeout")
	}
	if k.Pending() != 0 {
		t.Fatalf("stale timer left pending: %d", k.Pending())
	}
}

func TestProcessKillWhileParked(t *testing.T) {
	k := NewKernel(1)
	reached := false
	p := k.Spawn("victim", 0, func(p *Process) {
		p.Wait(Second)
		reached = true
	})
	k.Schedule(100*Millisecond, func() { p.Kill() })
	k.Run()
	if reached {
		t.Fatal("killed process continued past Wait")
	}
	if !p.Done() {
		t.Fatal("killed process not marked done")
	}
}

func TestProcessKillBeforeStart(t *testing.T) {
	k := NewKernel(1)
	ran := false
	p := k.Spawn("never", Second, func(p *Process) { ran = true })
	p.Kill()
	k.Run()
	if ran {
		t.Fatal("killed-before-start process ran")
	}
}

func TestDoubleWakeIsHarmless(t *testing.T) {
	k := NewKernel(1)
	count := 0
	var wake func()
	k.Spawn("w", 0, func(p *Process) {
		var wait func() bool
		wake, wait = p.Block(Forever)
		wait()
		count++
	})
	k.Schedule(Millisecond, func() { wake(); wake() })
	k.Run()
	if count != 1 {
		t.Fatalf("process resumed %d times", count)
	}
}

// TestWakeBeforeWaitLeavesNoEvent: a wake that lands before the process
// parks is remembered by the blocker, not turned into an activation
// event that would later resume the process out of some other wait.
func TestWakeBeforeWaitLeavesNoEvent(t *testing.T) {
	k := NewKernel(1)
	var ok bool
	var resumedAt Time
	k.Spawn("early", 0, func(p *Process) {
		wake, wait := p.Block(Forever)
		wake()
		ok = wait()
		if n := k.Pending(); n != 0 {
			t.Errorf("%d events pending after an early wake, want 0", n)
		}
		p.Wait(Second)
		resumedAt = p.Now()
	})
	k.Run()
	if !ok {
		t.Fatal("early wake was not remembered")
	}
	if resumedAt != Time(Second) {
		t.Fatalf("Wait(1s) after an early wake resumed at %v", resumedAt)
	}
}

// TestBlockReusesOneBlocker: consecutive Blocks of one process, timed
// out and woken in turn, each see only their own outcome.
func TestBlockReusesOneBlocker(t *testing.T) {
	k := NewKernel(1)
	var got []bool
	var wake func()
	k.Spawn("serial", 0, func(p *Process) {
		for i := 0; i < 4; i++ {
			var wait func() bool
			wake, wait = p.Block(10 * Millisecond)
			got = append(got, wait())
		}
	})
	// Wake the second and fourth Block; let the first and third expire.
	k.Schedule(15*Millisecond, func() { wake() })
	k.Schedule(32*Millisecond, func() { wake() })
	k.Run()
	want := []bool{false, true, false, true}
	if len(got) != len(want) {
		t.Fatalf("outcomes %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("outcomes %v, want %v", got, want)
		}
	}
	if k.Pending() != 0 {
		t.Fatalf("%d events left pending", k.Pending())
	}
}

// TestShutdownUnwindsEveryLiveProcess covers the three states a process
// can be left in when a run stops: parked in Wait, parked in Block, and
// spawned but not yet started. Each body unwinds (its deferred calls
// run) or never runs, and every goroutine exits.
func TestShutdownUnwindsEveryLiveProcess(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel(1)
	unwound := 0
	started := false
	waiting := k.Spawn("waiting", 0, func(p *Process) {
		defer func() { unwound++ }()
		for {
			p.Wait(Second)
		}
	})
	blocked := k.Spawn("blocked", 0, func(p *Process) {
		defer func() { unwound++ }()
		_, wait := p.Block(Forever)
		wait()
		t.Error("blocked process resumed its body")
	})
	unstarted := k.Spawn("unstarted", 1000*Second, func(p *Process) { started = true })
	finished := k.Spawn("finished", 0, func(p *Process) {})
	k.RunUntil(Time(10 * Second))
	if !finished.Done() || waiting.Done() || blocked.Done() || unstarted.Done() {
		t.Fatal("unexpected process states before Shutdown")
	}

	k.Shutdown()

	if unwound != 2 {
		t.Errorf("%d bodies unwound, want 2", unwound)
	}
	if started {
		t.Error("Shutdown ran the body of a process that had not started")
	}
	for _, p := range []*Process{waiting, blocked, unstarted} {
		if !p.Done() {
			t.Errorf("process %s not done after Shutdown", p.Name())
		}
	}
	k.Shutdown() // idempotent
	for i := 0; runtime.NumGoroutine() > before && i < 100; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after Shutdown, %d before the kernel existed", n, before)
	}
}

// TestProcessPanicReachesRunCaller: a body that panics with anything
// but the kill sentinel surfaces at the caller of RunUntil, where it
// can be recovered, and the process counts as finished.
func TestProcessPanicReachesRunCaller(t *testing.T) {
	k := NewKernel(1)
	p := k.Spawn("faulty", 0, func(p *Process) {
		p.Wait(Millisecond)
		panic("model fault")
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		k.RunUntil(Time(Second))
		return nil
	}()
	if got != "model fault" {
		t.Fatalf("RunUntil caller recovered %v, want the body's panic", got)
	}
	if !p.Done() {
		t.Fatal("panicked process not done")
	}
	k.Shutdown() // nothing live is left to unwind
}

// TestProcessRunOnAnotherGoroutine: a kernel built and spawned on one
// goroutine and run on another gives the same result as running it
// where it was built.
func TestProcessRunOnAnotherGoroutine(t *testing.T) {
	build := func() (*Kernel, *[]Time) {
		k := NewKernel(1)
		marks := new([]Time)
		var wake func()
		k.Spawn("ticker", 0, func(p *Process) {
			for i := 0; i < 4; i++ {
				*marks = append(*marks, p.Now())
				p.Wait(3 * Millisecond)
			}
		})
		k.Spawn("blocker", 0, func(p *Process) {
			var wait func() bool
			wake, wait = p.Block(Forever)
			wait()
			*marks = append(*marks, p.Now())
		})
		k.Schedule(5*Millisecond, func() { wake() })
		return k, marks
	}
	k, here := build()
	k.Run()
	k, there := build()
	done := make(chan struct{})
	go func() {
		defer close(done)
		k.Run()
	}()
	<-done
	if len(*here) != 5 || !slices.Equal(*here, *there) {
		t.Fatalf("marks here %v, on another goroutine %v", *here, *there)
	}
}
