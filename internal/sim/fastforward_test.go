package sim

import "testing"

func TestFastForwardAdvancesClock(t *testing.T) {
	k := NewKernel(1)
	if !k.FastForward(Time(5 * Second)) {
		t.Fatal("FastForward refused an empty-calendar advance")
	}
	if k.Now() != Time(5*Second) {
		t.Fatalf("now = %v, want 5s", k.Now())
	}
}

func TestFastForwardRefusesPast(t *testing.T) {
	k := NewKernel(1)
	k.FastForward(Time(Second))
	if k.FastForward(Time(Millisecond)) {
		t.Fatal("FastForward accepted a time in the past")
	}
	if k.Now() != Time(Second) {
		t.Fatalf("now moved to %v", k.Now())
	}
}

func TestFastForwardRefusesSkippingEvents(t *testing.T) {
	k := NewKernel(1)
	fired := false
	k.Schedule(Second, func() { fired = true })
	if k.FastForward(Time(2 * Second)) {
		t.Fatal("FastForward skipped a pending event")
	}
	// Advancing exactly to the event's timestamp is fine: the event has
	// not been skipped, it is still pending at now.
	if !k.FastForward(Time(Second)) {
		t.Fatal("FastForward refused advancing to the next event")
	}
	if fired {
		t.Fatal("FastForward fired an event")
	}
}

func TestFastForwardRespectsHorizon(t *testing.T) {
	k := NewKernel(1)
	var inside, beyond bool
	k.Schedule(Second, func() {
		inside = k.FastForward(k.Now().Add(Second))
		beyond = k.FastForward(Time(10 * Second))
	})
	k.RunUntil(Time(5 * Second))
	if !inside {
		t.Fatal("FastForward refused an in-horizon advance")
	}
	if beyond {
		t.Fatal("FastForward advanced past RunUntil's horizon")
	}
	if k.Horizon() != foreverTime {
		t.Fatalf("horizon not restored after RunUntil: %v", k.Horizon())
	}
}

func TestCoalesceAllowedGates(t *testing.T) {
	k := NewKernel(1)
	if !k.CoalesceAllowed() {
		t.Fatal("fresh kernel should allow coalescing")
	}
	k.SetTrace(func(Time, string) {})
	if k.CoalesceAllowed() {
		t.Fatal("traced kernel must not coalesce")
	}
	k.SetTrace(nil)
	allowed := true
	k.Schedule(Millisecond, func() {
		allowed = k.CoalesceAllowed()
		k.Stop()
	})
	k.RunRealtime(Time(Second), 1e6)
	if allowed {
		t.Fatal("real-time run must not coalesce")
	}
	if !k.CoalesceAllowed() {
		t.Fatal("coalescing should be re-allowed after RunRealtime returns")
	}
}
