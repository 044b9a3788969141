package sim

import "testing"

// The kernel micro-benches measure the event calendar itself, with a
// realistic standing population of pending events so the heap has
// real depth. BenchmarkKernelSchedule must report 0 allocs/op: in
// steady state every scheduling reuses a recycled event from the
// free list. (The container/heap baseline these were first measured
// against is retired; its final numbers are in EXPERIMENTS.md.)

const benchPool = 256

// benchDelay derives a deterministic, allocation-free pseudo-random
// delay from the iteration counter (Weyl-style multiplicative hash).
func benchDelay(i int) Duration {
	return Duration(1 + uint32(i)*2654435761%4096)
}

func BenchmarkKernelSchedule(b *testing.B) {
	k := NewKernel(1)
	fn := func() {}
	for i := 0; i < benchPool; i++ {
		k.Schedule(benchDelay(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Schedule(benchDelay(i), fn)
		k.Step()
	}
}

func BenchmarkKernelChurn(b *testing.B) {
	k := NewKernel(1)
	fn := func() {}
	for i := 0; i < benchPool; i++ {
		k.Schedule(benchDelay(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Steady state: four in, two cancelled, two fired.
		e1 := k.Schedule(benchDelay(4*i), fn)
		e2 := k.Schedule(benchDelay(4*i+1), fn)
		k.Schedule(benchDelay(4*i+2), fn)
		k.Schedule(benchDelay(4*i+3), fn)
		k.Cancel(e1)
		k.Cancel(e2)
		k.Step()
		k.Step()
	}
}

// BenchmarkProcessBlock is one Block/wake cycle of a process, with a
// timeout armed and cancelled: two fired events and two coroutine
// switches. It must report 0 allocs/op: the process re-arms its one
// blocker and schedules callbacks bound at Spawn.
func BenchmarkProcessBlock(b *testing.B) {
	k := NewKernel(1)
	defer k.Shutdown()
	var wake func()
	waker := func() { wake() }
	k.Spawn("blocker", 0, func(p *Process) {
		for {
			var wait func() bool
			wake, wait = p.Block(Second)
			k.Schedule(Microsecond, waker)
			wait()
		}
	})
	k.Step() // spawn: the process runs to its first park
	cycle := func() {
		k.Step() // waker
		k.Step() // unblock
	}
	cycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}
