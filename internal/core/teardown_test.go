package core

import (
	"runtime"
	"testing"
	"time"
)

// TestRunnersTearDownTheirSimulations: a runner that returns has left
// nothing behind. Before sim.Kernel.Shutdown every RunImpact cell kept
// its poller's goroutine parked for ever, and through it the whole
// simulation (about 110 MiB a plan pass).
func TestRunnersTearDownTheirSimulations(t *testing.T) {
	run := func() {
		for i := 0; i < 20; i++ {
			cfg := DefaultImpactConfig()
			cfg.CBRRate = 0.3
			cfg.Seed = int64(i + 1)
			RunImpact(cfg)
		}
		RunValidation(ValidationConfig{FrameCounts: []int{1000, 10_000}, Seed: 1})
	}
	startGoroutines := runtime.NumGoroutine()
	settle := func() (goroutines int, heapInuse uint64) {
		// A process goroutine's last act is the hand-off that lets
		// Shutdown return, so it may still be exiting: give it a moment.
		for i := 0; i < 100; i++ {
			runtime.GC()
			if goroutines = runtime.NumGoroutine(); goroutines <= startGoroutines {
				break
			}
			time.Sleep(time.Millisecond)
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return goroutines, ms.HeapInuse
	}

	run() // warm up: one-time allocations (pools, lazily built tables) settle here
	_, before := settle()
	run()
	goroutines, after := settle()

	if goroutines > startGoroutines {
		t.Errorf("%d goroutines after the runs, %d before: a runner left processes parked", goroutines, startGoroutines)
	}
	// 21 leaked simulations are tens of MiB; allow the heap a little
	// jitter in span accounting.
	const slack = 2 << 20
	if after > before+slack {
		t.Errorf("HeapInuse grew from %d to %d bytes across a second, identical batch of runs", before, after)
	}
}

// TestPlanGridAllocationBudget pins the allocation count of one
// full-size -plan grid pass. It was 5.4 M when every frame built its
// trace string, its closures and its transaction record; what is left
// is per run and per message, not per frame.
func TestPlanGridAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full plan grid in -short mode")
	}
	const budget = 500_000
	allocs := testing.AllocsPerRun(1, func() {
		RunPlan(PlanConfig{Requirements: DefaultRequirements(), Workers: 1})
	})
	t.Logf("one plan grid pass: %.0f allocations", allocs)
	if allocs > budget {
		t.Errorf("one plan grid pass allocates %.0f times, budget %d", allocs, budget)
	}
}
