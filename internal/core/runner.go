package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The experiment harness re-runs a full co-simulation per design
// point: every Table 3/4 cell, every sweep sample and every planner
// grid point builds its own sim.Kernel, runs it to the horizon and
// throws it away. Those runs are independent by construction, so the
// harness fans them across a worker pool. Determinism (DESIGN §6) is
// preserved because each job's result depends only on the job itself
// — its config carries its own kernel seed — and RunAll returns
// results in job order no matter which worker finished first or last.

// DefaultWorkers is the worker count used when a config leaves its
// Workers field zero: one worker per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// RunAll executes every job on a pool of up to workers goroutines
// (workers <= 0 selects DefaultWorkers) and returns their results in
// job order. Jobs must be independent: they may not share mutable
// state, and each must derive any randomness from its own seed (see
// SeedFor). With workers == 1 the jobs run sequentially on the
// calling goroutine, which is the reference behaviour the parallel
// path must reproduce byte for byte.
func RunAll[T any](workers int, jobs []func() T) []T {
	n := len(jobs)
	if n == 0 {
		return nil
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	results := make([]T, n)
	if workers == 1 {
		for i, job := range jobs {
			results[i] = job()
		}
		return results
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				results[i] = jobs[i]()
			}
		}()
	}
	wg.Wait()
	return results
}

// runGrid runs cell once per (row, column) pair on RunAll's worker
// pool and returns the results reshaped [row][column].
func runGrid[R, C, T any](workers int, rows []R, cols []C, cell func(R, C) T) [][]T {
	jobs := make([]func() T, 0, len(rows)*len(cols))
	for _, r := range rows {
		for _, c := range cols {
			jobs = append(jobs, func() T { return cell(r, c) })
		}
	}
	flat := RunAll(workers, jobs)
	var grid [][]T
	for i := range rows {
		grid = append(grid, flat[i*len(cols):(i+1)*len(cols)])
	}
	return grid
}

// SeedFor derives the kernel seed for job index from a base seed via
// a SplitMix64 step. The rule that keeps parallel runs reproducible:
// a job's seed is a pure function of (base, index) — never of worker
// identity, scheduling order or wall time — so any worker count
// replays the identical simulation for every job.
func SeedFor(base int64, index int) int64 {
	z := uint64(base) + uint64(index+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
