package sim

import "time"

// RealtimeStats summarises how faithfully a real-time run tracked the
// wall clock. The paper uses the NS-2 real-time scheduler to compare
// simulated TpWIRE transfers with the real hardware; the drift numbers
// here let the validation harness bound the error of that comparison.
type RealtimeStats struct {
	// Events is the number of events fired during the run.
	Events uint64
	// MaxLag is the largest amount by which an event fired later on
	// the wall clock than its simulated timestamp demanded.
	MaxLag time.Duration
	// TotalLag accumulates lag over every late event.
	TotalLag time.Duration
	// Wall is the wall-clock duration of the whole run.
	Wall time.Duration
}

// RunRealtime executes events, sleeping so that each event fires at
// (approximately) its simulated timestamp on the wall clock, scaled by
// speedup (2.0 runs twice as fast as real time; 1.0 is true real
// time). It returns when the calendar drains, the horizon passes, or
// Stop is called.
//
// Determinism note: event order is identical to Run; only pacing
// differs. Lag is measured, never compensated by reordering.
func (k *Kernel) RunRealtime(horizon Time, speedup float64) RealtimeStats {
	if speedup <= 0 {
		speedup = 1
	}
	var stats RealtimeStats
	start := time.Now()
	base := k.now
	prevHorizon, prevRealtime := k.horizon, k.realtime
	k.horizon, k.realtime = horizon, true
	defer func() { k.horizon, k.realtime = prevHorizon, prevRealtime }()
	k.stopped = false
	for !k.stopped && len(k.events) > 0 && k.events[0].at <= horizon {
		next := k.events[0].at
		target := time.Duration(float64(next.Sub(base).Std()) / speedup)
		elapsed := time.Since(start)
		if wait := target - elapsed; wait > 0 {
			time.Sleep(wait)
		} else if lag := -wait; lag > 0 {
			if lag > stats.MaxLag {
				stats.MaxLag = lag
			}
			stats.TotalLag += lag
		}
		before := k.fired
		k.Step()
		stats.Events += k.fired - before
	}
	if !k.stopped && k.now < horizon {
		k.now = horizon
	}
	stats.Wall = time.Since(start)
	return stats
}

// Ticker invokes fn every period of simulated time until cancelled via
// the returned stop function. The first tick occurs one period from
// now.
func (k *Kernel) Ticker(label string, period Duration, fn func()) (stop func()) {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	stopped := false
	// One closure serves every tick: it reschedules itself.
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			k.ScheduleName(label, period, tick)
		}
	}
	k.ScheduleName(label, period, tick)
	return func() { stopped = true }
}
