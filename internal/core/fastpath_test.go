package core

import "testing"

// TestImpactFastPathEquivalence is the runner-level A/B check of the
// poller's burst mode against the per-event reference
// (ImpactConfig.NoFastPath): the full Figure 7 co-simulation — client
// write, background CBR, delayed take — must produce identical results
// cell-for-cell whether the poller coalesces idle sweeps or not.
func TestImpactFastPathEquivalence(t *testing.T) {
	run := func(noFast bool, rate float64, cbr float64, wires int) ImpactResult {
		cfg := DefaultImpactConfig()
		cfg.Bus.BitRate = rate
		cfg.CBRRate = cbr
		cfg.Bus.Wires = wires
		cfg.NoFastPath = noFast
		return RunImpact(cfg)
	}
	for _, tc := range []struct {
		rate  float64
		cbr   float64
		wires int
	}{
		{1200, 0.3, 1},    // the calibrated Table 4 regime
		{115_200, 0.3, 1}, // high-rate grid point: idle sweeps dominate
		{115_200, 0, 2},   // no background traffic at all
	} {
		slow := run(true, tc.rate, tc.cbr, tc.wires)
		fast := run(false, tc.rate, tc.cbr, tc.wires)
		if slow != fast {
			t.Errorf("%.0f bit/s, CBR %g, %d-wire: fast path diverged:\nslow %+v\nfast %+v",
				tc.rate, tc.cbr, tc.wires, slow, fast)
		}
		if !fast.TakeOK || fast.Total == 0 {
			t.Errorf("%.0f bit/s: exchange did not complete: %+v", tc.rate, fast)
		}
	}
}

// TestPlanFastPathEquivalence: the planner grid is where the fast path
// pays; the recommendation and the whole exploration trace must not
// depend on it.
func TestPlanFastPathEquivalence(t *testing.T) {
	withTestGrid(t)
	req := DefaultRequirements()
	req.CBRRate = 0.3
	slow := RunPlan(PlanConfig{Requirements: req, NoFastPath: true})
	fast := RunPlan(PlanConfig{Requirements: req})
	if len(slow.Explored) != len(fast.Explored) {
		t.Fatalf("explored %d vs %d points", len(slow.Explored), len(fast.Explored))
	}
	for i := range slow.Explored {
		if slow.Explored[i] != fast.Explored[i] {
			t.Errorf("grid point %d diverged: slow %+v fast %+v",
				i, slow.Explored[i], fast.Explored[i])
		}
	}
	if (slow.Recommended == nil) != (fast.Recommended == nil) {
		t.Fatal("recommendation presence diverged")
	}
	if slow.Recommended != nil && *slow.Recommended != *fast.Recommended {
		t.Fatalf("recommendation diverged: %+v vs %+v", *slow.Recommended, *fast.Recommended)
	}
	if fast.Recommended == nil {
		t.Fatal("no feasible point on the test grid")
	}
}

// TestPaperOutputsFastPathEquivalence: the rendered Table 4 grid, the
// CBR sweep CSV and the chaos table — what `tpbench -table 4`, `-sweep`
// and `-chaos` print — must be byte-identical on the per-event
// reference path.
func TestPaperOutputsFastPathEquivalence(t *testing.T) {
	table4 := func(noFast bool) string {
		cfg := DefaultTable4Config()
		cfg.Base.NoFastPath = noFast
		return RunTable4(cfg).Format()
	}
	sweep := func(noFast bool) string {
		cfg := DefaultSweepConfig()
		cfg.Base.NoFastPath = noFast
		return RunSweep(cfg).CSV()
	}
	chaos := func(noFast bool) string {
		cfg := DefaultChaosGridConfig()
		cfg.Base.Impact.NoFastPath = noFast
		return RunChaosGrid(cfg).Format()
	}
	for name, render := range map[string]func(bool) string{"table4": table4, "sweep": sweep, "chaos": chaos} {
		if slow, fast := render(true), render(false); slow != fast {
			t.Errorf("%s: fast path output diverged:\nslow:\n%s\nfast:\n%s", name, slow, fast)
		}
	}
}
