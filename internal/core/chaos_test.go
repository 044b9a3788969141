package core

import (
	"reflect"
	"testing"

	"tpspace/internal/fault"
	"tpspace/internal/sim"
	"tpspace/internal/tuple"
	"tpspace/internal/wrapper"
)

func quickChaos() ChaosConfig {
	return ChaosConfig{Impact: quickImpact()}
}

func TestChaosFaultFreeCompletes(t *testing.T) {
	res := RunChaos(quickChaos())
	if !res.WriteOK || !res.TakeOK {
		t.Fatalf("fault-free chaos run failed: %+v", res)
	}
	if res.Injected != 0 || res.Crashes != 0 {
		t.Fatalf("fault-free run injected %d faults, %d crashes", res.Injected, res.Crashes)
	}
	if !res.OK() {
		t.Fatalf("invariant violations on clean run: %v", res.Violations)
	}
	// Same shape as the impact baseline: write acked, take after the
	// configured delay, completion inside the lease.
	base := RunImpact(quickImpact())
	if !base.TakeOK {
		t.Fatal("baseline impact run failed")
	}
	if res.Total < base.Total {
		t.Fatalf("chaos total %v under baseline %v", res.Total, base.Total)
	}
}

// TestChaosFaultFreeMatchesImpact pins why the chaos table's
// fault-free row reads 1 s above Table 4. Both runners build the same
// world, so the write is acknowledged and the take issued at the same
// nanosecond. Only the take differs: the chaos client issues a
// blocking take bounded by the lease, Table 4 a takeIfExists, and the
// blocking request is 8 bytes longer on the bus. The same blocking
// take driven on a bare world, with no journal, FaultConn or
// resilience, lands on the chaos total exactly, so those extras cost
// nothing while no fault fires.
func TestChaosFaultFreeMatchesImpact(t *testing.T) {
	for _, tc := range []struct {
		wires                    int
		writeDone, impact, chaos sim.Duration
	}{
		{1, 20_279_325_332, 134_380_613_140, 134_953_946_244},
		{2, 13_152_661_516, 117_227_286_668, 117_587_286_524},
	} {
		ic := DefaultImpactConfig()
		ic.Bus.Wires = tc.wires
		imp := RunImpact(ic)
		ch := RunChaos(ChaosConfig{Impact: ic})
		if !ch.OK() || !ch.TakeOK || !imp.TakeOK {
			t.Fatalf("%d-wire: exchange failed: impact %+v chaos %+v", tc.wires, imp, ch)
		}
		if imp.WriteDone != tc.writeDone || ch.WriteDone != tc.writeDone {
			t.Errorf("%d-wire: write acked at %d (impact) / %d (chaos), want %d",
				tc.wires, imp.WriteDone, ch.WriteDone, tc.writeDone)
		}
		if ch.TakeIssued != imp.TakeIssued {
			t.Errorf("%d-wire: take issued at %d (impact) / %d (chaos)", tc.wires, imp.TakeIssued, ch.TakeIssued)
		}
		if imp.Total != tc.impact || ch.Total != tc.chaos {
			t.Errorf("%d-wire: totals %d (impact) / %d (chaos), want %d / %d",
				tc.wires, imp.Total, ch.Total, tc.impact, tc.chaos)
		}
		if got := blockingTakeTotal(ic); got != ch.Total {
			t.Errorf("%d-wire: blocking take on a bare world completes at %d, chaos at %d", tc.wires, got, ch.Total)
		}
	}
}

// blockingTakeTotal runs RunChaos's exchange script (write, wait, one
// blocking take bounded by the lease) on a world with none of the
// chaos extras and returns when the take completed.
func blockingTakeTotal(cfg ImpactConfig) sim.Duration {
	cfg.normalize()
	w := newFig7(cfg)
	k := w.k
	defer k.Shutdown()
	client := wrapper.NewClient(w.bridge)
	var total sim.Duration
	client.Write(w.entry, cfg.Lease, func(ok bool, _ string) {
		if !ok {
			return
		}
		leaseEnd := sim.Duration(k.Now()) + cfg.Lease
		k.Schedule(cfg.TakeDelay, func() {
			client.TakeStatus(w.tmpl, leaseEnd-sim.Duration(k.Now()), func(_ tuple.Tuple, ok bool, _ string) {
				if ok {
					total = sim.Duration(k.Now())
				}
				k.Stop()
			})
		})
	})
	k.RunUntil(sim.Time(cfg.Horizon))
	return total
}

func TestChaosCrashRecovery(t *testing.T) {
	cfg := quickChaos()
	// One crash scheduled between the write ack and the take: the
	// journal replay at restart must hand the entry to the re-issued
	// take.
	cfg.Kinds = []fault.Kind{fault.ServerCrash}
	cfg.FaultRate = 1.0 / 7 // first activation at t=7s, restart at 9s
	cfg.FaultDur = 2 * sim.Second
	cfg.Impact.Horizon = 40 * sim.Second
	res := RunChaos(cfg)
	if res.Crashes == 0 {
		t.Fatalf("no crash was injected: %+v", res)
	}
	if res.Restored == 0 {
		t.Fatal("restart never restored the journalled entry")
	}
	if !res.TakeOK {
		t.Fatalf("take did not recover across the crash: %+v", res)
	}
	if !res.OK() {
		t.Fatalf("invariant violations: %v", res.Violations)
	}
}

func TestChaosInvariantsOnGrid(t *testing.T) {
	grid := ChaosGridConfig{
		Base:       quickChaos(),
		FaultRates: []float64{0, 0.3},
		Wires:      []int{1, 2},
		Workers:    1,
	}
	g := RunChaosGrid(grid)
	if v := g.Violations(); len(v) != 0 {
		t.Fatalf("invariant violations on grid:\n%s\n%s", v, g.Format())
	}
	// The faulted row must actually have injected something.
	for j := range grid.Wires {
		if g.Cells[1][j].Injected == 0 {
			t.Fatalf("fault rate %g wire %d injected nothing", grid.FaultRates[1], grid.Wires[j])
		}
	}
	// The fault-free row matches a direct run, cell for cell.
	for j, w := range grid.Wires {
		c := grid.Base
		c.Impact.Bus.Wires = w
		direct := RunChaos(c)
		if !reflect.DeepEqual(direct, g.Cells[0][j]) {
			t.Fatalf("grid cell diverges from direct run:\n%+v\n%+v", g.Cells[0][j], direct)
		}
	}
}

// TestChaosParallelMatchesSequential is the determinism guard the
// fault plane is designed around: the same seed and fault plan must
// produce a byte-identical degradation table whether the grid runs
// sequentially or on any worker-pool width, including under -race.
func TestChaosParallelMatchesSequential(t *testing.T) {
	cfg := ChaosGridConfig{
		Base:       quickChaos(),
		FaultRates: []float64{0, 0.3},
		Wires:      []int{1, 2},
	}
	cfg.Base.FaultDur = 2 * sim.Second

	cfg.Workers = 1
	seq := RunChaosGrid(cfg)
	for _, workers := range []int{2, 8} {
		cfg.Workers = workers
		par := RunChaosGrid(cfg)
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("grid with %d workers diverges from sequential:\n%+v\n%+v", workers, seq, par)
		}
		if seq.Format() != par.Format() {
			t.Fatalf("formatted table with %d workers diverges", workers)
		}
	}
}
