package core

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tpspace/internal/sim"
)

// TestClusterChaosForcedCrash is the acceptance cell: a 3-node
// cluster, a forced primary crash mid-workload, and a full audit —
// across several seeds, every guarantee must hold and the failure
// detector must both notice and recover from the crash.
func TestClusterChaosForcedCrash(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		cfg := ClusterChaosConfig{Seed: seed, ForceCrash: true}
		r := RunClusterChaos(cfg)
		if !r.OK() {
			t.Fatalf("seed %d: invariant violations: %v", seed, r.Violations)
		}
		if r.WritesAcked != 40 {
			t.Errorf("seed %d: WritesAcked = %d, want 40", seed, r.WritesAcked)
		}
		if r.Delivered != 20 {
			t.Errorf("seed %d: Delivered = %d, want 20 (every even uid taken exactly once)", seed, r.Delivered)
		}
		if r.Kills < 1 {
			t.Errorf("seed %d: forced primary crash produced no kill", seed)
		}
		if r.DetectDelay <= 0 {
			t.Errorf("seed %d: DetectDelay = %v, want > 0", seed, r.DetectDelay)
		}
		if r.RecoverDelay < r.DetectDelay {
			t.Errorf("seed %d: RecoverDelay %v < DetectDelay %v", seed, r.RecoverDelay, r.DetectDelay)
		}
	}
}

// TestClusterChaosGridInvariants runs the full default grid — fault
// rates x cluster sizes, every cell with a forced primary crash plus
// scheduled crashes, partitions, and degraded links — and requires a
// clean audit in every cell.
func TestClusterChaosGridInvariants(t *testing.T) {
	g := RunClusterChaosGrid(DefaultClusterChaosGridConfig())
	if v := g.Violations(); len(v) > 0 {
		t.Fatalf("grid violations:\n%s", strings.Join(v, "\n"))
	}
	for i, row := range g.Cells {
		for j, c := range row {
			if c.WritesAcked == 0 {
				t.Errorf("cell rate=%g nodes=%d: no writes acked", g.FaultRates[i], g.Nodes[j])
			}
		}
	}
}

// TestClusterChaosDeterministic pins the determinism contract: a cell
// is a pure function of its config, and the grid is byte-identical at
// worker counts 2 and 8.
func TestClusterChaosDeterministic(t *testing.T) {
	cfg := DefaultClusterChaosConfig()
	a, b := RunClusterChaos(cfg), RunClusterChaos(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same config, different results:\n%+v\n%+v", a, b)
	}
	gcfg := DefaultClusterChaosGridConfig()
	gcfg.Workers = 2
	w2 := RunClusterChaosGrid(gcfg)
	gcfg.Workers = 8
	w8 := RunClusterChaosGrid(gcfg)
	if w2.Format() != w8.Format() {
		t.Fatalf("grid diverges across worker counts:\n%s\n---\n%s", w2.Format(), w8.Format())
	}
	if _, err := w2.JSON(); err != nil {
		t.Fatalf("grid JSON: %v", err)
	}
}

// TestSingleNodeOutputsUnchanged guards the pre-cluster serving
// paths: the goldens under testdata/golden_cli (the files check.sh
// diffs the CLI against) were captured from tpbench before the cluster
// plane existed, and compiling it in must not move a byte of -table 4,
// -sweep, -fig 7, -chaos or -plan output.
func TestSingleNodeOutputsUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("full single-node regeneration in -short mode")
	}
	golden := func(name string) string {
		b, err := os.ReadFile(filepath.Join("testdata", "golden_cli", name))
		if err != nil {
			t.Fatalf("reading golden: %v", err)
		}
		return string(b)
	}
	check := func(name, got string) {
		t.Helper()
		if want := golden(name); got != want {
			t.Errorf("%s diverged from golden:\n--- want\n%s\n--- got\n%s", name, want, got)
		}
	}

	check("table4.txt", RunTable4(DefaultTable4Config()).Format())
	check("sweep.csv", RunSweep(DefaultSweepConfig()).CSV())
	check("chaos.txt", RunChaosGrid(DefaultChaosGridConfig()).Format())
	check("plan.txt", RunPlan(PlanConfig{Requirements: DefaultRequirements()}).Format())

	// Reproduce tpbench -fig 7's exact output.
	cfg := DefaultImpactConfig()
	cfg.CBRRate = 0.3
	res := RunImpact(cfg)
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 7: TpWIRE case-study configuration")
	fmt.Fprintln(&b, "  Master -- Slave1 [C++ client] -- Slave2 [CBR] -- Slave3 [JavaSpace server] -- Slave4 [Receiver]")
	fmt.Fprintf(&b, "  CBR 0.3 B/s, 1-wire: write ack %.1fs, take issued %.1fs, completion %s\n",
		res.WriteDone.Seconds(), res.TakeIssued.Seconds(), ImpactCell(res))
	fmt.Fprintf(&b, "  bus: %d frames, busy %v; background packets delivered: %d\n",
		res.BusFrames, sim.Duration(res.BusBusy), res.CBRDelivered)
	check("fig7.txt", b.String())
}
