package core

import (
	"math"
	"strings"
	"testing"

	"tpspace/internal/sim"
	"tpspace/internal/tpwire"
)

//
// Table 3 / Figure 6: validation.
//

func TestValidationScalingFactorStable(t *testing.T) {
	cfg := DefaultValidationConfig()
	cfg.FrameCounts = []int{1000, 5000, 20_000}
	res := RunValidation(cfg)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The scaling factor must be stable across frame counts (that is
	// what makes it usable as a correction), within a few percent.
	base := res.Rows[0].Scaling
	if base <= 1 {
		t.Fatalf("scaling factor %.3f not > 1 (hardware must be slower)", base)
	}
	for _, r := range res.Rows {
		rel := (r.Scaling - base) / base
		if rel < -0.05 || rel > 0.05 {
			t.Fatalf("scaling factor drifts: %.3f vs %.3f", r.Scaling, base)
		}
	}
}

func TestValidationTimeLinearInFrames(t *testing.T) {
	cfg := DefaultValidationConfig()
	cfg.FrameCounts = []int{2000, 20_000}
	res := RunValidation(cfg)
	r0, r1 := res.Rows[0], res.Rows[1]
	ratio := float64(r1.Simulated) / float64(r0.Simulated)
	if ratio < 9 || ratio > 11 {
		t.Fatalf("10x frames took %.2fx time", ratio)
	}
	if r1.Hardware != 10*r0.Hardware {
		t.Fatalf("analytic model not linear: %v vs %v", r1.Hardware, r0.Hardware)
	}
}

func TestValidationThroughputPositive(t *testing.T) {
	cfg := DefaultValidationConfig()
	cfg.FrameCounts = []int{5000}
	res := RunValidation(cfg)
	if res.ThroughputBps <= 0 {
		t.Fatal("no measured throughput")
	}
	// A 1 Mbit/s wire moving 1-byte payloads through the full mailbox
	// protocol: throughput must be far below the raw wire rate but
	// clearly positive.
	if res.ThroughputBps > 125_000 {
		t.Fatalf("throughput %.0f B/s exceeds the wire rate", res.ThroughputBps)
	}
}

func TestValidationDeterministic(t *testing.T) {
	cfg := DefaultValidationConfig()
	cfg.FrameCounts = []int{3000}
	a := RunValidation(cfg)
	b := RunValidation(cfg)
	if a.Rows[0].Simulated != b.Rows[0].Simulated {
		t.Fatalf("nondeterministic validation: %v vs %v", a.Rows[0].Simulated, b.Rows[0].Simulated)
	}
}

// TestValidationDefaultExactValues pins Table 3 at its default config:
// the measured throughput bit for bit and the 100k-frame row's
// simulated time, so a change to how the rows are run cannot move them.
func TestValidationDefaultExactValues(t *testing.T) {
	res := RunValidation(DefaultValidationConfig())
	if bits := math.Float64bits(res.ThroughputBps); bits != 0x40836542732e0b8b {
		t.Errorf("ThroughputBps = %v (%#x), want 620.6574462506554 (0x40836542732e0b8b)", res.ThroughputBps, bits)
	}
	last := res.Rows[len(res.Rows)-1]
	if last.Frames != 100_000 || last.Simulated != 2_440_960_000 {
		t.Errorf("last row %d frames in %d ns, want 100000 frames in 2440960000 ns", last.Frames, int64(last.Simulated))
	}
}

func TestValidationRealtimeMode(t *testing.T) {
	// The paper validates under the NS-2 real-time scheduler; our
	// real-time mode must produce identical virtual timing while
	// tracking the wall clock.
	cfg := DefaultValidationConfig()
	cfg.FrameCounts = []int{500}
	virtual := RunValidation(cfg)
	cfg.Realtime = true
	cfg.Speedup = 1000 // keep the test fast
	rt := RunValidation(cfg)
	if virtual.Rows[0].Simulated != rt.Rows[0].Simulated {
		t.Fatalf("real-time mode changed virtual timing: %v vs %v",
			virtual.Rows[0].Simulated, rt.Rows[0].Simulated)
	}
	if rt.Rows[0].Realtime.Events == 0 {
		t.Fatal("real-time stats empty")
	}
}

func TestFormatTable3(t *testing.T) {
	cfg := DefaultValidationConfig()
	cfg.FrameCounts = []int{1000}
	s := FormatTable3(RunValidation(cfg))
	for _, want := range []string{"Table 3", "Num. Frame", "TpICU/SCM", "NS", "1000", "scaling factor"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table 3 output missing %q:\n%s", want, s)
		}
	}
}

//
// Table 4 / Figure 7: tuplespace impact.
//

// quickImpact is the default config scaled to a faster bus so unit
// tests stay quick; benches and cmd/tpbench run the full calibration.
func quickImpact() ImpactConfig {
	cfg := DefaultImpactConfig()
	cfg.Bus.BitRate = 12_000 // 10x the calibrated rate
	cfg.Lease = 16 * sim.Second
	cfg.TakeDelay = 8500 * sim.Millisecond
	cfg.Horizon = 60 * sim.Second
	cfg.CosimPerMsg = 20 * sim.Millisecond
	cfg.CosimPerByte = 200 * sim.Microsecond
	return cfg
}

func TestImpactIdleBusCompletes(t *testing.T) {
	res := RunImpact(quickImpact())
	if !res.TakeOK {
		t.Fatal("take failed on an idle bus")
	}
	if res.WriteDone == 0 || res.Total <= res.WriteDone {
		t.Fatalf("timeline inconsistent: %+v", res)
	}
	if res.BusFrames == 0 {
		t.Fatal("no bus traffic recorded")
	}
	if res.OutOfTime() {
		t.Fatal("idle run reported out of time")
	}
}

func TestImpactTwoWireFaster(t *testing.T) {
	one := quickImpact()
	one.Bus.Wires = 1
	two := quickImpact()
	two.Bus.Wires = 2
	r1 := RunImpact(one)
	r2 := RunImpact(two)
	if !r1.TakeOK || !r2.TakeOK {
		t.Fatalf("takes failed: %v %v", r1.TakeOK, r2.TakeOK)
	}
	if r2.Total >= r1.Total {
		t.Fatalf("2-wire (%v) not faster than 1-wire (%v)", r2.Total, r1.Total)
	}
	ratio := float64(r1.Total) / float64(r2.Total)
	if ratio > 2.0 {
		t.Fatalf("2-wire speedup %.2f exceeds physical bound", ratio)
	}
}

// TestImpactHonoursBusWires: the bus width is Bus.Wires and nothing
// else. A second wire-count field once shadowed it, so setting
// Bus.Wires on a default config silently ran the 1-wire bus
// (134.380613 s).
func TestImpactHonoursBusWires(t *testing.T) {
	cfg := DefaultImpactConfig()
	cfg.Bus.Wires = 2
	if got, want := RunImpact(cfg).Total, sim.Duration(117_227_286_668); got != want {
		t.Fatalf("default config with Bus.Wires = 2 completes at %v, want the 2-wire %v", got, want)
	}
}

func TestImpactTrafficSlowsExchange(t *testing.T) {
	idle := quickImpact()
	loaded := quickImpact()
	loaded.CBRRate = 3 // scaled 10x like the bus
	ri := RunImpact(idle)
	rl := RunImpact(loaded)
	if !ri.TakeOK || !rl.TakeOK {
		t.Fatalf("takes failed: idle=%v loaded=%v", ri.TakeOK, rl.TakeOK)
	}
	if rl.Total <= ri.Total {
		t.Fatalf("background traffic did not slow the exchange: %v vs %v", rl.Total, ri.Total)
	}
	if rl.CBRDelivered == 0 {
		t.Fatal("CBR traffic not delivered")
	}
}

func TestImpactSaturationOutOfTime(t *testing.T) {
	// Above the threshold the take must fail: the Table 4 "Out of
	// Time" cell. 10 B/s on the scaled bus mirrors 1 B/s on the
	// calibrated one.
	cfg := quickImpact()
	cfg.CBRRate = 10
	res := RunImpact(cfg)
	if res.TakeOK {
		t.Fatalf("take succeeded under saturating traffic (total %v)", res.Total)
	}
	if !res.OutOfTime() {
		t.Fatal("OutOfTime not reported")
	}
	if ImpactCell(res) != "Out of Time" {
		t.Fatalf("cell = %q", ImpactCell(res))
	}
}

func TestImpactDeterministic(t *testing.T) {
	a := RunImpact(quickImpact())
	b := RunImpact(quickImpact())
	if a.Total != b.Total || a.WriteDone != b.WriteDone {
		t.Fatalf("nondeterministic impact run: %+v vs %+v", a, b)
	}
}

func TestTable4GridShape(t *testing.T) {
	cfg := Table4Config{
		Base:     quickImpact(),
		CBRRates: []float64{0, 3, 10},
		Wires:    []int{1, 2},
	}
	t4 := RunTable4(cfg)
	if len(t4.Cells) != 3 || len(t4.Cells[0]) != 2 {
		t.Fatalf("grid shape %dx%d", len(t4.Cells), len(t4.Cells[0]))
	}
	// Qualitative reproduction of Table 4 at the scaled operating
	// point: the idle column completes on both buses, the top rate
	// kills 1-wire but not 2-wire, and 2-wire is faster everywhere it
	// completes.
	if t4.Cells[0][0].OutOfTime() || t4.Cells[0][1].OutOfTime() {
		t.Fatal("idle row failed")
	}
	if t4.Cells[1][0].OutOfTime() || t4.Cells[1][1].OutOfTime() {
		t.Fatal("moderate row failed")
	}
	if !t4.Cells[2][0].OutOfTime() {
		t.Fatal("saturating row completed on 1-wire")
	}
	if t4.Cells[2][1].OutOfTime() {
		t.Fatal("saturating row failed on 2-wire")
	}
	for i := 0; i < 2; i++ {
		if t4.Cells[i][1].Total >= t4.Cells[i][0].Total {
			t.Fatalf("row %d: 2-wire not faster", i)
		}
	}
	out := t4.Format()
	for _, want := range []string{"Table 4", "1-wire", "2-wire", "Out of Time", "CBR"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 4 output missing %q:\n%s", want, out)
		}
	}
}

func TestImpactRespectsBusConfig(t *testing.T) {
	// Frame errors slow the exchange (retries, re-reads); with a
	// loosened lease the exchange must still complete.
	cfg := quickImpact()
	cfg.Bus.FrameErrorRate = 0.01
	cfg.Bus.Retries = 8
	cfg.Lease = 40 * sim.Second
	cfg.Horizon = 120 * sim.Second
	res := RunImpact(cfg)
	if !res.TakeOK {
		t.Fatal("exchange failed under 1% frame errors with retries")
	}
	clean := quickImpact()
	clean.Lease = 40 * sim.Second
	clean.Horizon = 120 * sim.Second
	if base := RunImpact(clean); res.Total <= base.Total {
		t.Fatalf("errors did not slow the exchange: %v vs %v", res.Total, base.Total)
	}
}

func TestAnalyticConsistentWithNormalizedConfig(t *testing.T) {
	cfg := DefaultImpactConfig().Bus
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	a := tpwire.NewAnalytic(cfg)
	if a.TransactionTime(0) <= 0 {
		t.Fatal("analytic transaction time not positive")
	}
}
