package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func loadBenchmarkJSON(t *testing.T) *benchmarkFile {
	t.Helper()
	f, err := loadBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// toyConfig is the scale the smoke test runs at: 1 000 resident
// entries, 0.2 s windows, one set-up.
func toyConfig(t *testing.T) *runConfig {
	cfg := newRunConfig(1, 200*time.Millisecond, t.TempDir())
	cfg.warmup = 50 * time.Millisecond
	cfg.wireResident, cfg.spaceResident, cfg.setupReps = 1000, 1000, 1
	cfg.journalWrites = 40_000
	return cfg
}

// TestBenchmarkFileMatchesTables keeps BENCHMARK.json and the tables
// the program prints from saying the same thing.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	f := loadBenchmarkJSON(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(f.EndToEnd) != len(universalMetrics) {
		t.Fatalf("BENCHMARK.json has %d end_to_end metrics, the program %d", len(f.EndToEnd), len(universalMetrics))
	}
	for i, e := range f.EndToEnd {
		d := universalMetrics[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || e.Bound != d.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json says %+v, the program %+v", i, e, d)
		}
	}
	if len(f.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per_layer metrics, the program %d", len(f.PerLayer), len(perLayerMetrics))
	}
	for i, e := range f.PerLayer {
		d := perLayerMetrics[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json says %+v, the program %+v", i, e, d)
		}
	}
}

// TestSmokeWorkloads runs all seven workloads at toy scale and fails
// if a workload or end-to-end metric named in BENCHMARK.json is
// missing from the output or not finite, or if any op failed.
func TestSmokeWorkloads(t *testing.T) {
	f := loadBenchmarkJSON(t)
	cfg := toyConfig(t)
	for _, bw := range f.Workloads {
		w := findWorkload(bw.Name)
		if w == nil {
			t.Fatalf("workload %s of BENCHMARK.json is not in the program", bw.Name)
		}
		res, err := runWorkload(w, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.correct() || res.Metrics["failed_ops_share"] != 0 {
			t.Errorf("%s: %d of %d ops failed, problems %v", w.name, res.Failed, res.Attempted, res.Problems)
		}
		for _, e := range f.EndToEnd {
			if v, ok := res.Metrics[e.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				t.Errorf("%s: %s = %v (present %v), want a finite value above 0", w.name, e.Name, v, ok)
			}
		}
		for _, d := range nativeMetrics {
			if !d.on(w.name) {
				continue
			}
			// A slow host (the race detector) leaves a toy window short of
			// the samples a 99th percentile needs; that must come with its
			// reason, and nothing else may be missing.
			v, ok := res.Metrics[d.Name]
			if why := res.Unmeasured[d.Name]; !ok && why != "" && strings.HasSuffix(d.Name, "_p99_us") {
				t.Logf("%s: %s not measured: %s", w.name, d.Name, why)
				continue
			}
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v (present %v), want a finite value", w.name, d.Name, v, ok)
			}
		}
	}
}

// TestSmokeTracedLadder runs one traced workload and the ladder at a
// fraction of its size and fails if a per-layer metric named in
// BENCHMARK.json is missing or not finite, or trace.jsonl is not
// written.
func TestSmokeTracedLadder(t *testing.T) {
	f := loadBenchmarkJSON(t)
	cfg := toyConfig(t)
	start := time.Now()
	tr := newTracer()
	res, err := runWorkload(findWorkload("pipe-window32"), cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct() {
		t.Errorf("traced pipe-window32: %d of %d ops failed, problems %v", res.Failed, res.Attempted, res.Problems)
	}
	lv, err := runLadder(&ladderConfig{run: cfg, scale: 0.05}, tr)
	if err != nil {
		t.Fatal(err)
	}
	lv.set("trace.overhead_share", res.TraceOverhead)
	if err := tr.writeJSONL(filepath.Join(cfg.outDir, "trace.jsonl")); err != nil {
		t.Fatal(err)
	}
	for _, e := range f.PerLayer {
		if v, ok := lv.v[e.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v (present %v: %s), want a finite value", e.Name, v, ok, lv.missing[e.Name])
		}
	}
	if n := lv.v["wrapper.notify_deliveries"]; n <= 0 || math.Mod(n, notifyRegs) != 0 {
		t.Errorf("wrapper.notify_deliveries = %v, want a positive multiple of %d", n, notifyRegs)
	}
	st, err := os.Stat(filepath.Join(cfg.outDir, "trace.jsonl"))
	if err != nil || st.Size() == 0 {
		t.Errorf("trace.jsonl: %v", err)
	}
	t.Logf("traced run and ladder took %v", time.Since(start))
}

// TestCompareVerdicts pins the four verdicts of -compare.
func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "op_p50_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	exact := metricDef{Name: "table4_err_pct", Better: "lower", Bound: 0}
	row := func(v ...float64) rowRecord {
		var r rowRecord
		r.setValues(v)
		return r
	}
	for _, c := range []struct {
		d    metricDef
		a, b rowRecord
		want string
	}{
		{lower, row(10, 10.1, 10.2), row(10.1, 10.2, 10.3), "unchanged"},
		{lower, row(10, 10.1, 10.2), row(12, 12.1, 12.2), "worse"},
		{lower, row(10, 10.1, 10.2), row(8, 8.1, 8.2), "improved"},
		{lower, row(8, 10, 14), row(9, 11.5, 13), "unresolved"},
		{higher, row(100, 101, 102), row(99, 100, 101), "unchanged"},
		{higher, row(100, 101, 102), row(80, 81, 82), "worse"},
		{higher, row(100, 101, 102), row(120, 121, 122), "improved"},
		{higher, row(90, 100, 110), row(95, 120, 130), "unresolved"},
		{higher, row(90, 100, 110), row(60, 70, 105), "unresolved"},
		{exact, row(8.5, 8.5, 8.5), row(8.5, 8.5, 8.5), "unchanged"},
		{exact, row(8.5, 8.5, 8.5), row(8.6, 8.6, 8.6), "worse"},
	} {
		if got, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: verdict %s, want %s", c.d.Name, c.a.Values, c.b.Values, got, c.want)
		}
	}
}

// TestTraceArgs: -trace stands alone or takes the driver's 0 or 1.
func TestTraceArgs(t *testing.T) {
	for in, want := range map[string]string{
		"-trace":                          "-trace",
		"--workload w --trace 0":          "--workload w --trace=0",
		"--trace 1 --seed 3":              "--trace=1 --seed 3",
		"-trace -seed 3":                  "-trace -seed 3",
		"-compare a.json b.json":          "-compare a.json b.json",
		"-seed 1 -trace=1 -workload w -x": "-seed 1 -trace=1 -workload w -x",
	} {
		if got := strings.Join(traceArgs(strings.Fields(in)), " "); got != want {
			t.Errorf("traceArgs(%q) = %q, want %q", in, got, want)
		}
	}
}
