package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"
)

// runResult is one run of one workload.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	TimedS    float64            `json:"timed_s"`
	SetupS    []float64          `json:"setup_s_each"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	// Unmeasured gives the reason for every metric of the workload
	// that has no value; such a metric is never printed as 0.
	Unmeasured map[string]string `json:"unmeasured,omitempty"`
	// Samples is the latency sample count behind op_p50_us and
	// op_p99_us.
	Samples uint64             `json:"latency_samples"`
	Info    map[string]float64 `json:"info,omitempty"`
	// TraceOverhead is 1 - traced/untraced ops_per_s of a traced run's
	// two halves.
	TraceOverhead float64 `json:"trace_overhead_share,omitempty"`
}

func (r *runResult) correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

func heapInuseMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// passStatser is implemented by workloads whose throughput is not a
// count of ops per second of window (sim-estimate works in whole
// passes, and its last pass always overruns the window).
type passStatser interface {
	passStats(from, to int64) (cellsPerS, simPerS float64, passes int)
}

// runWorkload sets the workload up (several times, for setup_s and
// heap_mb), drives it once and checks what it left behind. With a
// tracer the timed part is split: first half untraced, second half
// with spans.
func runWorkload(w *workload, cfg *runConfig, tr *tracer) (*runResult, error) {
	res := &runResult{Workload: w.name, Seed: cfg.seed,
		Metrics: map[string]float64{}, Unmeasured: map[string]string{}, Info: map[string]float64{}}
	reps := cfg.setupReps
	if w.setupReps > 0 && reps > w.setupReps {
		reps = w.setupReps
	}
	if tr != nil {
		reps = 1 // set-up time is an end-to-end metric; a traced run reports none
	}
	var inst instance
	var heaps []float64
	for i := 0; i < reps; i++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		runtime.GC() // the previous instance is garbage; do not bill its collection to this set-up
		t0 := time.Now()
		var err error
		if inst, err = w.setup(cfg); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
		heaps = append(heaps, heapInuseMB())
	}
	defer func() {
		inst.close()
		debug.FreeOSMemory()
	}()
	res.Metrics["setup_s"] = median(res.SetupS)
	res.Metrics["heap_mb"] = median(heaps)

	// Fixed work is timed from its first op to its last; a traced run
	// of it is time-boxed like the others, so that it has two halves.
	lead, window := cfg.warmup, cfg.window
	if w.fixedWork {
		lead = 0
		if tr == nil {
			window = time.Hour
		}
	}
	m := newMeter(now()+int64(lead), window, tr != nil)
	if tr != nil {
		defer tr.root("benchmark", w.name)()
	}
	if err := inst.drive(m, tr); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.Problems = inst.verify()
	res.Attempted, res.Failed = m.totals()
	if res.Attempted == 0 {
		return nil, fmt.Errorf("%s: no operation was attempted", w.name)
	}

	ws, ts := m.stats(0), m.stats(1)
	if ps, ok := inst.(passStatser); ok {
		// Passes are counted where they end; with no traced half the
		// untraced segment takes the pass that overruns the window too.
		to := m.split
		if tr == nil {
			to = math.MaxInt64
		}
		var simPerS float64
		var n int
		if ws.OpsPerS, simPerS, n = ps.passStats(m.t0, to); n == 0 {
			return nil, fmt.Errorf("%s: no pass ended inside the window; lengthen -seconds", w.name)
		}
		ts.OpsPerS, _, _ = ps.passStats(m.split, math.MaxInt64)
		res.Metrics["sim_s_per_host_s"] = simPerS
		res.Info["passes"] = float64(n)
	}
	if tr != nil {
		res.TraceOverhead = 1 - ts.OpsPerS/ws.OpsPerS
		if math.IsNaN(res.TraceOverhead) || math.IsInf(res.TraceOverhead, 0) {
			return nil, fmt.Errorf("%s: one half of the traced window completed nothing; lengthen -seconds", w.name)
		}
	}
	res.TimedS, res.Samples = ws.Seconds, ws.Samples
	res.Metrics["ops_per_s"] = ws.OpsPerS
	if w.latency != "" {
		p50, p99 := w.latency+"_p50_us", w.latency+"_p99_us"
		res.Metrics[p50] = ws.P50Us
		if ws.Samples >= p99MinSamples {
			res.Metrics[p99] = ws.P99Us
		} else {
			res.Unmeasured[p99] = fmt.Sprintf("%d latency samples; a 99th percentile with ten samples beyond it needs %d", ws.Samples, p99MinSamples)
		}
	}
	if w.latency == "unit" {
		res.Metrics["units_per_s"] = ws.OpsPerS
	}
	for k, v := range inst.native() {
		if isNativeMetric(k) {
			res.Metrics[k] = v
		} else {
			res.Info[k] = v
		}
	}
	res.Metrics["failed_ops_share"] = float64(res.Failed) / float64(res.Attempted)
	for name, v := range res.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: %s could not be measured (%v)", w.name, name, v)
		}
	}
	return res, nil
}
