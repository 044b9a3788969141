// Multi-core scaling harness: the -netbench -scaling mode of
// cmd/tpbench. One netbench shape (pipe/batched/binary — the
// contention-sensitive plane: no kernel socket between client and
// space, so every cycle is spent in the completion path itself) is
// re-run under GOMAXPROCS 1, 2, 4 and 8, and the report shows how
// throughput moves as cores are added. On a box with fewer CPUs the
// sweep degrades gracefully to the points it can measure (always
// including P=1), so the harness is runnable — and its JSON schema
// stable — everywhere from the 1-CPU CI container to a many-core
// workstation.

package core

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"
)

// ScalingConfig shapes one -scaling sweep.
type ScalingConfig struct {
	Procs []int          // GOMAXPROCS points (default 1,2,4,8, filtered to NumCPU)
	Base  NetBenchConfig // per-point run shape; Transport/Codec pinned by fill
}

// DefaultScalingConfig sweeps GOMAXPROCS 1,2,4,8 over the
// pipe/batched/binary netbench shape.
func DefaultScalingConfig() ScalingConfig {
	base := DefaultNetBenchConfig()
	base.Transport = "pipe"
	base.Codec = "binary"
	return ScalingConfig{Procs: []int{1, 2, 4, 8}, Base: base}
}

func (c *ScalingConfig) fill() {
	if len(c.Procs) == 0 {
		c.Procs = []int{1, 2, 4, 8}
	}
	// Keep only points this machine can actually run: a GOMAXPROCS
	// above NumCPU measures scheduler thrash, not scaling. P=1 always
	// stays — it is the common reference point across machines.
	max := runtime.NumCPU()
	kept := c.Procs[:0]
	for _, p := range c.Procs {
		if p == 1 || p <= max {
			kept = append(kept, p)
		}
	}
	c.Procs = kept
	c.Base.Transport = "pipe"
	c.Base.Codec = "binary"
	c.Base.fill()
}

// ScalingPoint is one measured GOMAXPROCS setting: the netbench
// shape plus one masterworker workload run (kind routing, local
// plane), so the sweep shows how the serving patterns — not just the
// raw completion path — move as cores are added.
type ScalingPoint struct {
	GoMaxProcs  int
	Result      NetBenchResult
	Workload    WorkloadResult
	SpeedupVsP1 float64
}

// ScalingResult is the -scaling sweep.
type ScalingResult struct {
	NumCPU int
	Points []ScalingPoint
}

// RunScalingBench sweeps the configured GOMAXPROCS points, restoring
// the process's previous setting afterwards.
func RunScalingBench(cfg ScalingConfig) ScalingResult {
	cfg.fill()
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	res := ScalingResult{NumCPU: runtime.NumCPU()}
	var p1 float64
	for _, p := range cfg.Procs {
		runtime.GOMAXPROCS(p)
		r := RunNetBench(cfg.Base)
		w := RunWorkload(WorkloadConfig{
			Pattern: "masterworker", Plane: "local", Shards: cfg.Base.Shards,
		})
		pt := ScalingPoint{GoMaxProcs: p, Result: r, Workload: w}
		if p == 1 {
			p1 = r.OpsPerSec
		}
		if p1 > 0 {
			pt.SpeedupVsP1 = r.OpsPerSec / p1
		}
		res.Points = append(res.Points, pt)
	}
	return res
}

// Format renders the sweep as the -scaling report.
func (s ScalingResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Multi-core scaling: %s, machine has %d CPU(s)\n",
		"pipe/batched/binary closed loop", s.NumCPU)
	fmt.Fprintf(&b, "%-12s %12s %10s %10s %12s %14s %12s\n",
		"gomaxprocs", "ops/sec", "p50", "p99", "allocs/op", "mw-tasks/sec", "vs P=1")
	for _, pt := range s.Points {
		fmt.Fprintf(&b, "%-12d %12.0f %10s %10s %12.1f %14.0f %11.2fx\n",
			pt.GoMaxProcs, pt.Result.OpsPerSec,
			pt.Result.P50.Round(time.Microsecond), pt.Result.P99.Round(time.Microsecond),
			pt.Result.AllocsPerOp, pt.Workload.PerSec, pt.SpeedupVsP1)
	}
	return b.String()
}

// scalingRecord is the BENCH_scaling.json schema: one record per
// GOMAXPROCS point, same measurement fields as BENCH_net.json rows
// plus the speedup against the P=1 reference.
type scalingRecord struct {
	Name        string  `json:"name"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"num_cpu"`
	Ops         int     `json:"ops"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	P50Ns       int64   `json:"p50_ns"`
	P99Ns       int64   `json:"p99_ns"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// MasterworkerPerSec is the units/sec of one kind-routed
	// masterworker workload run (local plane) at this GOMAXPROCS.
	MasterworkerPerSec float64 `json:"masterworker_units_per_sec"`
	SpeedupVsP1        float64 `json:"speedup_vs_p1"`
}

// JSON renders the sweep as the BENCH_scaling.json records.
func (s ScalingResult) JSON() (string, error) {
	recs := make([]scalingRecord, 0, len(s.Points))
	for _, pt := range s.Points {
		recs = append(recs, scalingRecord{
			Name:               fmt.Sprintf("scaling/%s/p%d", pt.Result.Config.Name(), pt.GoMaxProcs),
			GoMaxProcs:         pt.GoMaxProcs,
			NumCPU:             s.NumCPU,
			Ops:                pt.Result.Ops,
			OpsPerSec:          pt.Result.OpsPerSec,
			P50Ns:              pt.Result.P50.Nanoseconds(),
			P99Ns:              pt.Result.P99.Nanoseconds(),
			AllocsPerOp:        pt.Result.AllocsPerOp,
			MasterworkerPerSec: pt.Workload.PerSec,
			SpeedupVsP1:        pt.SpeedupVsP1,
		})
	}
	out, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}
