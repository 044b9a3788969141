package core

import (
	"fmt"
	"strings"
)

// The CBR sweep extends Table 4 into a curve: exchange completion
// time against background load, for each bus width. cmd/tpbench
// -sweep renders it as CSV. Every (rate, wires) sample is one full
// Figure 7 co-simulation, all independent, so the sweep fans out on
// the experiment runner.

// SweepConfig parameterises the CBR sweep.
type SweepConfig struct {
	// Base is the case-study configuration each sample perturbs.
	Base ImpactConfig
	// Rates is the background CBR axis (B/s of 1-byte packets).
	Rates []float64
	// Wires lists the bus widths to sweep, one results column each.
	Wires []int
	// Workers bounds the worker pool; 0 selects DefaultWorkers, 1 is
	// sequential.
	Workers int
}

// DefaultSweepConfig matches the curve cmd/tpbench -sweep has always
// printed: eight rates from idle to the Table 4 saturation point,
// over the 1-wire and 2-wire buses.
func DefaultSweepConfig() SweepConfig {
	return SweepConfig{
		Base:  DefaultImpactConfig(),
		Rates: []float64{0, 0.1, 0.2, 0.3, 0.5, 0.7, 0.85, 1.0},
		Wires: []int{1, 2},
	}
}

// Sweep is the completion-time curve.
type Sweep struct {
	Rates []float64
	Wires []int
	// Cells holds one ImpactResult per (rate, wires) pair, indexed
	// [rate][wire] like Table4.
	Cells [][]ImpactResult
}

// RunSweep evaluates the full (rates × wires) grid concurrently and
// returns the curve. The result is identical at every worker count.
func RunSweep(cfg SweepConfig) Sweep {
	if len(cfg.Rates) == 0 {
		cfg.Rates = DefaultSweepConfig().Rates
	}
	if len(cfg.Wires) == 0 {
		cfg.Wires = DefaultSweepConfig().Wires
	}
	return Sweep{
		Rates: cfg.Rates,
		Wires: cfg.Wires,
		Cells: runGrid(cfg.Workers, cfg.Rates, cfg.Wires, func(rate float64, wires int) ImpactResult {
			c := cfg.Base
			c.CBRRate = rate
			c.Bus.Wires = wires
			return RunImpact(c)
		}),
	}
}

// CSV renders the curve in the cmd/tpbench -sweep format: a header
// naming each wire-count column, then one row per CBR rate. "Out of
// Time" samples render as empty cells.
func (s Sweep) CSV() string {
	var b strings.Builder
	b.WriteString("cbr_Bps")
	for _, w := range s.Wires {
		name := "wire"
		switch w {
		case 1:
			name = "onewire"
		case 2:
			name = "twowire"
		default:
			name = fmt.Sprintf("%dwire", w)
		}
		fmt.Fprintf(&b, ",%s_s", name)
	}
	b.WriteByte('\n')
	for i, rate := range s.Rates {
		fmt.Fprintf(&b, "%g", rate)
		for j := range s.Wires {
			res := s.Cells[i][j]
			if res.OutOfTime() {
				b.WriteByte(',')
			} else {
				fmt.Fprintf(&b, ",%.1f", res.Total.Seconds())
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
