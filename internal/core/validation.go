// Package core implements the paper's contribution: the rapid
// prototyping methodology for estimating TpWIRE bus performance under
// a tuplespace middleware. It provides the two evaluation scenarios
// of Section 5 — the NS-2-TpWIRE model validation of Figure 6 /
// Table 3 and the tuplespace-impact case study of Figure 7 / Table 4
// — as reproducible experiment drivers over the simulation substrate.
package core

import (
	"fmt"
	"strings"

	"tpspace/internal/sim"
	"tpspace/internal/tpwire"
)

// ValidationConfig parameterises the Figure 6 experiment: a CBR
// source on Slave1 sends 1-byte packets to a receiver on Slave2; the
// elapsed bus time per transferred frame count is compared against
// the TpICU/SCM hardware stand-in to derive a scaling factor.
type ValidationConfig struct {
	// Bus is the TpWIRE configuration under test.
	Bus tpwire.Config
	// FrameCounts is the "Num. Frame" column of Table 3.
	FrameCounts []int
	// Realtime, when set, paces the simulation against the wall clock
	// with the given speedup, as the paper does with the NS-2
	// real-time scheduler, and reports the drift statistics.
	Realtime bool
	Speedup  float64
	// Seed feeds the simulation kernel.
	Seed int64
	// Workers bounds the pool the frame-count rows fan out on; 0
	// selects DefaultWorkers. Realtime runs are forced sequential —
	// wall-clock pacing of concurrent rows would contend for the CPU
	// and corrupt the drift statistics.
	Workers int
}

// DefaultValidationConfig mirrors the experiment as run in
// EXPERIMENTS.md.
func DefaultValidationConfig() ValidationConfig {
	return ValidationConfig{
		Bus:         tpwire.Config{BitRate: 1_000_000},
		FrameCounts: []int{1000, 10_000, 100_000},
		Seed:        1,
	}
}

// ValidationRow is one row of Table 3.
type ValidationRow struct {
	// Frames is the number of TpWIRE frames carried on the wire.
	Frames int
	// Hardware is the TpICU/SCM stand-in's elapsed time.
	Hardware sim.Duration
	// Simulated is the NS-2-TpWIRE model's (our DES) elapsed time.
	Simulated sim.Duration
	// Scaling is Hardware/Simulated, the correction the methodology
	// applies to simulated numbers ("a scaling factor used to
	// understand how close to reality is the NS-2-TpWIRE model").
	Scaling float64
	// Realtime holds the pacing statistics when the real-time
	// scheduler was used.
	Realtime sim.RealtimeStats
	// bytes is the payload the receiver took in during the run, the
	// numerator of ValidationResult.ThroughputBps.
	bytes uint64
}

// ValidationResult is Table 3 plus the measured raw throughput.
type ValidationResult struct {
	Rows []ValidationRow
	// ThroughputBps is the measured payload throughput of the
	// validation transfer (bytes/second), the paper's "real TpWIRE
	// throughput" measurement.
	ThroughputBps float64
	// MeanScaling is the scaling factor averaged over the rows.
	MeanScaling float64
}

// RunValidation executes the Figure 6 experiment.
func RunValidation(cfg ValidationConfig) ValidationResult {
	if len(cfg.FrameCounts) == 0 {
		cfg.FrameCounts = DefaultValidationConfig().FrameCounts
	}
	var res ValidationResult
	workers := cfg.Workers
	if cfg.Realtime {
		workers = 1
	}
	jobs := make([]func() ValidationRow, len(cfg.FrameCounts))
	for i, n := range cfg.FrameCounts {
		n := n
		jobs[i] = func() ValidationRow { return runValidationOnce(cfg, n) }
	}
	res.Rows = RunAll(workers, jobs)
	// Throughput from the largest row: payload bytes per elapsed time.
	last := res.Rows[len(res.Rows)-1]
	if last.Simulated > 0 {
		// Each delivered payload byte costs one read and one write
		// transaction (4 frames) plus protocol overhead; the measured
		// number below is taken directly from the run instead.
		res.ThroughputBps = float64(last.bytes) / last.Simulated.Seconds()
	}
	total := 0.0
	for _, r := range res.Rows {
		total += r.Scaling
	}
	res.MeanScaling = total / float64(len(res.Rows))
	return res
}

// runValidationOnce measures the elapsed time to push the given
// number of frames across the Figure 6 topology and pairs it with the
// analytic hardware stand-in.
func runValidationOnce(cfg ValidationConfig, frames int) ValidationRow {
	elapsed, sink, rt := runScenario(cfg, frames)

	// Hardware stand-in: the TpICU/SCM firmware runs the same frame
	// schedule with its overhead factor.
	busCfg := cfg.Bus
	if err := busCfg.Normalize(); err != nil {
		panic(err)
	}
	a := tpwire.NewAnalytic(busCfg)
	// Each protocol transaction carries two frames (TX + RX); the
	// receiver sits at chain position 1.
	hw := a.TransferTime(frames/2, 1)

	row := ValidationRow{
		Frames:    frames,
		Hardware:  hw,
		Simulated: elapsed,
		Realtime:  rt,
		bytes:     sink.Bytes,
	}
	if elapsed > 0 {
		row.Scaling = float64(hw) / float64(elapsed)
	}
	return row
}

// runScenario builds Figure 6 (Master, Slave1 with a saturating
// source, Slave2 with a receiver) and runs it until the wire has
// carried the requested number of frames.
func runScenario(cfg ValidationConfig, frames int) (sim.Duration, *tpwire.Sink, sim.RealtimeStats) {
	k := sim.NewKernel(cfg.Seed)
	defer k.Shutdown()
	chain := tpwire.NewChain(k, cfg.Bus)
	src := tpwire.NewMailboxDevice(nil)
	chain.AddSlave(1).SetDevice(src)
	dst := tpwire.NewMailboxDevice(nil)
	chain.AddSlave(2).SetDevice(dst)
	sink := tpwire.NewSink(k)
	sink.Attach(dst)

	poller := tpwire.NewPoller(chain, []uint8{1, 2}, 0)
	poller.Start()

	// Saturating source: keep the outbox topped up with 1-byte
	// packets ("a CBR traffic generator ... to send a 1 byte packet")
	// so the wire is never idle and the measurement is protocol-bound.
	seq := uint64(0)
	topUp := func() {
		for src.OutboxLen() < 32 {
			seq++
			src.Send(2, []byte{byte(seq)})
		}
	}
	topUp()
	stopTop := k.Ticker("core.topup", chain.Config().Bits(256), topUp)
	defer stopTop()

	// Stop once the frame budget is spent.
	var elapsed sim.Duration
	stopWatch := k.Ticker("core.watch", chain.Config().Bits(64), func() {
		st := chain.Stats()
		if st.TXFrames+st.RXFrames >= uint64(frames) {
			elapsed = sim.Duration(k.Now())
			k.Stop()
		}
	})
	defer stopWatch()

	var rt sim.RealtimeStats
	horizon := sim.Time(1 << 62)
	if cfg.Realtime {
		speed := cfg.Speedup
		if speed <= 0 {
			speed = 1
		}
		rt = k.RunRealtime(horizon, speed)
	} else {
		k.RunUntil(horizon)
	}
	if elapsed == 0 {
		elapsed = sim.Duration(k.Now())
	}
	poller.Stop()
	return elapsed, sink, rt
}

// FormatTable3 renders the validation result in the shape of Table 3
// ("Validation NS2-TpWIRE").
func FormatTable3(r ValidationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: Validation NS2-TpWIRE\n")
	fmt.Fprintf(&b, "%-12s %-14s %-14s %-8s\n", "Num. Frame", "TpICU/SCM [s]", "NS [s]", "scale")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12d %-14.4f %-14.4f %-8.3f\n",
			row.Frames, row.Hardware.Seconds(), row.Simulated.Seconds(), row.Scaling)
	}
	fmt.Fprintf(&b, "mean scaling factor: %.3f   measured throughput: %.1f B/s\n",
		r.MeanScaling, r.ThroughputBps)
	return b.String()
}
