// Benchmarks regenerating the paper's evaluation (one bench per table
// and figure) plus the ablation studies of DESIGN.md. Absolute wall
// times here measure the simulator; the paper-facing quantities
// (simulated seconds, scaling factors, completion times) are emitted
// as custom metrics via b.ReportMetric.
//
//	go test -bench=. -benchmem
package tpspace_test

import (
	"fmt"
	"testing"

	"tpspace/internal/agents"
	"tpspace/internal/core"
	"tpspace/internal/crc"
	"tpspace/internal/frame"
	"tpspace/internal/sim"
	"tpspace/internal/space"
	"tpspace/internal/tpwire"
	"tpspace/internal/transport"
	"tpspace/internal/tuple"
	"tpspace/internal/wrapper"
	"tpspace/internal/xmlcodec"
)

//
// Tables 1-2: frame codec.
//

// BenchmarkTable1TXFrame measures TX frame pack/unpack (Table 1).
func BenchmarkTable1TXFrame(b *testing.B) {
	f := frame.TX{Cmd: frame.CmdWrite, Data: 0xA5}
	for i := 0; i < b.N; i++ {
		w := f.Pack()
		if _, err := frame.UnpackTX(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2RXFrame measures RX frame pack/unpack (Table 2).
func BenchmarkTable2RXFrame(b *testing.B) {
	f := frame.RX{Int: true, Type: frame.TypeData, Data: 0x3C}
	for i := 0; i < b.N; i++ {
		w := f.Pack()
		if _, err := frame.UnpackRX(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCRC4 measures the bit-serial TpWIRE CRC engine.
func BenchmarkCRC4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		crc.TpWIRETX(uint8(i)&7, uint8(i))
	}
}

//
// Table 3 / Figure 6: validation.
//

// BenchmarkTable3Validation regenerates Table 3 and reports the mean
// scaling factor and simulated seconds per 10k frames.
func BenchmarkTable3Validation(b *testing.B) {
	cfg := core.DefaultValidationConfig()
	cfg.FrameCounts = []int{10_000}
	var res core.ValidationResult
	for i := 0; i < b.N; i++ {
		res = core.RunValidation(cfg)
	}
	b.ReportMetric(res.MeanScaling, "scaling")
	b.ReportMetric(res.Rows[0].Simulated.Seconds(), "sim-s/10kframes")
	b.ReportMetric(res.ThroughputBps, "payload-B/s")
}

// BenchmarkFig6Throughput measures the raw validation-topology
// throughput at several bus speeds.
func BenchmarkFig6Throughput(b *testing.B) {
	for _, rate := range []float64{9600, 115_200, 1_000_000} {
		b.Run(fmt.Sprintf("bitrate=%.0f", rate), func(b *testing.B) {
			cfg := core.DefaultValidationConfig()
			cfg.Bus.BitRate = rate
			cfg.FrameCounts = []int{5000}
			var res core.ValidationResult
			for i := 0; i < b.N; i++ {
				res = core.RunValidation(cfg)
			}
			b.ReportMetric(res.ThroughputBps, "payload-B/s")
		})
	}
}

//
// Table 4 / Figure 7: tuplespace impact.
//

// BenchmarkTable4Impact regenerates the full Table 4 sweep at the
// calibrated operating point and reports every cell (seconds;
// 0 = Out of Time).
func BenchmarkTable4Impact(b *testing.B) {
	cfg := core.DefaultTable4Config()
	var t4 core.Table4
	for i := 0; i < b.N; i++ {
		t4 = core.RunTable4(cfg)
	}
	for i, rate := range t4.CBRRates {
		for j, w := range t4.Wires {
			cell := t4.Cells[i][j]
			v := cell.Total.Seconds()
			if cell.OutOfTime() {
				v = 0
			}
			b.ReportMetric(v, fmt.Sprintf("cbr%g-%dw-s", rate, w))
		}
	}
}

// BenchmarkFig7CaseStudy runs the single Figure 7 cell (CBR 0.3 B/s,
// 1-wire) and reports its timeline.
func BenchmarkFig7CaseStudy(b *testing.B) {
	cfg := core.DefaultImpactConfig()
	cfg.CBRRate = 0.3
	var res core.ImpactResult
	for i := 0; i < b.N; i++ {
		res = core.RunImpact(cfg)
	}
	b.ReportMetric(res.WriteDone.Seconds(), "write-s")
	b.ReportMetric(res.Total.Seconds(), "total-s")
	b.ReportMetric(float64(res.BusFrames), "frames")
}

// BenchmarkPlanGrid regenerates the full -plan design grid (30
// co-simulated grid points, the burst fast path's headline workload)
// and reports how many simulated seconds one grid pass models —
// scripts/bench.sh records the pair (ns/op, sim-s) as the
// machine-readable baseline in BENCH_plan.json.
func BenchmarkPlanGrid(b *testing.B) {
	var plan core.Plan
	for i := 0; i < b.N; i++ {
		plan = core.RunPlan(core.PlanConfig{Requirements: core.DefaultRequirements()})
	}
	req := plan.Requirements
	// Each point simulates until its take completes or the planner's
	// horizon (3x the take+lease budget) expires.
	horizon := 3 * (req.TakeDelay + req.Lease).Seconds()
	simS := 0.0
	for _, o := range plan.Explored {
		if o.Completion > 0 {
			simS += o.Completion.Seconds()
		} else {
			simS += horizon
		}
	}
	b.ReportMetric(simS, "sim-s")
	b.ReportMetric(float64(len(plan.Explored)), "points")
}

//
// Ablations (DESIGN.md A1-A4).
//

// BenchmarkAblationNWireModes compares the two n-wire scalings of
// Section 3.2 moving two independent 200-byte flows: mode A (one bus,
// parallel data lanes) vs mode B (two parallel 1-wire buses).
func BenchmarkAblationNWireModes(b *testing.B) {
	runModeA := func() sim.Duration {
		k := sim.NewKernel(1)
		c := tpwire.NewChain(k, tpwire.Config{BitRate: 10_000, Wires: 2})
		var done [2]sim.Time
		var boxes [4]*tpwire.MailboxDevice
		for i := 0; i < 4; i++ {
			mb := tpwire.NewMailboxDevice(nil)
			c.AddSlave(uint8(i + 1)).SetDevice(mb)
			boxes[i] = mb
		}
		for f := 0; f < 2; f++ {
			f := f
			boxes[2+f].SetOnReceive(func(tpwire.Message) { done[f] = k.Now() })
		}
		tpwire.NewPoller(c, []uint8{1, 2, 3, 4}, 0).Start()
		boxes[0].Send(3, make([]byte, 200))
		boxes[1].Send(4, make([]byte, 200))
		k.RunUntil(sim.Time(300 * sim.Second))
		last := done[0]
		if done[1] > last {
			last = done[1]
		}
		return sim.Duration(last)
	}
	runModeB := func() sim.Duration {
		k := sim.NewKernel(1)
		var done [2]sim.Time
		pb := tpwire.NewParallelBus(k, 2, tpwire.Config{BitRate: 10_000}, func(bus int, c *tpwire.Chain) {
			src := tpwire.NewMailboxDevice(nil)
			c.AddSlave(1).SetDevice(src)
			dst := tpwire.NewMailboxDevice(func(tpwire.Message) { done[bus] = k.Now() })
			c.AddSlave(2).SetDevice(dst)
			tpwire.NewPoller(c, []uint8{1, 2}, 0).Start()
		})
		for f := 0; f < 2; f++ {
			pb.Bus(f).Slave(1).Device().(*tpwire.MailboxDevice).Send(2, make([]byte, 200))
		}
		k.RunUntil(sim.Time(300 * sim.Second))
		last := done[0]
		if done[1] > last {
			last = done[1]
		}
		return sim.Duration(last)
	}
	var a, bt sim.Duration
	for i := 0; i < b.N; i++ {
		a = runModeA()
		bt = runModeB()
	}
	b.ReportMetric(a.Seconds(), "modeA-s")
	b.ReportMetric(bt.Seconds(), "modeB-s")
}

// BenchmarkAblationRetries sweeps the retry budget against a 5% frame
// error rate and reports delivery completeness.
func BenchmarkAblationRetries(b *testing.B) {
	for _, retries := range []int{1, 3, 8} {
		b.Run(fmt.Sprintf("retries=%d", retries), func(b *testing.B) {
			var delivered uint64
			for i := 0; i < b.N; i++ {
				k := sim.NewKernel(int64(i + 1))
				c := tpwire.NewChain(k, tpwire.Config{FrameErrorRate: 0.05, Retries: retries})
				src := tpwire.NewMailboxDevice(nil)
				c.AddSlave(1).SetDevice(src)
				var got uint64
				dst := tpwire.NewMailboxDevice(func(tpwire.Message) { got++ })
				c.AddSlave(2).SetDevice(dst)
				tpwire.NewPoller(c, []uint8{1, 2}, 0).Start()
				for m := 0; m < 20; m++ {
					src.Send(2, []byte{byte(m), 0xFF})
				}
				k.RunUntil(sim.Time(10 * sim.Second))
				delivered = got
			}
			b.ReportMetric(float64(delivered)/20*100, "delivered-%")
		})
	}
}

// BenchmarkAblationEncoding compares the XML entry representation the
// paper uses with a compact binary one (A3): bytes on the wire per
// entry.
func BenchmarkAblationEncoding(b *testing.B) {
	entry := tuple.New("case-study",
		tuple.Int("id", 1),
		tuple.Bytes("vector", make([]byte, 24)),
	)
	b.Run("xml", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			buf, err := xmlcodec.MarshalRequest(xmlcodec.NewRequest(1, xmlcodec.OpWrite, &entry))
			if err != nil {
				b.Fatal(err)
			}
			n = len(buf)
		}
		b.ReportMetric(float64(n), "wire-bytes")
	})
	b.Run("binary", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			n = len(xmlcodec.EncodeTupleBinary(entry))
		}
		b.ReportMetric(float64(n), "wire-bytes")
	})
}

// BenchmarkAblationPolling sweeps the master's idle poll period and
// reports the take latency of a single small exchange.
func BenchmarkAblationPolling(b *testing.B) {
	for _, pollBits := range []int{256, 1024, 1920} {
		b.Run(fmt.Sprintf("pollbits=%d", pollBits), func(b *testing.B) {
			var latency sim.Duration
			for i := 0; i < b.N; i++ {
				k := sim.NewKernel(1)
				c := tpwire.NewChain(k, tpwire.Config{BitRate: 100_000, PollPeriodBits: pollBits})
				src := tpwire.NewMailboxDevice(nil)
				c.AddSlave(1).SetDevice(src)
				var doneAt sim.Time
				dst := tpwire.NewMailboxDevice(func(tpwire.Message) { doneAt = k.Now() })
				c.AddSlave(2).SetDevice(dst)
				tpwire.NewPoller(c, []uint8{1, 2}, 0).Start()
				// Inject mid-idle so the poll period matters.
				k.Schedule(50*sim.Millisecond, func() { src.Send(2, []byte("x")) })
				k.RunUntil(sim.Time(2 * sim.Second))
				latency = doneAt.Sub(sim.Time(50 * sim.Millisecond))
			}
			b.ReportMetric(latency.Seconds()*1000, "take-latency-ms")
		})
	}
}

//
// Middleware micro-benchmarks.
//

// BenchmarkTupleMatch measures associative matching.
func BenchmarkTupleMatch(b *testing.B) {
	data := tuple.New("job", tuple.String("op", "fft"), tuple.Int("n", 1024),
		tuple.Bytes("v", make([]byte, 32)))
	tmpl := tuple.New("job", tuple.AnyString("op"), tuple.Int("n", 1024), tuple.AnyBytes("v"))
	for i := 0; i < b.N; i++ {
		if !tmpl.Matches(data) {
			b.Fatal("no match")
		}
	}
}

// BenchmarkSpaceWriteTake measures a local write+take pair.
func BenchmarkSpaceWriteTake(b *testing.B) {
	k := sim.NewKernel(1)
	sp := space.New(space.SimRuntime{K: k})
	entry := tuple.New("job", tuple.String("op", "fft"), tuple.Int("n", 1024))
	tmpl := tuple.New("job", tuple.AnyString("op"), tuple.AnyInt("n"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sp.Write(entry, space.NoLease); err != nil {
			b.Fatal(err)
		}
		if _, ok := sp.TakeIfExists(tmpl); !ok {
			b.Fatal("take failed")
		}
	}
}

// BenchmarkXMLRoundTrip measures the XML request codec.
func BenchmarkXMLRoundTrip(b *testing.B) {
	entry := tuple.New("job", tuple.String("op", "fft"), tuple.Int("n", 1024),
		tuple.Bytes("v", make([]byte, 32)))
	for i := 0; i < b.N; i++ {
		buf, err := xmlcodec.MarshalRequest(xmlcodec.NewRequest(uint64(i), xmlcodec.OpWrite, &entry))
		if err != nil {
			b.Fatal(err)
		}
		req, err := xmlcodec.UnmarshalRequest(buf)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := req.Tuple(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWrapperRoundTrip measures a full client->gateway->RMI->
// space->back exchange over loopback transports (wall clock, no
// simulated latency).
func BenchmarkWrapperRoundTrip(b *testing.B) {
	sp := space.New(space.NewRealRuntime())
	cliEnd, gwEnd := transport.NewLoopback()
	wrapper.NewServerStack(gwEnd, sp)
	cli := wrapper.NewClient(cliEnd)
	entry := tuple.New("job", tuple.String("op", "fft"), tuple.Int("n", 1024))
	tmpl := tuple.New("job", tuple.AnyString("op"), tuple.AnyInt("n"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cli.WriteWait(entry, space.NoLease); err != nil {
			b.Fatal(err)
		}
		if _, ok := cli.TakeWait(tmpl, sim.Duration(sim.Second)); !ok {
			b.Fatal("take failed")
		}
	}
}

// BenchmarkSimKernel measures raw event throughput of the DES kernel.
func BenchmarkSimKernel(b *testing.B) {
	k := sim.NewKernel(1)
	var next func()
	n := 0
	next = func() {
		n++
		if n < b.N {
			k.Schedule(sim.Microsecond, next)
		}
	}
	b.ResetTimer()
	k.Schedule(0, next)
	k.Run()
}

// BenchmarkBusTransaction measures the simulator cost of one TpWIRE
// register transaction end to end.
func BenchmarkBusTransaction(b *testing.B) {
	k := sim.NewKernel(1)
	c := tpwire.NewChain(k, tpwire.Config{})
	c.AddSlave(1)
	done := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Master().WriteReg(1, false, uint8(i), uint8(i), func(error) { done++ })
		k.Run()
	}
	if done != b.N {
		b.Fatalf("completed %d/%d", done, b.N)
	}
}

// BenchmarkFFTFarmScaling reports batch completion (simulated
// seconds) for 1, 2 and 4 consumers — the Section 2.1 scalability
// argument as a measurement.
func BenchmarkFFTFarmScaling(b *testing.B) {
	for _, consumers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("consumers=%d", consumers), func(b *testing.B) {
			var batch sim.Duration
			for i := 0; i < b.N; i++ {
				k := sim.NewKernel(1)
				sp := space.New(space.SimRuntime{K: k})
				api := agents.LocalSpace{S: sp}
				for c := 0; c < consumers; c++ {
					agents.NewFFTConsumer(k, api, "fpu", 100*sim.Millisecond).Start()
				}
				prod := agents.NewFFTProducer(k, api, "weak")
				var lastDone sim.Time
				samples := make([]float64, 32)
				for j := 0; j < 16; j++ {
					prod.Submit(samples, func([]complex128) { lastDone = k.Now() })
				}
				k.RunUntil(sim.Time(sim.Hour))
				batch = sim.Duration(lastDone)
			}
			b.ReportMetric(batch.Seconds(), "batch-sim-s")
		})
	}
}

// BenchmarkFFT measures the radix-2 kernel itself.
func BenchmarkFFT(b *testing.B) {
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(float64(i%7), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agents.FFT(x)
	}
}

// BenchmarkAblationDMA (A5) compares moving a 400-byte message with
// per-byte FIFO frames vs DMA bursts (the DMA counter register put to
// use).
func BenchmarkAblationDMA(b *testing.B) {
	move := func(useDMA bool) sim.Duration {
		k := sim.NewKernel(1)
		c := tpwire.NewChain(k, tpwire.Config{BitRate: 10_000})
		src := tpwire.NewMailboxDevice(nil)
		c.AddSlave(1).SetDevice(src)
		var doneAt sim.Time
		dst := tpwire.NewMailboxDevice(func(tpwire.Message) { doneAt = k.Now() })
		c.AddSlave(2).SetDevice(dst)
		p := tpwire.NewPoller(c, []uint8{1, 2}, 0)
		p.UseDMA = useDMA
		p.Start()
		src.Send(2, make([]byte, 400))
		k.RunUntil(sim.Time(300 * sim.Second))
		return sim.Duration(doneAt)
	}
	var fifo, dma sim.Duration
	for i := 0; i < b.N; i++ {
		fifo = move(false)
		dma = move(true)
	}
	b.ReportMetric(fifo.Seconds(), "fifo-s")
	b.ReportMetric(dma.Seconds(), "dma-s")
	b.ReportMetric(float64(fifo)/float64(dma), "speedup")
}

// BenchmarkAblationIntPolling (A6) compares idle bus load of the
// full-scan poller against the INT-bit-driven one on a 6-slave chain.
func BenchmarkAblationIntPolling(b *testing.B) {
	idleFrames := func(intDriven bool) uint64 {
		k := sim.NewKernel(1)
		c := tpwire.NewChain(k, tpwire.Config{})
		ids := []uint8{1, 2, 3, 4, 5, 6}
		for _, id := range ids {
			c.AddSlave(id).SetDevice(tpwire.NewMailboxDevice(nil))
		}
		p := tpwire.NewPoller(c, ids, 0)
		p.IntDriven = intDriven
		p.Start()
		k.RunUntil(sim.Time(sim.Second))
		p.Stop()
		return c.Stats().TXFrames
	}
	var full, lean uint64
	for i := 0; i < b.N; i++ {
		full = idleFrames(false)
		lean = idleFrames(true)
	}
	b.ReportMetric(float64(full), "fullscan-frames/s")
	b.ReportMetric(float64(lean), "intdriven-frames/s")
}

// BenchmarkSpaceTypedLookup shows the type index at work: takes
// against one type among many are independent of the other types'
// population.
func BenchmarkSpaceTypedLookup(b *testing.B) {
	for _, types := range []int{1, 50} {
		b.Run(fmt.Sprintf("types=%d", types), func(b *testing.B) {
			k := sim.NewKernel(1)
			sp := space.New(space.SimRuntime{K: k})
			// Populate every type with 200 entries.
			for ty := 0; ty < types; ty++ {
				for i := 0; i < 200; i++ {
					sp.Write(tuple.New(fmt.Sprintf("t%d", ty), tuple.Int("v", int64(i))), space.NoLease)
				}
			}
			target := fmt.Sprintf("t%d", types-1)
			tmpl := tuple.New(target, tuple.AnyInt("v"))
			entry := tuple.New(target, tuple.Int("v", 999))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := sp.TakeIfExists(tmpl); !ok {
					b.Fatal("miss")
				}
				sp.Write(entry, space.NoLease)
			}
		})
	}
}
