package core

import (
	"fmt"
	"strings"

	"tpspace/internal/cosim"
	"tpspace/internal/sim"
	"tpspace/internal/space"
	"tpspace/internal/tpwire"
	"tpspace/internal/transport"
	"tpspace/internal/tuple"
	"tpspace/internal/wrapper"
)

// ImpactConfig parameterises the Figure 7 case study: a C++ client on
// Slave1 talks to the JavaSpace server on Slave3 while a CBR source
// on Slave2 loads the bus towards a receiver on Slave4. The client
// writes an entry with a lease, waits, then takes it back; above a
// traffic threshold the take no longer completes inside the lease
// ("Out of Time" in Table 4).
type ImpactConfig struct {
	// Bus is the TpWIRE configuration; Bus.Wires selects the 1-wire
	// or 2-wire variant.
	Bus tpwire.Config
	// CBRRate is the background load in bytes/second (the paper
	// sweeps 0, 0.3 and 1 B/s of 1-byte packets).
	CBRRate float64
	// Lease is the written entry's lifetime (160 s in Table 4).
	Lease sim.Duration
	// TakeDelay is how long the client waits after its write is
	// acknowledged before issuing the take ("later on, a take
	// operation is executed").
	TakeDelay sim.Duration
	// PayloadBytes sizes the entry's binary field; the XML encoding
	// inflates it on the wire.
	PayloadBytes int
	// CosimPerMsg / CosimPerByte calibrate the gdb+shm co-simulation
	// overhead of the client path (Figure 5).
	CosimPerMsg  sim.Duration
	CosimPerByte sim.Duration
	// Horizon bounds the run; a take still outstanding at the horizon
	// is reported as out of time.
	Horizon sim.Duration
	// MaxPerSweep is the poller's per-slave service budget per sweep;
	// it sets how aggressively queued background traffic competes
	// with the client exchange once the CBR backlog builds.
	MaxPerSweep int
	// Seed feeds the simulation kernel.
	Seed int64
	// NoFastPath disables the poller's burst-mode coalescing of idle
	// sweeps (tpwire fast path). The fast path is on by default and
	// byte-identical to the per-event run, which tests keep as their
	// reference (fastpath_test.go).
	NoFastPath bool
}

// DefaultImpactConfig is the calibration recorded in EXPERIMENTS.md:
// it reproduces the shape (and approximately the values) of Table 4 —
// CBR 0 B/s: 134 s (1-wire) / 117 s (2-wire); 0.3 B/s: 151 s / 121 s;
// 1 B/s: Out of Time / completes — against the paper's 140/116,
// 151/122, Out-of-Time/129.
func DefaultImpactConfig() ImpactConfig {
	return ImpactConfig{
		Bus: tpwire.Config{
			BitRate:        1200,
			GapBits:        1,
			TurnaroundBits: 2,
			ProcBits:       4,
			HopBits:        1,
			Wires:          1,
		},
		CBRRate:      0,
		Lease:        160 * sim.Second,
		TakeDelay:    85 * sim.Second,
		PayloadBytes: 24,
		CosimPerMsg:  200 * sim.Millisecond,
		CosimPerByte: 2 * sim.Millisecond,
		Horizon:      600 * sim.Second,
		MaxPerSweep:  48,
		Seed:         1,
	}
}

// ImpactResult is one cell of Table 4.
type ImpactResult struct {
	// WriteDone is when the client's write was acknowledged.
	WriteDone sim.Duration
	// TakeIssued is when the client issued the take.
	TakeIssued sim.Duration
	// Total is the completion time of the whole exchange (write
	// through successful take), the number Table 4 reports.
	Total sim.Duration
	// TakeOK reports whether the take returned the entry; false
	// renders as "Out of Time".
	TakeOK bool
	// Expired reports whether the server-side entry lapsed before the
	// take reached it.
	Expired bool
	// BusFrames, BusBusy and CBRDelivered describe the bus during the
	// run.
	BusFrames    uint64
	BusBusy      sim.Duration
	CBRDelivered uint64
}

// OutOfTime reports whether the cell renders as "Out of Time".
func (r ImpactResult) OutOfTime() bool { return !r.TakeOK }

// normalize fills zero fields from DefaultImpactConfig. It is the only
// place the Figure 7 defaults are filled.
func (c *ImpactConfig) normalize() {
	def := DefaultImpactConfig()
	if c.Lease == 0 {
		c.Lease = def.Lease
	}
	if c.TakeDelay == 0 {
		c.TakeDelay = def.TakeDelay
	}
	if c.PayloadBytes == 0 {
		c.PayloadBytes = def.PayloadBytes
	}
	if c.Horizon == 0 {
		c.Horizon = def.Horizon
	}
	if c.Bus.BitRate == 0 {
		c.Bus.BitRate = def.Bus.BitRate
	}
}

// fig7 is one Figure 7 world, built and started but not yet run. A
// runner wraps bridge in its own client and drives its own exchange
// script on it: write entry, later take it back with tmpl.
type fig7 struct {
	k      *sim.Kernel
	chain  *tpwire.Chain
	poller *tpwire.Poller
	sp     *space.Space
	bridge *cosim.Bridge
	cbr    *tpwire.CBR
	sink   *tpwire.Sink
	entry  tuple.Tuple
	tmpl   tuple.Tuple
}

// newFig7 builds the case study from a normalized config. The caller
// owns the kernel and must Shutdown it: the poller process is still
// parked when a run ends.
func newFig7(cfg ImpactConfig) *fig7 {
	k := sim.NewKernel(cfg.Seed)
	chain := tpwire.NewChain(k, cfg.Bus)

	// Figure 7 topology: client(1), CBR(2), server(3), receiver(4).
	mbClient := tpwire.NewMailboxDevice(nil)
	chain.AddSlave(1).SetDevice(mbClient)
	mbCBR := tpwire.NewMailboxDevice(nil)
	chain.AddSlave(2).SetDevice(mbCBR)
	mbServer := tpwire.NewMailboxDevice(nil)
	chain.AddSlave(3).SetDevice(mbServer)
	mbRecv := tpwire.NewMailboxDevice(nil)
	chain.AddSlave(4).SetDevice(mbRecv)
	sink := tpwire.NewSink(k)
	sink.Attach(mbRecv)

	poller := tpwire.NewPoller(chain, []uint8{1, 2, 3, 4}, 0)
	if cfg.MaxPerSweep > 0 {
		poller.MaxPerSweep = cfg.MaxPerSweep
	}
	poller.FastPath = !cfg.NoFastPath
	poller.Start()

	// Server stack behind Slave3 (Figure 4/5: SC2 -> socket ->
	// wrapper -> RMI -> SpaceServer).
	sp := space.New(space.SimRuntime{K: k})
	srvConn := transport.NewMailboxConn(mbServer, 1)
	wrapper.NewSimServerStack(k, srvConn, sp, sim.Millisecond)

	// Client side of Slave1, through the co-simulation bridge
	// (Figure 5: gdb -> SC1 -> shm -> bus).
	cliConn := transport.NewMailboxConn(mbClient, 3)
	bridge := cosim.NewBridge(k, cliConn, cfg.CosimPerMsg, cfg.CosimPerByte)

	// Background CBR on Slave2 towards Slave4.
	cbr := tpwire.NewCBR(k, mbCBR, 4, cfg.CBRRate, 1)
	cbr.Start()

	// The entry the client writes and later takes back.
	payload := make([]byte, cfg.PayloadBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	return &fig7{
		k:      k,
		chain:  chain,
		poller: poller,
		sp:     sp,
		bridge: bridge,
		cbr:    cbr,
		sink:   sink,
		entry:  tuple.New("case-study", tuple.Int("id", 1), tuple.Bytes("vector", payload)),
		tmpl:   tuple.New("case-study", tuple.Int("id", 1), tuple.AnyBytes("vector")),
	}
}

// RunImpact executes the Figure 7 case study once.
func RunImpact(cfg ImpactConfig) ImpactResult {
	cfg.normalize()
	w := newFig7(cfg)
	k := w.k
	defer k.Shutdown()
	client := wrapper.NewClient(w.bridge)

	var res ImpactResult
	client.Write(w.entry, cfg.Lease, func(ok bool, errMsg string) {
		if !ok {
			return // leaves TakeOK false: rendered as failure
		}
		res.WriteDone = sim.Duration(k.Now())
		k.ScheduleName("core.take", cfg.TakeDelay, func() {
			res.TakeIssued = sim.Duration(k.Now())
			// "...removes the entry just written from the space only
			// if the entry lifetime is not out-of-date": a
			// non-blocking take.
			client.TakeIfExists(w.tmpl, func(_ tuple.Tuple, ok bool) {
				res.TakeOK = ok
				res.Total = sim.Duration(k.Now())
				k.Stop()
			})
		})
	})

	k.RunUntil(sim.Time(cfg.Horizon))
	w.cbr.Stop()
	w.poller.Stop()

	if !res.TakeOK {
		res.Total = 0
	}
	res.Expired = w.sp.Stats().Expired > 0
	res.BusFrames = w.chain.Stats().TXFrames + w.chain.Stats().RXFrames
	res.BusBusy = w.chain.Stats().BusyTime
	res.CBRDelivered = w.sink.Messages
	return res
}

// ImpactCell renders one Table 4 cell.
func ImpactCell(r ImpactResult) string {
	if r.OutOfTime() {
		return "Out of Time"
	}
	return fmt.Sprintf("%.0fs", r.Total.Seconds())
}

// Table4Config sweeps the case study across CBR rates and wire
// counts.
type Table4Config struct {
	Base     ImpactConfig
	CBRRates []float64
	Wires    []int
	// Workers bounds the worker pool the grid fans out on; 0 selects
	// DefaultWorkers, 1 runs sequentially. The grid is identical at
	// every worker count (each cell seeds its own kernel from Base).
	Workers int
}

// DefaultTable4Config reproduces the published sweep: CBR 0, 0.3 and
// 1 B/s over the 1-wire and (potential) 2-wire buses, lease 160 s.
func DefaultTable4Config() Table4Config {
	return Table4Config{
		Base:     DefaultImpactConfig(),
		CBRRates: []float64{0, 0.3, 1},
		Wires:    []int{1, 2},
	}
}

// Table4 is the full result grid.
type Table4 struct {
	CBRRates []float64
	Wires    []int
	Cells    [][]ImpactResult // [cbr][wire]
	Lease    sim.Duration
}

// RunTable4 executes the sweep, running every cell's co-simulation
// concurrently on the configured worker pool.
func RunTable4(cfg Table4Config) Table4 {
	base := cfg.Base
	base.normalize()
	return Table4{
		CBRRates: cfg.CBRRates,
		Wires:    cfg.Wires,
		Lease:    base.Lease,
		Cells: runGrid(cfg.Workers, cfg.CBRRates, cfg.Wires, func(rate float64, wires int) ImpactResult {
			c := cfg.Base
			c.CBRRate = rate
			c.Bus.Wires = wires
			return RunImpact(c)
		}),
	}
}

// Format renders the grid in the shape of Table 4.
func (t Table4) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: Impact of tuplespace middleware on TpWIRE (Lease Time = %.0fs)\n",
		t.Lease.Seconds())
	fmt.Fprintf(&b, "%-10s", "CBR")
	for _, w := range t.Wires {
		fmt.Fprintf(&b, " %-14s", fmt.Sprintf("%d-wire", w))
	}
	fmt.Fprintln(&b)
	for i, rate := range t.CBRRates {
		fmt.Fprintf(&b, "%-10s", fmt.Sprintf("%g B/s", rate))
		for j := range t.Wires {
			fmt.Fprintf(&b, " %-14s", ImpactCell(t.Cells[i][j]))
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
