package core

import (
	"bytes"
	"fmt"
	"strings"

	"tpspace/internal/cosim"
	"tpspace/internal/fault"
	"tpspace/internal/rmi"
	"tpspace/internal/sim"
	"tpspace/internal/space"
	"tpspace/internal/tpwire"
	"tpspace/internal/transport"
	"tpspace/internal/tuple"
	"tpspace/internal/wrapper"
)

// ChaosConfig replays the Figure 7 write+take case study with a
// deterministic fault schedule layered on top: frame corruption
// windows on the bus, dropouts of the server's slave, disconnects of
// the client's co-simulation link, and space-server crashes followed
// by journal-replay restarts. All fault draws come from the kernel
// RNG, so a chaos cell is a pure function of its config: reruns —
// sequential or fanned out over any worker count — are byte-identical.
type ChaosConfig struct {
	Impact ImpactConfig
	// FaultRate is fault activations per simulated second, the knob the
	// degradation grid sweeps. Zero runs the scenario fault-free.
	FaultRate float64
	// FaultDur is how long each fault window holds (default lease/8).
	FaultDur sim.Duration
	// CorruptProb is the per-frame corruption probability inside a
	// wire-corrupt window (default 0.2).
	CorruptProb float64
	// Kinds is the cycle of injected fault kinds (default: wire
	// corruption, disconnect, server-slave dropout, server crash).
	Kinds []fault.Kind
	// DropNode is the chain slave dropped by SlaveDrop events (default
	// 3, the space server's slave).
	DropNode uint8
	// Attempts and OpDeadline shape the client's retransmission policy:
	// per-attempt response budget OpDeadline (plus the op's own blocking
	// timeout), capped-exponential backoff between attempts. Defaults:
	// 4 attempts, lease/2 deadline.
	Attempts   int
	OpDeadline sim.Duration
}

// DefaultChaosConfig is the published case-study calibration with a
// moderate fault plan.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{Impact: DefaultImpactConfig(), FaultRate: 0.02}
}

func (c *ChaosConfig) normalize() {
	def := DefaultImpactConfig()
	ic := &c.Impact
	if ic.Lease == 0 {
		ic.Lease = def.Lease
	}
	if ic.TakeDelay == 0 {
		ic.TakeDelay = def.TakeDelay
	}
	if ic.PayloadBytes == 0 {
		ic.PayloadBytes = def.PayloadBytes
	}
	if ic.Horizon == 0 {
		ic.Horizon = def.Horizon
	}
	if ic.Bus.BitRate == 0 {
		ic.Bus.BitRate = def.Bus.BitRate
	}
	if ic.Wires != 0 {
		ic.Bus.Wires = ic.Wires
	}
	if c.FaultDur == 0 {
		c.FaultDur = ic.Lease / 8
	}
	if c.CorruptProb == 0 {
		c.CorruptProb = 0.2
	}
	if len(c.Kinds) == 0 {
		c.Kinds = []fault.Kind{fault.WireCorrupt, fault.Disconnect, fault.SlaveDrop, fault.ServerCrash}
	}
	if c.DropNode == 0 {
		c.DropNode = 3
	}
	if c.Attempts == 0 {
		c.Attempts = 4
	}
	if c.OpDeadline == 0 {
		c.OpDeadline = ic.Lease / 2
	}
}

// plan expands the fault rate into a concrete schedule: activations
// every 1/rate seconds across the horizon, cycling through Kinds.
func (c ChaosConfig) plan() fault.Plan {
	if c.FaultRate <= 0 {
		return nil
	}
	period := sim.Duration(float64(sim.Second) / c.FaultRate)
	n := int(float64(c.Impact.Horizon) / float64(period))
	p := make(fault.Plan, 0, n)
	for i := 0; i < n; i++ {
		ev := fault.Event{
			At:   sim.Duration(i+1) * period,
			Dur:  c.FaultDur,
			Kind: c.Kinds[i%len(c.Kinds)],
		}
		switch ev.Kind {
		case fault.WireCorrupt:
			ev.Prob = c.CorruptProb
		case fault.SlaveDrop:
			ev.Node = c.DropNode
		}
		p = append(p, ev)
	}
	return p
}

// ChaosResult is one cell of the degradation table, plus the evidence
// the invariant checks ran on.
type ChaosResult struct {
	WriteOK      bool
	WriteDone    sim.Duration
	TakeIssued   sim.Duration
	TakeResolved sim.Duration
	// Total is write-through-successful-take, as in Table 4; zero when
	// the exchange did not complete ("Out of Time").
	Total  sim.Duration
	TakeOK bool
	// TakeAttempts counts application-level take issues (a fresh
	// request id each, after a crash failure).
	TakeAttempts int
	// Injected is how many fault events activated.
	Injected int
	Crashes  uint64
	Restored uint64
	// BusRetries counts master CRC/timeout retries during the run.
	BusRetries uint64
	// BusIdle reports the bus drained back to idle after the last fault.
	BusIdle bool
	// Violations lists failed invariants; empty means the run was clean.
	Violations []string
}

// OutOfTime reports whether the cell renders as "Out of Time".
func (r ChaosResult) OutOfTime() bool { return !r.TakeOK }

// OK reports whether every invariant held.
func (r ChaosResult) OK() bool { return len(r.Violations) == 0 }

// RunChaos executes one chaos cell and checks its invariants:
//
//  1. No acknowledged write is lost — after the run, replaying the
//     journal into a fresh space must show the entry exactly when the
//     client's view says it should exist.
//  2. The take resolves (success or failure) within the entry's lease
//     plus the retry policy's worst-case slack.
//  3. After the last fault and a full drain the bus master is idle.
func RunChaos(cfg ChaosConfig) ChaosResult {
	cfg.normalize()
	ic := cfg.Impact

	k := sim.NewKernel(ic.Seed)
	defer k.Shutdown()
	chain := tpwire.NewChain(k, ic.Bus)

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
	if ic.MaxPerSweep > 0 {
		poller.MaxPerSweep = ic.MaxPerSweep
	}
	poller.FastPath = !ic.NoFastPath
	poller.Start()

	// Server stack on Slave3, with a crash-surviving journal.
	sp := space.New(space.SimRuntime{K: k})
	var journalBuf bytes.Buffer
	journal := space.NewJournal(&journalBuf)
	sp.SetJournal(journal)
	srvConn := transport.NewMailboxConn(mbServer, 1)
	wrapper.NewSimServerStack(k, srvConn, sp, sim.Millisecond)

	// Client stack on Slave1 behind the co-simulation bridge, with a
	// cuttable link and a retransmitting client.
	cliConn := transport.NewMailboxConn(mbClient, 3)
	bridge := cosim.NewBridge(k, cliConn, ic.CosimPerMsg, ic.CosimPerByte)
	fc := transport.NewFaultConn(bridge)
	client := wrapper.NewClient(fc)
	fc.OnRestore = client.Resend
	backoff := rmi.Backoff{
		Base:   cfg.OpDeadline / 16,
		Cap:    cfg.OpDeadline / 2,
		Factor: 2,
		Jitter: 0.3,
	}
	client.SetResilience(&wrapper.Resilience{
		Timer:    rmi.KernelTimer(k),
		Attempts: cfg.Attempts,
		Deadline: cfg.OpDeadline,
		Backoff:  backoff,
		Rand:     k.Rand(),
	})

	cbr := tpwire.NewCBR(k, mbCBR, 4, ic.CBRRate, 1)
	cbr.Start()

	// Crash wipes the live store (the journal survives, as a disk
	// would); restart replays it, satisfying any takes that were
	// re-issued while the server was down.
	crash := func() {
		journal.Flush()
		sp.Crash()
	}
	var replayErr error
	restart := func() {
		journal.Flush()
		snap := append([]byte(nil), journalBuf.Bytes()...)
		if _, err := sp.Replay(bytes.NewReader(snap)); err != nil && replayErr == nil {
			replayErr = err
		}
	}
	inj, err := fault.Arm(k, cfg.plan(), fault.Targets{
		Chain:   chain,
		Conn:    fc,
		Crash:   crash,
		Restart: restart,
	})
	if err != nil {
		return ChaosResult{Violations: []string{fmt.Sprintf("arming fault plan: %v", err)}}
	}

	payload := make([]byte, ic.PayloadBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	entry := tuple.New("case-study",
		tuple.Int("id", 1),
		tuple.Bytes("vector", payload),
	)
	tmpl := tuple.New("case-study",
		tuple.Int("id", 1),
		tuple.AnyBytes("vector"),
	)

	var res ChaosResult
	var leaseEnd sim.Duration
	takeResolved := false
	var issueTake func()
	issueTake = func() {
		remaining := leaseEnd - sim.Duration(k.Now())
		if remaining <= 0 {
			res.TakeResolved = sim.Duration(k.Now())
			takeResolved = true
			return
		}
		res.TakeAttempts++
		client.TakeStatus(tmpl, remaining, func(_ tuple.Tuple, ok bool, msg string) {
			if ok {
				res.TakeOK = true
				res.Total = sim.Duration(k.Now())
				res.TakeResolved = res.Total
				takeResolved = true
				return
			}
			if msg != "" {
				// Failure (server crash, exhausted retransmissions) —
				// not a miss. Re-issue under a fresh id while the lease
				// still has time; the server's dedup table keeps the
				// earlier id from executing twice.
				issueTake()
				return
			}
			// Quiet miss: the entry expired (or its lease window closed
			// while we retried). Out of Time.
			res.TakeResolved = sim.Duration(k.Now())
			takeResolved = true
		})
	}
	client.Write(entry, ic.Lease, func(ok bool, _ string) {
		if !ok {
			return
		}
		res.WriteOK = true
		res.WriteDone = sim.Duration(k.Now())
		leaseEnd = res.WriteDone + ic.Lease
		k.ScheduleName("core.chaos.take", ic.TakeDelay, func() {
			res.TakeIssued = sim.Duration(k.Now())
			issueTake()
		})
	})

	k.RunUntil(sim.Time(ic.Horizon))
	cbr.Stop()
	poller.Stop()
	k.Run() // drain: open fault windows, retransmissions, lease timers

	if !res.TakeOK {
		res.Total = 0
	}
	res.Injected = inj.Injected()
	res.Crashes = sp.Stats().Crashes
	res.Restored = sp.Stats().Restored
	res.BusRetries = chain.Master().Stats().Retries
	res.BusIdle = chain.Master().Idle()

	// Invariant checks.
	viol := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}
	if replayErr != nil {
		viol("restart replay failed: %v", replayErr)
	}
	if !res.BusIdle {
		viol("bus not idle after drain")
	}
	if res.WriteOK {
		// Worst-case client-side slack on top of the lease: every
		// attempt may run its full budget plus the capped backoff.
		slack := sim.Duration(cfg.Attempts) * (cfg.OpDeadline + backoff.Cap)
		if !takeResolved {
			viol("take unresolved at end of run")
		} else if res.TakeResolved > leaseEnd+slack {
			viol("take resolved at %v, beyond lease end %v + slack %v", res.TakeResolved, leaseEnd, slack)
		}
		journal.Flush()
		fresh := space.New(space.SimRuntime{K: sim.NewKernel(1)})
		if _, err := fresh.Replay(bytes.NewReader(journalBuf.Bytes())); err != nil {
			viol("final journal replay: %v", err)
		}
		n := fresh.Count(tmpl)
		switch {
		case res.TakeOK && n != 0:
			viol("acked take not durable: %d copies survive replay", n)
		case !res.TakeOK && sp.Stats().Expired == 0 && sp.Stats().Takes == 0 && n != 1:
			viol("acknowledged write lost: %d copies survive replay, no take or expiry recorded", n)
		}
	}
	return res
}

// ChaosCell renders one degradation-table cell.
func ChaosCell(r ChaosResult) string {
	cell := "Out of Time"
	if r.TakeOK {
		cell = fmt.Sprintf("%.0fs", r.Total.Seconds())
	}
	if !r.OK() {
		cell += " VIOLATION"
	}
	return cell
}

// ChaosGridConfig sweeps the chaos scenario over fault rates and wire
// counts — Table 4 extended with a fault axis.
type ChaosGridConfig struct {
	Base       ChaosConfig
	FaultRates []float64
	Wires      []int
	// Workers bounds the worker pool; 0 selects DefaultWorkers, 1 runs
	// sequentially. The grid is identical at every worker count.
	Workers int
}

// DefaultChaosGridConfig sweeps a fault-free baseline up to a fault
// rate that drives the exchange Out of Time, on both bus widths, at
// the published calibration.
func DefaultChaosGridConfig() ChaosGridConfig {
	return ChaosGridConfig{
		Base:       DefaultChaosConfig(),
		FaultRates: []float64{0, 0.01, 0.02, 0.04, 0.08},
		Wires:      []int{1, 2},
	}
}

// ChaosGrid is the degradation table.
type ChaosGrid struct {
	FaultRates []float64
	Wires      []int
	Cells      [][]ChaosResult // [rate][wire]
	Lease      sim.Duration
}

// RunChaosGrid executes the sweep on the worker pool; cell order (and
// content) is independent of the worker count.
func RunChaosGrid(cfg ChaosGridConfig) ChaosGrid {
	base := cfg.Base
	base.normalize()
	g := ChaosGrid{FaultRates: cfg.FaultRates, Wires: cfg.Wires, Lease: base.Impact.Lease}
	jobs := make([]func() ChaosResult, 0, len(cfg.FaultRates)*len(cfg.Wires))
	for _, rate := range cfg.FaultRates {
		for _, w := range cfg.Wires {
			c := cfg.Base
			c.FaultRate = rate
			c.Impact.Wires = w
			jobs = append(jobs, func() ChaosResult { return RunChaos(c) })
		}
	}
	flat := RunAll(cfg.Workers, jobs)
	for i := range cfg.FaultRates {
		g.Cells = append(g.Cells, flat[i*len(cfg.Wires):(i+1)*len(cfg.Wires)])
	}
	return g
}

// Violations flattens every cell's invariant failures.
func (g ChaosGrid) Violations() []string {
	var all []string
	for i, row := range g.Cells {
		for j, cell := range row {
			for _, v := range cell.Violations {
				all = append(all, fmt.Sprintf("fault %g/s %d-wire: %s", g.FaultRates[i], g.Wires[j], v))
			}
		}
	}
	return all
}

// Format renders the degradation table in the shape of Table 4, one
// row per fault rate.
func (g ChaosGrid) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Degradation under injected faults (Table 4 scenario, Lease Time = %.0fs)\n",
		g.Lease.Seconds())
	fmt.Fprintf(&b, "%-14s", "Fault rate")
	for _, w := range g.Wires {
		fmt.Fprintf(&b, " %-22s", fmt.Sprintf("%d-wire", w))
	}
	fmt.Fprintln(&b)
	for i, rate := range g.FaultRates {
		fmt.Fprintf(&b, "%-14s", fmt.Sprintf("%g /s", rate))
		for j := range g.Wires {
			c := g.Cells[i][j]
			detail := fmt.Sprintf("%s (%df,%dc,%dr)", ChaosCell(c), c.Injected, c.Crashes, c.BusRetries)
			fmt.Fprintf(&b, " %-22s", detail)
		}
		fmt.Fprintln(&b)
	}
	if v := g.Violations(); len(v) > 0 {
		fmt.Fprintln(&b, "INVARIANT VIOLATIONS:")
		for _, s := range v {
			fmt.Fprintf(&b, "  %s\n", s)
		}
	} else {
		fmt.Fprintln(&b, "invariants: no acked write lost; takes resolve within lease+slack; bus idle after drain")
	}
	return b.String()
}
