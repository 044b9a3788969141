package core

import (
	"bytes"
	"fmt"
	"strings"

	"tpspace/internal/fault"
	"tpspace/internal/rmi"
	"tpspace/internal/sim"
	"tpspace/internal/space"
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
	// Kinds is the cycle of injected fault kinds (default: wire
	// corruption, disconnect, server-slave dropout, server crash).
	Kinds []fault.Kind
}

const (
	// chaosCorruptProb is the per-frame corruption probability inside
	// a wire-corrupt window.
	chaosCorruptProb = 0.2
	// chaosDropNode is the chain slave SlaveDrop events drop: the
	// space server's.
	chaosDropNode = 3
	// chaosAttempts is the client's transmission budget per op. Each
	// attempt may take lease/2 beyond the op's own blocking timeout,
	// with capped-exponential backoff between attempts.
	chaosAttempts = 4
)

// DefaultChaosConfig is the published case-study calibration with a
// moderate fault plan.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{Impact: DefaultImpactConfig(), FaultRate: 0.02}
}

func (c *ChaosConfig) normalize() {
	c.Impact.normalize()
	if c.FaultDur == 0 {
		c.FaultDur = c.Impact.Lease / 8
	}
	if len(c.Kinds) == 0 {
		c.Kinds = []fault.Kind{fault.WireCorrupt, fault.Disconnect, fault.SlaveDrop, fault.ServerCrash}
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
			ev.Prob = chaosCorruptProb
		case fault.SlaveDrop:
			ev.Node = chaosDropNode
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
	w := newFig7(ic)
	k := w.k
	defer k.Shutdown()

	// The space server keeps a crash-surviving journal.
	var journalBuf bytes.Buffer
	journal := space.NewJournal(&journalBuf)
	w.sp.SetJournal(journal)

	// The client on Slave1 sits behind a cuttable link and
	// retransmits.
	fc := transport.NewFaultConn(w.bridge)
	client := wrapper.NewClient(fc)
	fc.OnRestore = client.Resend
	opDeadline := ic.Lease / 2
	backoff := rmi.Backoff{
		Base:   opDeadline / 16,
		Cap:    opDeadline / 2,
		Factor: 2,
		Jitter: 0.3,
	}
	client.SetResilience(&wrapper.Resilience{
		Timer:    rmi.KernelTimer(k),
		Attempts: chaosAttempts,
		Deadline: opDeadline,
		Backoff:  backoff,
		Rand:     k.Rand(),
	})

	// Crash wipes the live store (the journal survives, as a disk
	// would); restart replays it, satisfying any takes that were
	// re-issued while the server was down.
	crash := func() {
		journal.Flush()
		w.sp.Crash()
	}
	var replayErr error
	restart := func() {
		journal.Flush()
		snap := append([]byte(nil), journalBuf.Bytes()...)
		if _, err := w.sp.Replay(bytes.NewReader(snap)); err != nil && replayErr == nil {
			replayErr = err
		}
	}
	inj, err := fault.Arm(k, cfg.plan(), fault.Targets{
		Chain:   w.chain,
		Conn:    fc,
		Crash:   crash,
		Restart: restart,
	})
	if err != nil {
		return ChaosResult{Violations: []string{fmt.Sprintf("arming fault plan: %v", err)}}
	}

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
		client.TakeStatus(w.tmpl, remaining, func(_ tuple.Tuple, ok bool, msg string) {
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
	client.Write(w.entry, ic.Lease, func(ok bool, _ string) {
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
	w.cbr.Stop()
	w.poller.Stop()
	k.Run() // drain: open fault windows, retransmissions, lease timers

	if !res.TakeOK {
		res.Total = 0
	}
	res.Injected = inj.Injected()
	res.Crashes = w.sp.Stats().Crashes
	res.Restored = w.sp.Stats().Restored
	res.BusRetries = w.chain.Master().Stats().Retries
	res.BusIdle = w.chain.Master().Idle()

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
		slack := chaosAttempts * (opDeadline + backoff.Cap)
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
		n := fresh.Count(w.tmpl)
		switch {
		case res.TakeOK && n != 0:
			viol("acked take not durable: %d copies survive replay", n)
		case !res.TakeOK && w.sp.Stats().Expired == 0 && w.sp.Stats().Takes == 0 && n != 1:
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
	return ChaosGrid{
		FaultRates: cfg.FaultRates,
		Wires:      cfg.Wires,
		Lease:      base.Impact.Lease,
		Cells: runGrid(cfg.Workers, cfg.FaultRates, cfg.Wires, func(rate float64, wires int) ChaosResult {
			c := cfg.Base
			c.FaultRate = rate
			c.Impact.Bus.Wires = wires
			return RunChaos(c)
		}),
	}
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
