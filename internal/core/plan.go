package core

import (
	"fmt"
	"strings"

	"tpspace/internal/sim"
)

// The paper's closing claim is that the methodology "gave enough
// information to plan the complete development of the bus and the
// tuplespace". This file turns that sentence into an API: given the
// application's requirements (entry size, background traffic, lease
// budget), search the design space (bit rate, wire count) for the
// cheapest bus that carries the tuplespace reliably.

// Requirements describes what the application asks of the bus.
type Requirements struct {
	// PayloadBytes is the entry payload the clients exchange.
	PayloadBytes int
	// CBRRate is the background traffic the bus must absorb (B/s of
	// 1-byte packets, as in Table 4).
	CBRRate float64
	// Lease is the entry lifetime the take must beat.
	Lease sim.Duration
	// TakeDelay is how long after the write the take is issued.
	TakeDelay sim.Duration
	// Margin demands the exchange complete this long before the lease
	// lapses (headroom against jitter the simulation cannot see).
	Margin sim.Duration
}

// DefaultRequirements mirrors the Table 4 case study at its most
// demanding row (CBR 1 B/s).
func DefaultRequirements() Requirements {
	return Requirements{
		PayloadBytes: 24,
		CBRRate:      1,
		Lease:        160 * sim.Second,
		TakeDelay:    85 * sim.Second,
		Margin:       10 * sim.Second,
	}
}

// PlanOption is one evaluated design point.
type PlanOption struct {
	BitRate float64
	Wires   int
	// Feasible reports whether the exchange met the lease with the
	// demanded margin.
	Feasible bool
	// Completion is the measured exchange time (0 if out of time).
	Completion sim.Duration
}

// Plan is the planner's answer: the cheapest feasible design point
// and the full exploration trace.
type Plan struct {
	Requirements Requirements
	// Recommended is the cheapest feasible option (lowest wire count,
	// then lowest bit rate), if any.
	Recommended *PlanOption
	// Explored lists every (wires, rate) point of the design grid in
	// cost order, cheapest first. The whole grid is always evaluated —
	// the trace is complete even past the recommended point, so the
	// caller can see how much headroom the next steps of the ladder
	// would buy.
	Explored []PlanOption
}

// candidateRates is the programmable-speed ladder of the TpWIRE
// transceiver, in bit/s. The standard UART-style steps stop at
// 1 Mbit/s; the final 8,000,000 bit/s entry is the transceiver's
// specified 1 Mbyte/s burst maximum (Section 4.3), kept on the
// ladder as an explicit overdrive point so the planner can report
// whether even the flat-out bus would meet the requirements.
var candidateRates = []float64{1200, 2400, 4800, 9600, 19_200, 57_600,
	115_200, 500_000, 1_000_000, 8_000_000}

// planWires is the wire-count axis of the design grid.
var planWires = []int{1, 2, 4}

// PlanBus explores wire counts and the bit-rate ladder, re-running
// the Figure 7 co-simulation at each point, and returns the cheapest
// feasible configuration. Cost order: fewer wires always beats a
// slower clock (extra wires are extra copper and transceivers on
// every segment), and within a wire count slower clocks are cheaper
// (relaxed drivers, longer cables). Every grid point is an
// independent co-simulation, so they are evaluated concurrently with
// DefaultWorkers; use PlanBusParallel to pick the worker count.
func PlanBus(req Requirements) Plan { return PlanBusParallel(req, 0) }

// PlanBusParallel is PlanBus with an explicit worker count
// (workers <= 0 selects DefaultWorkers, workers == 1 is fully
// sequential). The answer is identical for every worker count: the
// grid is fixed, each point's simulation is seeded by its own config,
// and the recommendation is the first feasible point in cost order.
func PlanBusParallel(req Requirements, workers int) Plan {
	return RunPlan(PlanConfig{Requirements: req, Workers: workers})
}

// PlanConfig bundles the planner's harness knobs with the bus
// requirements proper.
type PlanConfig struct {
	Requirements Requirements
	// Workers bounds the worker pool (0 = DefaultWorkers, 1 =
	// sequential); the plan is identical at every count.
	Workers int
	// NoFastPath forces every grid point onto the per-event reference
	// path; the plan is byte-identical either way.
	NoFastPath bool
}

// RunPlan evaluates the full design grid under the given config.
func RunPlan(cfg PlanConfig) Plan {
	req := cfg.Requirements
	def := DefaultRequirements()
	if req.PayloadBytes == 0 {
		req.PayloadBytes = def.PayloadBytes
	}
	if req.Lease == 0 {
		req.Lease = def.Lease
	}
	if req.TakeDelay == 0 {
		req.TakeDelay = def.TakeDelay
	}
	plan := Plan{Requirements: req}
	deadline := req.TakeDelay + req.Lease - req.Margin

	jobs := make([]func() PlanOption, 0, len(planWires)*len(candidateRates))
	for _, wires := range planWires {
		for _, rate := range candidateRates {
			wires, rate := wires, rate
			jobs = append(jobs, func() PlanOption {
				return evaluate(req, rate, wires, deadline, cfg.NoFastPath)
			})
		}
	}
	plan.Explored = RunAll(cfg.Workers, jobs)
	for i := range plan.Explored {
		if plan.Explored[i].Feasible {
			o := plan.Explored[i]
			plan.Recommended = &o
			break
		}
	}
	return plan
}

func evaluate(req Requirements, rate float64, wires int, deadline sim.Duration, noFast bool) PlanOption {
	cfg := DefaultImpactConfig()
	cfg.Bus.BitRate = rate
	cfg.Bus.Wires = wires
	cfg.CBRRate = req.CBRRate
	cfg.PayloadBytes = req.PayloadBytes
	cfg.Lease = req.Lease
	cfg.TakeDelay = req.TakeDelay
	cfg.Horizon = sim.Duration(float64(req.TakeDelay+req.Lease) * 3)
	cfg.NoFastPath = noFast
	res := RunImpact(cfg)
	opt := PlanOption{BitRate: rate, Wires: wires}
	if res.TakeOK {
		opt.Completion = res.Total
		opt.Feasible = res.Total <= deadline
	}
	return opt
}

// Format renders the plan for cmd/tpbench -plan.
func (p Plan) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Bus plan for payload %dB, CBR %g B/s, lease %v (margin %v)\n",
		p.Requirements.PayloadBytes, p.Requirements.CBRRate,
		p.Requirements.Lease, p.Requirements.Margin)
	for _, o := range p.Explored {
		cell := "out of time"
		if o.Completion > 0 {
			cell = o.Completion.String()
			if !o.Feasible {
				cell += " (misses margin)"
			}
		}
		fmt.Fprintf(&b, "  %d-wire @ %8.0f bit/s: %s\n", o.Wires, o.BitRate, cell)
	}
	if p.Recommended != nil {
		fmt.Fprintf(&b, "recommended: %d-wire @ %.0f bit/s (completes in %v)\n",
			p.Recommended.Wires, p.Recommended.BitRate, p.Recommended.Completion)
	} else {
		fmt.Fprintln(&b, "no feasible configuration in the explored space")
	}
	return b.String()
}
