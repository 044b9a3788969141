package tpwire

import (
	"fmt"
	"sort"

	"tpspace/internal/frame"
	"tpspace/internal/sim"
)

// Chain is one physical TpWIRE network: a master port and a daisy
// chain of slaves, each with a higher port (towards the master) and a
// lower port (away from it), as in Figure 2 of the paper.
type Chain struct {
	kernel *sim.Kernel
	cfg    Config

	slaves []*Slave         // in chain order, position 0 nearest the master
	byID   map[uint8]*Slave //
	master *Master          //
	stats  ChainStats       //
	tracer func(ev TraceEvent)

	// Frame-path durations. The configuration is fixed at NewChain and
	// slaves are only ever appended, so these are computed there and in
	// AddSlaveAt; the frame path adds them up and never goes back to
	// Config, whose methods cost a by-value copy and a float division
	// per call.
	bit       sim.Duration // one bit period
	txT       sim.Duration // interframe gap + TX frame: launch to end of transmission
	frameT    sim.Duration // one frame on the wire
	procT     sim.Duration // slave command execution
	turnT     sim.Duration // slave turnaround before its reply
	extra     sim.Duration // sum of the long-segment delays
	replyWait sim.Duration // launch to reply timeout
	clearT    sim.Duration // launch to a broadcast frame clearing the far end

	// corruptHook, when set, decides frame corruption instead of the
	// configured FrameErrorRate (fault injection plane).
	corruptHook func(rx bool) bool
	// corruptIdle, when set alongside corruptHook, reports whether the
	// hook is momentarily inert: guaranteed to return false without
	// consuming kernel randomness. The burst fast path may only
	// coalesce sweeps while this holds.
	corruptIdle func() bool
}

// ChainStats aggregates wire-level counters.
type ChainStats struct {
	TXFrames    uint64 // TX frames launched by the master
	RXFrames    uint64 // RX frames delivered to the master
	CorruptedTX uint64 // TX frames lost to injected errors
	CorruptedRX uint64 // RX frames lost to injected errors
	BusyTime    sim.Duration
}

// TraceEvent describes one frame movement for tracing.
type TraceEvent struct {
	At   sim.Time
	Kind string // "tx", "rx", "drop-tx", "drop-rx", "timeout"
	Node uint8
	Info string
}

// NewChain builds an empty chain over the kernel with the given
// configuration. The configuration is normalized; invalid settings
// panic, since they indicate a programming error in scenario setup.
func NewChain(k *sim.Kernel, cfg Config) *Chain {
	if err := cfg.Normalize(); err != nil {
		panic(err)
	}
	c := &Chain{kernel: k, cfg: cfg, byID: make(map[uint8]*Slave)}
	c.bit = cfg.BitPeriod()
	c.frameT = c.bits(cfg.FrameBits())
	c.txT = c.bits(cfg.GapBits) + c.frameT
	c.procT = c.bits(cfg.ProcBits)
	c.turnT = c.bits(cfg.TurnaroundBits)
	c.retime()
	c.master = newMaster(c)
	return c
}

// bits converts a count of bit periods into a duration.
func (c *Chain) bits(n int) sim.Duration { return sim.Duration(n) * c.bit }

// retime recomputes the durations that depend on the chain's length.
// The reply timeout is measured from the end of TX transmission and
// widened by the long-segment delays, both ways.
func (c *Chain) retime() {
	c.extra = 0
	for _, s := range c.slaves {
		c.extra += s.segment
	}
	c.replyWait = c.txT + c.cfg.responseTimeout(len(c.slaves)) + 2*c.extra
	c.clearT = c.txT + c.bits(c.cfg.HopBits*(len(c.slaves)+1)) + c.extra
}

// Kernel returns the simulation kernel the chain runs on.
func (c *Chain) Kernel() *sim.Kernel { return c.kernel }

// Config returns the chain's (normalized) configuration.
func (c *Chain) Config() Config { return c.cfg }

// Master returns the chain's master node.
func (c *Chain) Master() *Master { return c.master }

// Stats returns a snapshot of the wire counters.
func (c *Chain) Stats() ChainStats { return c.stats }

// SetTracer installs a hook receiving every frame movement.
func (c *Chain) SetTracer(fn func(TraceEvent)) { c.tracer = fn }

// trace hands one frame movement to the tracer, if one is installed.
// Callers that format a frame into info check c.tracer != nil first:
// the formatting costs more than simulating the frame.
func (c *Chain) trace(kind string, node uint8, info string) {
	if c.tracer != nil {
		c.tracer(TraceEvent{At: c.kernel.Now(), Kind: kind, Node: node, Info: info})
	}
}

// AddSlave appends a slave with the given node ID to the far end of
// the daisy chain and returns it. IDs must be unique and below
// BroadcastID. The segment to the previous node uses the short-
// distance single-ended signal (no extra delay); use AddSlaveAt for
// long-distance segments.
func (c *Chain) AddSlave(id uint8) *Slave {
	return c.AddSlaveAt(id, 0)
}

// wirePropagation is the signal velocity used for long segments:
// roughly 5 ns per metre (2/3 c).
const wirePropagation = 5 * sim.Nanosecond

// longSegmentThreshold is the distance beyond which the differential
// long-distance signalling of the TpWIRE spec is assumed, adding a
// fixed driver/receiver latency per crossing.
const longSegmentThreshold = 10.0 // metres

// longDriverLatency is the fixed cost of a long-distance transceiver
// pair.
const longDriverLatency = 2 * sim.Microsecond

// AddSlaveAt appends a slave whose upstream segment spans the given
// distance in metres. The TpWIRE spec uses one single-ended signal
// over short distances "while in the case of long distances a
// different signal is required"; segments beyond 10 m model that
// differential link with per-metre propagation plus a fixed
// transceiver latency.
func (c *Chain) AddSlaveAt(id uint8, meters float64) *Slave {
	if id >= BroadcastID {
		panic(fmt.Sprintf("tpwire: slave id %d out of range 0..126", id))
	}
	if _, dup := c.byID[id]; dup {
		panic(fmt.Sprintf("tpwire: duplicate slave id %d", id))
	}
	if meters < 0 {
		panic(fmt.Sprintf("tpwire: negative segment length %v", meters))
	}
	extra := sim.Duration(meters * float64(wirePropagation))
	if meters > longSegmentThreshold {
		extra += longDriverLatency
	}
	s := newSlave(c, id, len(c.slaves), extra)
	c.slaves = append(c.slaves, s)
	c.byID[id] = s
	s.delay = c.delayTo(s)
	c.retime()
	s.feedWatchdog()
	return s
}

// delayTo is the one-way propagation delay from the master to slave
// s: the configured per-hop repeater latency plus any long-distance
// segment costs along the way.
func (c *Chain) delayTo(s *Slave) sim.Duration {
	d := c.bits(c.cfg.HopBits * (s.pos + 1))
	for i := 0; i <= s.pos; i++ {
		d += c.slaves[i].segment
	}
	return d
}

// Slave returns the slave with the given ID, or nil.
func (c *Chain) Slave(id uint8) *Slave { return c.byID[id] }

// Slaves returns the slaves in chain order.
func (c *Chain) Slaves() []*Slave { return append([]*Slave(nil), c.slaves...) }

// NumSlaves reports the chain length.
func (c *Chain) NumSlaves() int { return len(c.slaves) }

// IDs returns the slave IDs sorted ascending; convenient for polling.
func (c *Chain) IDs() []uint8 {
	ids := make([]uint8, 0, len(c.slaves))
	for id := range c.byID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Topology renders the chain as in Figure 2 of the paper, for
// cmd/tpsim -dump-topology.
func (c *Chain) Topology() string {
	s := "TpWire Master [Master Port]"
	for _, sl := range c.slaves {
		s += fmt.Sprintf(" -- [Higher] Slave %d [Lower]", sl.id)
	}
	return s
}

// broadcastSelected reports whether the last SELECT addressed the
// broadcast node, i.e. whether more than one slave is selected.
func (c *Chain) broadcastSelected() bool {
	n := 0
	for _, s := range c.slaves {
		if s.selected {
			n++
		}
	}
	return n > 1
}

// SetCorruptHook installs (or, with nil, removes) a fault-injection
// hook consulted for every frame instead of the configured
// FrameErrorRate. rx distinguishes RX replies from TX frames. Any
// randomness inside the hook must come from the chain's kernel RNG so
// chaos runs stay deterministic.
func (c *Chain) SetCorruptHook(fn func(rx bool) bool) { c.corruptHook = fn }

// SetCorruptIdle installs a predicate telling the burst fast path when
// the corrupt hook cannot corrupt anything and draws no randomness
// (e.g. no fault window is currently open). Without it an armed hook
// disables coalescing entirely.
func (c *Chain) SetCorruptIdle(fn func() bool) { c.corruptIdle = fn }

// corrupt decides whether a frame is lost to a CRC error: the
// fault-injection hook if one is armed, otherwise a kernel-RNG draw
// under the configured error rate.
func (c *Chain) corrupt(rx bool) bool {
	if c.corruptHook != nil {
		return c.corruptHook(rx)
	}
	return c.cfg.FrameErrorRate > 0 && c.kernel.Rand().Float64() < c.cfg.FrameErrorRate
}

// deliverRX is the arrival at the master port of the oldest RX frame
// slave s has in flight. On its way up the chain every slave the frame
// passed ORed its interrupt status into the INT bit.
func (c *Chain) deliverRX(s *Slave) {
	r := s.replies.pop()
	rx := r.rx
	c.stats.BusyTime += c.frameT
	// INT is set if any slave the frame passes through (positions
	// 0..s.pos) has a pending interrupt, including the originator.
	for _, t := range c.slaves {
		if t.pos <= s.pos && !t.resetting && t.dev.Pending() {
			rx.Int = true
			break
		}
	}
	if c.corrupt(true) {
		c.stats.CorruptedRX++
		if c.tracer != nil {
			c.trace("drop-rx", s.id, rx.String())
		}
		c.master.handleReply(r.gen, frame.RX{}, false)
		return
	}
	c.stats.RXFrames++
	if c.tracer != nil {
		c.trace("rx", s.id, rx.String())
	}
	c.master.handleReply(r.gen, rx, true)
}
