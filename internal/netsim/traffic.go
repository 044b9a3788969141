package netsim

import (
	"math"

	"tpspace/internal/sim"
)

// Generator is a start/stop traffic source.
type Generator interface {
	Start()
	Stop()
	// Sent reports how many packets the generator has injected.
	Sent() uint64
}

// CBRSource emits fixed-size packets at a constant bit rate from Src
// to Dst, matching NS-2's CBR application.
type CBRSource struct {
	Net  *Network
	Src  *Node
	Dst  *Node
	Flow int
	// Rate is the payload rate in bytes per second.
	Rate float64
	// Size is the packet size in bytes.
	Size int

	sent   uint64
	stopFn func()
}

// Sent implements Generator.
func (c *CBRSource) Sent() uint64 { return c.sent }

// Start implements Generator. A non-positive rate generates nothing.
func (c *CBRSource) Start() {
	if c.Rate <= 0 {
		return
	}
	size := c.Size
	if size <= 0 {
		size = 1
	}
	interval := sim.Duration(float64(size) / c.Rate * float64(sim.Second))
	if interval <= 0 {
		interval = 1
	}
	c.stopFn = c.Net.Kernel().Ticker("netsim.cbr", interval, func() {
		c.sent++
		c.Net.Send(&Packet{Flow: c.Flow, Src: c.Src, Dst: c.Dst, Size: size})
	})
}

// Stop implements Generator.
func (c *CBRSource) Stop() {
	if c.stopFn != nil {
		c.stopFn()
		c.stopFn = nil
	}
}

// PoissonSource emits fixed-size packets with exponentially
// distributed inter-arrival times (a Poisson process) at the given
// mean rate in packets per second.
type PoissonSource struct {
	Net  *Network
	Src  *Node
	Dst  *Node
	Flow int
	// Rate is the mean packet rate (packets/second).
	Rate float64
	Size int

	sent    uint64
	stopped bool
}

// Sent implements Generator.
func (p *PoissonSource) Sent() uint64 { return p.sent }

// Start implements Generator.
func (p *PoissonSource) Start() {
	if p.Rate <= 0 {
		return
	}
	p.stopped = false
	p.scheduleNext()
}

func (p *PoissonSource) scheduleNext() {
	k := p.Net.Kernel()
	// Exponential inter-arrival: -ln(U)/rate.
	u := k.Rand().Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	gap := sim.Duration(-math.Log(u) / p.Rate * float64(sim.Second))
	if gap < 1 {
		gap = 1
	}
	k.ScheduleName("netsim.poisson", gap, func() {
		if p.stopped {
			return
		}
		size := p.Size
		if size <= 0 {
			size = 1
		}
		p.sent++
		p.Net.Send(&Packet{Flow: p.Flow, Src: p.Src, Dst: p.Dst, Size: size})
		p.scheduleNext()
	})
}

// Stop implements Generator.
func (p *PoissonSource) Stop() { p.stopped = true }

// OnOffSource alternates exponentially distributed ON periods, during
// which it behaves as a CBR source, with exponentially distributed
// OFF silences — NS-2's Exponential On/Off application.
type OnOffSource struct {
	Net  *Network
	Src  *Node
	Dst  *Node
	Flow int
	// Rate is the payload rate during ON periods (bytes/second).
	Rate float64
	Size int
	// MeanOn / MeanOff are the mean durations of the two states.
	MeanOn  sim.Duration
	MeanOff sim.Duration

	sent    uint64
	stopped bool
	cbrStop func()
}

// Sent implements Generator.
func (o *OnOffSource) Sent() uint64 { return o.sent }

// Start implements Generator.
func (o *OnOffSource) Start() {
	if o.Rate <= 0 || o.MeanOn <= 0 || o.MeanOff <= 0 {
		return
	}
	o.stopped = false
	o.enterOn()
}

func (o *OnOffSource) expDur(mean sim.Duration) sim.Duration {
	u := o.Net.Kernel().Rand().Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	d := sim.Duration(-math.Log(u) * float64(mean))
	if d < 1 {
		d = 1
	}
	return d
}

func (o *OnOffSource) enterOn() {
	if o.stopped {
		return
	}
	k := o.Net.Kernel()
	size := o.Size
	if size <= 0 {
		size = 1
	}
	interval := sim.Duration(float64(size) / o.Rate * float64(sim.Second))
	if interval <= 0 {
		interval = 1
	}
	o.cbrStop = k.Ticker("netsim.onoff", interval, func() {
		o.sent++
		o.Net.Send(&Packet{Flow: o.Flow, Src: o.Src, Dst: o.Dst, Size: size})
	})
	k.ScheduleName("netsim.onoff.off", o.expDur(o.MeanOn), func() {
		if o.cbrStop != nil {
			o.cbrStop()
			o.cbrStop = nil
		}
		if o.stopped {
			return
		}
		k.ScheduleName("netsim.onoff.on", o.expDur(o.MeanOff), o.enterOn)
	})
}

// Stop implements Generator.
func (o *OnOffSource) Stop() {
	o.stopped = true
	if o.cbrStop != nil {
		o.cbrStop()
		o.cbrStop = nil
	}
}

// SinkAgent counts delivered packets and accumulates latency, like an
// NS-2 LossMonitor.
type SinkAgent struct {
	clock    sim.Clock
	Packets  uint64
	Bytes    uint64
	FirstAt  sim.Time
	LastAt   sim.Time
	TotalLat sim.Duration
	MaxLat   sim.Duration
}

// NewSink returns a sink measuring latency on the given clock.
func NewSink(clock sim.Clock) *SinkAgent { return &SinkAgent{clock: clock} }

// Recv implements Agent.
func (s *SinkAgent) Recv(p *Packet) {
	now := s.clock.Now()
	if s.Packets == 0 {
		s.FirstAt = now
	}
	s.Packets++
	s.Bytes += uint64(p.Size)
	s.LastAt = now
	lat := now.Sub(p.SentAt)
	s.TotalLat += lat
	if lat > s.MaxLat {
		s.MaxLat = lat
	}
}

// MeanLatency reports the average delivery latency.
func (s *SinkAgent) MeanLatency() sim.Duration {
	if s.Packets == 0 {
		return 0
	}
	return s.TotalLat / sim.Duration(s.Packets)
}

// ThroughputBps reports the received payload rate over the
// first-to-last packet window, in bytes per second.
func (s *SinkAgent) ThroughputBps() float64 {
	w := s.LastAt.Sub(s.FirstAt)
	if w <= 0 || s.Packets < 2 {
		return 0
	}
	return float64(s.Bytes-uint64(0)) / w.Seconds()
}
