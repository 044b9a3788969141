// Package netsim is a small NS-2-like network simulation layer on top
// of the sim kernel: nodes connected by point-to-point links with
// bandwidth, propagation delay and drop-tail queues; agents attached
// to nodes that produce and consume packets; and the traffic
// generators (CBR, exponential on/off, Poisson) NS-2 provides out of
// the box.
//
// The paper builds its TpWIRE model inside NS-2 precisely because the
// framework supplies "various traffic workloads that can be used to
// separately validate the model"; this package plays that role for
// the Go reproduction. The TpWIRE protocol itself lives in package
// tpwire; netsim carries generic packet traffic (and the co-simulated
// byte streams of package cosim).
package netsim

import (
	"fmt"

	"tpspace/internal/sim"
)

// Packet is the unit of traffic. Size is in bytes; the payload is
// optional (pure performance studies often carry none).
type Packet struct {
	ID      uint64
	Flow    int
	Src     *Node
	Dst     *Node
	Size    int
	Payload []byte
	SentAt  sim.Time
}

// Agent consumes packets delivered to a node, in the spirit of NS-2
// agent objects.
type Agent interface {
	// Recv is invoked when a packet reaches the agent's node.
	Recv(p *Packet)
}

// AgentFunc adapts a function to the Agent interface.
type AgentFunc func(p *Packet)

// Recv implements Agent.
func (f AgentFunc) Recv(p *Packet) { f(p) }

// Node is a network endpoint or router.
type Node struct {
	net   *Network
	id    int
	name  string
	agent Agent
	links []*Link // outgoing
	// routes maps destination node id -> outgoing link.
	routes map[int]*Link
}

// ID returns the node's identifier within its network.
func (n *Node) ID() int { return n.id }

// Name returns the node's human-readable name.
func (n *Node) Name() string { return n.name }

// Attach installs the agent receiving this node's packets.
func (n *Node) Attach(a Agent) { n.agent = a }

// LinkStats counts link-level activity.
type LinkStats struct {
	Sent       uint64 // packets that entered the wire
	Delivered  uint64
	Dropped    uint64 // queue overflow
	Lost       uint64 // injected link loss (fault plane)
	Duplicated uint64 // injected duplication (fault plane)
	Bytes      uint64
	BusyTime   sim.Duration
}

// FaultProfile describes the injected impairments of a link. The zero
// value is a healthy link. Probability draws come from the network's
// kernel RNG, keeping runs deterministic.
type FaultProfile struct {
	LossProb   float64      // per-packet probability of loss on the wire
	DupProb    float64      // per-packet probability of duplicate delivery
	ExtraDelay sim.Duration // added propagation delay
}

// Link is a unidirectional point-to-point link with a finite
// drop-tail queue, like NS-2's SimpleLink.
type Link struct {
	net       *Network
	from, to  *Node
	bandwidth float64 // bytes per second
	delay     sim.Duration
	queueCap  int
	queue     []*Packet
	busy      bool
	fault     FaultProfile
	stats     LinkStats
}

// Stats returns a snapshot of the link counters.
func (l *Link) Stats() LinkStats { return l.stats }

// SetFault installs an impairment profile on the link; the zero
// profile restores a healthy wire.
func (l *Link) SetFault(f FaultProfile) { l.fault = f }

// Fault returns the link's current impairment profile.
func (l *Link) Fault() FaultProfile { return l.fault }

// From returns the transmitting node.
func (l *Link) From() *Node { return l.from }

// To returns the receiving node.
func (l *Link) To() *Node { return l.to }

// QueueLen reports the number of packets waiting for the wire.
func (l *Link) QueueLen() int { return len(l.queue) }

// Network owns nodes and links over one simulation kernel.
type Network struct {
	kernel *sim.Kernel
	nodes  []*Node
	links  []*Link
	nextID uint64
	tracer func(TraceEvent)
}

// New creates an empty network on the kernel.
func New(k *sim.Kernel) *Network { return &Network{kernel: k} }

// Kernel returns the kernel the network runs on.
func (n *Network) Kernel() *sim.Kernel { return n.kernel }

// NewNode adds a named node.
func (n *Network) NewNode(name string) *Node {
	nd := &Node{net: n, id: len(n.nodes), name: name, routes: make(map[int]*Link)}
	n.nodes = append(n.nodes, nd)
	return nd
}

// Nodes returns all nodes.
func (n *Network) Nodes() []*Node { return append([]*Node(nil), n.nodes...) }

// Connect creates a unidirectional link from a to b with the given
// bandwidth (bytes/second), propagation delay, and queue capacity in
// packets (<=0 means a generous default of 1000). A direct route from
// a to b is installed automatically.
func (n *Network) Connect(a, b *Node, bandwidth float64, delay sim.Duration, queueCap int) *Link {
	if bandwidth <= 0 {
		panic(fmt.Sprintf("netsim: bandwidth %v must be positive", bandwidth))
	}
	if queueCap <= 0 {
		queueCap = 1000
	}
	l := &Link{net: n, from: a, to: b, bandwidth: bandwidth, delay: delay, queueCap: queueCap}
	n.links = append(n.links, l)
	a.links = append(a.links, l)
	a.routes[b.id] = l
	return l
}

// ConnectDuplex creates a pair of symmetric links between a and b.
func (n *Network) ConnectDuplex(a, b *Node, bandwidth float64, delay sim.Duration, queueCap int) (ab, ba *Link) {
	return n.Connect(a, b, bandwidth, delay, queueCap),
		n.Connect(b, a, bandwidth, delay, queueCap)
}

// SetRoute installs a static route at node via the given link for
// packets destined to dst. Multi-hop topologies chain routes node by
// node, like NS-2's static routing.
func (n *Network) SetRoute(at *Node, dst *Node, via *Link) {
	if via.from != at {
		panic("netsim: route via a link that does not start at the node")
	}
	at.routes[dst.id] = via
}

// Send injects a packet at its source node; it is forwarded hop by
// hop along static routes until it reaches the destination agent.
func (n *Network) Send(p *Packet) {
	if p.ID == 0 {
		n.nextID++
		p.ID = n.nextID
	}
	p.SentAt = n.kernel.Now()
	n.forward(p.Src, p)
}

func (n *Network) forward(at *Node, p *Packet) {
	if at == p.Dst {
		if at.agent != nil {
			at.agent.Recv(p)
		}
		return
	}
	l, ok := at.routes[p.Dst.id]
	if !ok {
		panic(fmt.Sprintf("netsim: no route from %s to %s", at.name, p.Dst.name))
	}
	l.enqueue(p)
}

// enqueue places the packet in the link's drop-tail queue and starts
// transmission if the wire is idle.
func (l *Link) enqueue(p *Packet) {
	if len(l.queue) >= l.queueCap {
		l.stats.Dropped++
		l.net.trace(TraceDrop, l, p)
		return
	}
	l.queue = append(l.queue, p)
	l.net.trace(TraceEnqueue, l, p)
	if !l.busy {
		l.transmit()
	}
}

func (l *Link) transmit() {
	if len(l.queue) == 0 {
		l.busy = false
		return
	}
	l.busy = true
	p := l.queue[0]
	l.queue = l.queue[1:]
	txTime := l.txTime(p.Size)
	l.stats.Sent++
	l.stats.Bytes += uint64(p.Size)
	l.stats.BusyTime += txTime
	l.net.trace(TraceDequeue, l, p)
	k := l.net.kernel
	// Injected impairments: the packet still occupies the wire for its
	// serialization time, but may be lost, duplicated or delayed.
	copies := 1
	if l.fault.LossProb > 0 && k.Rand().Float64() < l.fault.LossProb {
		copies = 0
		l.stats.Lost++
		l.net.trace(TraceDrop, l, p)
	} else if l.fault.DupProb > 0 && k.Rand().Float64() < l.fault.DupProb {
		copies = 2
		l.stats.Duplicated++
	}
	// Delivery after serialization + propagation (plus any injected
	// extra delay); a duplicate arrives one serialization time later.
	for i := 0; i < copies; i++ {
		at := txTime + l.delay + l.fault.ExtraDelay + sim.Duration(i)*txTime
		k.ScheduleName("netsim.deliver", at, func() {
			l.stats.Delivered++
			l.net.trace(TraceReceive, l, p)
			l.net.forward(l.to, p)
		})
	}
	// The wire frees up after serialization.
	k.ScheduleName("netsim.txdone", txTime, l.transmit)
}

// txTime is the serialization time of size bytes on this link (at
// least one nanosecond, so zero-length packets still occupy the wire).
func (l *Link) txTime(size int) sim.Duration {
	t := sim.Duration(float64(size) / l.bandwidth * float64(sim.Second))
	if t < 1 {
		t = 1
	}
	return t
}
