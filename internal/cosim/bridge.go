// Package cosim provides the co-simulation glue of Figure 5 of the
// paper: a Bridge that puts the gdb/shared-memory hop between the
// board client and the bus model on the timeline as a calibrated
// per-message plus per-byte latency, the shared-memory ring in the role
// of the UNIX shm segments connecting the SystemC nodes (SC1/SC2) with
// the NS-2 bus model, and a minimal GDB remote serial protocol stub in
// the role of the board-client debug interface.
package cosim

import (
	"tpspace/internal/sim"
	"tpspace/internal/transport"
)

// Bridge wraps a transport connection with the co-simulation path of
// Figure 5: every message leaving the client crosses the gdb-RSP hop
// into the SC1 process, is staged through a shared-memory ring, and
// only then reaches the bus model (the wrapped connection); arrivals
// take the mirror path. The two hops contribute calibrated
// per-message and per-byte latency — the cost the paper's
// instruction-set-simulator/gdb coupling adds on top of pure bus
// time, which its scaling factor accounts for.
type Bridge struct {
	kernel  *sim.Kernel
	inner   transport.Conn
	perMsg  sim.Duration
	perByte sim.Duration

	outRing *Ring
	inRing  *Ring
	onRecv  func([]byte)
	closed  bool
	stats   BridgeStats
}

// BridgeStats counts traffic and staged bytes.
type BridgeStats struct {
	MsgsOut  uint64
	MsgsIn   uint64
	BytesOut uint64
	BytesIn  uint64
	Overhead sim.Duration // total added latency, both directions
	RingPeak int
}

// NewBridge builds the co-simulation path over inner. perMsg and
// perByte calibrate the added one-way latency of the gdb+shm hops.
func NewBridge(k *sim.Kernel, inner transport.Conn, perMsg, perByte sim.Duration) *Bridge {
	b := &Bridge{
		kernel:  k,
		inner:   inner,
		perMsg:  perMsg,
		perByte: perByte,
		outRing: NewRing(1 << 20),
		inRing:  NewRing(1 << 20),
	}
	inner.SetOnReceive(b.fromBus)
	return b
}

// overheadFor computes the one-way co-simulation latency of a
// payload.
func (b *Bridge) overheadFor(n int) sim.Duration {
	return b.perMsg + sim.Duration(n)*b.perByte
}

// Send implements transport.Conn: the payload is staged in the
// outbound ring and handed to the bus model after the co-simulation
// latency.
func (b *Bridge) Send(payload []byte) error {
	if b.closed {
		return transport.ErrClosed
	}
	b.outRing.MustPush(payload)
	if b.outRing.Len() > b.stats.RingPeak {
		b.stats.RingPeak = b.outRing.Len()
	}
	d := b.overheadFor(len(payload))
	b.stats.Overhead += d
	b.kernel.ScheduleName("cosim.bridge.tx", d, func() {
		msg, ok := b.outRing.Pop()
		if !ok || b.closed {
			return
		}
		b.stats.MsgsOut++
		b.stats.BytesOut += uint64(len(msg))
		_ = b.inner.Send(msg)
	})
	return nil
}

// fromBus stages an arrival and delivers it after the co-simulation
// latency.
func (b *Bridge) fromBus(payload []byte) {
	if b.closed {
		return
	}
	b.inRing.MustPush(payload)
	if b.inRing.Len() > b.stats.RingPeak {
		b.stats.RingPeak = b.inRing.Len()
	}
	d := b.overheadFor(len(payload))
	b.stats.Overhead += d
	b.kernel.ScheduleName("cosim.bridge.rx", d, func() {
		msg, ok := b.inRing.Pop()
		if !ok || b.closed || b.onRecv == nil {
			return
		}
		b.stats.MsgsIn++
		b.stats.BytesIn += uint64(len(msg))
		b.onRecv(msg)
	})
}

// SetOnReceive implements transport.Conn.
func (b *Bridge) SetOnReceive(fn func([]byte)) { b.onRecv = fn }

// Close implements transport.Conn.
func (b *Bridge) Close() error {
	b.closed = true
	return b.inner.Close()
}

// Stats returns a snapshot of the bridge counters.
func (b *Bridge) Stats() BridgeStats { return b.stats }
