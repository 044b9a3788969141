package tpwire

import (
	"fmt"

	"tpspace/internal/crc"
	"tpspace/internal/sim"
)

// Mailbox register map. Slaves cannot address each other on a TpWIRE
// network ("Slaves can communicate with the Master only"), so
// slave-to-slave data travels through the master: a Poller reads
// messages out of the source slave's outbox and writes them into the
// destination slave's inbox. The map below is the memory-mapped I/O
// contract between the Poller (bus side) and MailboxDevice (device
// side).
//
// The master blindly retransmits frames whose replies were lost, so a
// FIFO access may be duplicated or (on the read side) its returned
// byte lost. The protocol recovers end to end:
//
//   - the payload is protected by a CRC-8 exposed in RegOutSum /
//     RegInSum; a mismatch triggers a re-read or a redelivery;
//   - reading RegOutLenLo rewinds the outbox read cursor, so a
//     re-read starts from the first byte again;
//   - writing RegInLenLo/Hi resets the inbox assembly buffer, so a
//     redelivery replaces any partial delivery;
//   - the head message is dequeued only by writing its sequence
//     number to RegOutCommit, making a duplicated commit harmless.
const (
	// RegOutLenLo/Hi expose the payload length of the head outbox
	// message (little-endian); zero means the outbox is empty. Reading
	// RegOutLenLo rewinds the outbox read cursor.
	RegOutLenLo = 0x00
	RegOutLenHi = 0x01
	// RegOutDest exposes the destination node of the head message.
	RegOutDest = 0x02
	// RegOutSeq exposes the head message's 8-bit sequence number.
	RegOutSeq = 0x03
	// RegOutSum exposes the CRC-8 of the head message's payload.
	RegOutSum = 0x04
	// RegInSum exposes the CRC-8 of the bytes assembled since the
	// last length announcement; the master verifies it after pushing.
	RegInSum = 0x05
	// RegOutCommit dequeues the head outbox message when written with
	// the head's current sequence number; other values are ignored.
	RegOutCommit = 0x06
	// RegInSrc is written by the master with the source node ID before
	// it pushes a message into the inbox.
	RegInSrc = 0x08
	// RegInLenLo/Hi are written by the master with the incoming
	// message length; writing either resets the assembly buffer.
	RegInLenLo = 0x09
	RegInLenHi = 0x0A
	// OutFIFO is the outbox read port: each read returns the byte at
	// the read cursor and advances it.
	OutFIFO = 0x40
	// InFIFO is the inbox write port: each write appends one payload
	// byte to the assembly buffer.
	InFIFO = 0x80
)

// payloadCRC computes the CRC-8 (x^8+x^2+x+1) used to protect mailbox
// payloads end to end.
func payloadCRC(p []byte) uint8 {
	e := crc.New(8, 0x07, 0)
	e.UpdateBytes(p)
	return uint8(e.Sum())
}

// Message is one slave-to-slave datagram carried over the bus.
type Message struct {
	Src     uint8
	Dest    uint8
	Payload []byte
}

// MailboxStats counts device-side mailbox activity.
type MailboxStats struct {
	Enqueued   uint64 // messages placed in the outbox
	Sent       uint64 // messages dequeued by a committed delivery
	Received   uint64 // messages fully assembled in the inbox
	BytesOut   uint64
	BytesIn    uint64
	OutboxPeak int
}

// MailboxDevice implements Device, giving a slave an outbox (towards
// the master) and an inbox (from the master). The interrupt line is
// raised while the outbox is non-empty, which the master observes via
// the INT bit and PING responses.
type MailboxDevice struct {
	outbox []Message
	outPos int   // read cursor into the head message
	seq    uint8 // sequence number of the head message

	inSrc  uint8
	inLen  int
	inBuf  []byte
	inCRC  *crc.Engine
	stats  MailboxStats
	onRecv func(Message)
}

// NewMailboxDevice returns an empty mailbox whose received messages
// are delivered to onRecv (which may be nil to discard).
func NewMailboxDevice(onRecv func(Message)) *MailboxDevice {
	return &MailboxDevice{onRecv: onRecv, inCRC: crc.New(8, 0x07, 0)}
}

// SetOnReceive replaces the delivery callback.
func (d *MailboxDevice) SetOnReceive(fn func(Message)) { d.onRecv = fn }

// Stats returns a snapshot of the mailbox counters.
func (d *MailboxDevice) Stats() MailboxStats { return d.stats }

// OutboxLen reports the number of messages waiting to be collected.
func (d *MailboxDevice) OutboxLen() int { return len(d.outbox) }

// Send enqueues a message for the destination node. It is the
// device-side API used by applications and traffic generators.
func (d *MailboxDevice) Send(dest uint8, payload []byte) {
	if len(payload) == 0 || len(payload) > 0xFFFF {
		panic(fmt.Sprintf("tpwire: mailbox payload size %d out of range 1..65535", len(payload)))
	}
	d.outbox = append(d.outbox, Message{Dest: dest, Payload: append([]byte(nil), payload...)})
	d.stats.Enqueued++
	if len(d.outbox) > d.stats.OutboxPeak {
		d.stats.OutboxPeak = len(d.outbox)
	}
}

// Pending implements Device: the interrupt is the non-empty outbox.
func (d *MailboxDevice) Pending() bool { return len(d.outbox) > 0 }

// ReadReg implements Device (the bus-facing register file).
func (d *MailboxDevice) ReadReg(addr uint8) uint8 {
	switch addr {
	case RegOutLenLo:
		d.outPos = 0 // rewind: a (re-)read of the head begins
		if len(d.outbox) == 0 {
			return 0
		}
		return uint8(len(d.outbox[0].Payload))
	case RegOutLenHi:
		if len(d.outbox) == 0 {
			return 0
		}
		return uint8(len(d.outbox[0].Payload) >> 8)
	case RegOutDest:
		if len(d.outbox) == 0 {
			return 0
		}
		return d.outbox[0].Dest
	case RegOutSeq:
		return d.seq
	case RegOutSum:
		if len(d.outbox) == 0 {
			return 0
		}
		return payloadCRC(d.outbox[0].Payload)
	case RegInSum:
		return uint8(d.inCRC.Sum())
	case OutFIFO:
		return d.readOut()
	}
	return 0
}

func (d *MailboxDevice) readOut() uint8 {
	if len(d.outbox) == 0 || d.outPos >= len(d.outbox[0].Payload) {
		return 0
	}
	b := d.outbox[0].Payload[d.outPos]
	d.outPos++
	d.stats.BytesOut++
	return b
}

// WriteReg implements Device.
func (d *MailboxDevice) WriteReg(addr uint8, v uint8) {
	switch addr {
	case RegOutCommit:
		if len(d.outbox) > 0 && v == d.seq {
			d.outbox = d.outbox[1:]
			d.outPos = 0
			d.seq++
			d.stats.Sent++
		}
	case RegInSrc:
		d.inSrc = v
	case RegInLenLo:
		d.inLen = (d.inLen &^ 0xFF) | int(v)
		d.resetAssembly()
	case RegInLenHi:
		d.inLen = (d.inLen & 0xFF) | int(v)<<8
		d.resetAssembly()
	case InFIFO:
		d.inBuf = append(d.inBuf, v)
		d.inCRC.UpdateBits(uint32(v), 8)
		d.stats.BytesIn++
	case RegInDone:
		if v != 0 {
			d.tryComplete()
		}
	}
}

func (d *MailboxDevice) resetAssembly() {
	d.inBuf = d.inBuf[:0]
	d.inCRC.Reset(0)
}

// tryComplete finalises an inbound message once the poller has
// verified the assembly checksum and written RegInDone: the assembled
// payload is handed to the receive callback.
func (d *MailboxDevice) tryComplete() {
	if d.inLen > 0 && len(d.inBuf) >= d.inLen {
		msg := Message{Src: d.inSrc, Payload: append([]byte(nil), d.inBuf[:d.inLen]...)}
		d.inLen = 0
		d.resetAssembly()
		d.stats.Received++
		if d.onRecv != nil {
			d.onRecv(msg)
		}
	}
}

// RegInDone finalises a verified delivery when written non-zero.
const RegInDone = 0x0B

// PollerStats counts service-loop activity.
type PollerStats struct {
	Sweeps   uint64 // full polling passes over the slave list
	Pings    uint64
	Serviced uint64 // messages moved source -> destination
	Bytes    uint64 // payload bytes moved
	Rereads  uint64 // payload re-reads after a checksum mismatch
	Repushes uint64 // redeliveries after a checksum mismatch
	Errors   uint64 // bus errors absorbed (message retried next sweep)
}

// Poller is the master's service loop: it sweeps the slave list,
// discovers pending outbox traffic via PING (and the piggybacked INT
// bit), and ferries messages from source to destination mailboxes. It
// is the software the paper's "master slave ... implemented in TpWIRE
// agent" corresponds to.
type Poller struct {
	chain   *Chain
	ids     []uint8
	period  sim.Duration
	proc    *sim.Process
	stats   PollerStats
	stopped bool
	// MaxPerSweep bounds the messages moved from one slave in a
	// single sweep, so a saturating source cannot starve the others
	// (default 4).
	MaxPerSweep int
	// UseDMA moves payloads with DMA bursts (one streamed data phase
	// per chunk) instead of per-byte FIFO frames — the optimisation
	// the slaves' DMA counter register enables.
	UseDMA bool
	// IntDriven exploits the piggybacked INT bit: an idle sweep pings
	// only the far end of the chain, whose reply passes every slave
	// and ORs in their pending interrupts ("the interrupt bit in RX
	// frame is set if the Slave has a pending interrupt"); the full
	// per-slave scan runs only when INT was seen. This cuts idle-bus
	// traffic by a factor of the chain length.
	IntDriven bool
	// FastPath enables burst-mode coalescing of quiescent-periodic
	// idle sweeps (see fastpath.go). Off by default for direct library
	// users; the core runners turn it on. Output is byte-identical
	// either way — the fast path only changes how many kernel events
	// are spent modelling the same timeline.
	FastPath bool

	burst burstCalibration
}

// NewPoller creates (but does not start) a poller serving the given
// slave IDs in order. A zero period takes the chain's configured
// PollPeriodBits.
func NewPoller(c *Chain, ids []uint8, period sim.Duration) *Poller {
	if period <= 0 {
		period = c.bits(c.cfg.PollPeriodBits)
	}
	return &Poller{chain: c, ids: append([]uint8(nil), ids...), period: period, MaxPerSweep: 4}
}

// Stats returns a snapshot of the poller's counters.
func (p *Poller) Stats() PollerStats { return p.stats }

// Stop halts the service loop after the current sweep.
func (p *Poller) Stop() { p.stopped = true }

// Start launches the service loop on the chain's kernel.
func (p *Poller) Start() {
	p.proc = p.chain.kernel.Spawn("tpwire.poller", 0, p.run)
}

func (p *Poller) run(proc *sim.Process) {
	sess := p.chain.master.NewSession(proc)
	// The INT summary is gathered from the slave deepest in the
	// chain, so the reply crosses everyone.
	var sentinel uint8
	for _, id := range p.ids {
		if s := p.chain.Slave(id); s != nil && (sentinel == 0 || s.Position() > p.chain.Slave(sentinel).Position()) {
			sentinel = id
		}
	}
	for !p.stopped {
		p.stats.Sweeps++
		if p.IntDriven && sentinel != 0 {
			p.stats.Pings++
			pending, intSeen, err := sess.Ping(sentinel)
			if err != nil {
				p.stats.Errors++
				p.idleWait(proc)
				continue
			}
			if !pending && !intSeen {
				p.idleWait(proc)
				continue
			}
		}
		moved := false
		for _, id := range p.ids {
			if p.stopped {
				return
			}
			p.stats.Pings++
			pending, _, err := sess.Ping(id)
			if err != nil {
				p.stats.Errors++
				continue
			}
			for served := 0; pending && !p.stopped && served < p.MaxPerSweep; served++ {
				more, n, err := p.serviceOne(sess, id)
				if err != nil {
					p.stats.Errors++
					break
				}
				if n > 0 {
					moved = true
				}
				pending = more
			}
		}
		if !moved {
			p.idleWait(proc)
		}
	}
}

// maxIntegrityRetries bounds checksum-driven re-reads and redeliveries
// per message before the poller gives up for this sweep.
const maxIntegrityRetries = 4

// serviceOne moves a single message out of slave id's outbox into its
// destination's inbox. It reports whether the source still has
// traffic pending. On any error the message stays uncommitted in the
// source outbox and is retried on the next sweep.
func (p *Poller) serviceOne(sess *Session, id uint8) (more bool, n int, err error) {
	// Header: length, destination, sequence, checksum.
	hdr, err := sess.ReadSeq(id, false, RegOutLenLo, 5)
	if err != nil {
		return false, 0, err
	}
	length := int(hdr[0]) | int(hdr[1])<<8
	dest := hdr[2]
	seq := hdr[3]
	sum := hdr[4]
	if length == 0 {
		return false, 0, nil
	}

	// Fetch the payload, re-reading on checksum mismatch (a duplicated
	// or dropped FIFO pop shifts the stream; the rewind restores it).
	var payload []byte
	for attempt := 0; ; attempt++ {
		payload, err = p.fetch(sess, id, length)
		if err != nil {
			return false, 0, err
		}
		if payloadCRC(payload) == sum {
			break
		}
		p.stats.Rereads++
		if attempt >= maxIntegrityRetries {
			return false, 0, fmt.Errorf("tpwire: payload checksum mismatch from node %d", id)
		}
		// Re-reading the length register rewinds the cursor; refresh
		// the checksum too in case the header read itself was skewed.
		hdr, err = sess.ReadSeq(id, false, RegOutLenLo, 5)
		if err != nil {
			return false, 0, err
		}
		length = int(hdr[0]) | int(hdr[1])<<8
		dest = hdr[2]
		seq = hdr[3]
		sum = hdr[4]
		if length == 0 {
			return false, 0, nil
		}
	}

	// Deliver, verifying the destination's assembly checksum before
	// finalising; redeliver on mismatch.
	for attempt := 0; ; attempt++ {
		ok, err := p.deliver(sess, id, dest, payload)
		if err != nil {
			return false, 0, err
		}
		if ok {
			break
		}
		p.stats.Repushes++
		if attempt >= maxIntegrityRetries {
			return false, 0, fmt.Errorf("tpwire: delivery checksum mismatch at node %d", dest)
		}
	}

	// Delivery confirmed: dequeue the message at the source. The
	// commit carries the sequence number, so a duplicated commit
	// cannot drop a second message.
	if err := sess.WriteReg(id, false, RegOutCommit, seq); err != nil {
		return false, 0, err
	}
	p.stats.Serviced++
	p.stats.Bytes += uint64(length)

	// Is there another message queued behind this one?
	lo, err := sess.ReadReg(id, false, RegOutLenLo)
	if err != nil {
		return false, length, err
	}
	hi, err := sess.ReadReg(id, false, RegOutLenHi)
	if err != nil {
		return false, length, err
	}
	return int(lo)|int(hi)<<8 > 0, length, nil
}

// fetch reads length payload bytes from the source's outbox FIFO.
func (p *Poller) fetch(sess *Session, id uint8, length int) ([]byte, error) {
	if p.UseDMA {
		return sess.ReadDMA(id, OutFIFO, length)
	}
	return sess.ReadFIFO(id, false, OutFIFO, length)
}

// deliver announces and pushes a payload into dest's inbox, then
// verifies the assembly checksum and finalises. It reports ok=false
// (no error) when the checksum disagrees and the push must be
// repeated.
func (p *Poller) deliver(sess *Session, src, dest uint8, payload []byte) (bool, error) {
	length := len(payload)
	// Announce: source and length; the length write resets assembly.
	if err := sess.WriteReg(dest, false, RegInSrc, src); err != nil {
		return false, err
	}
	if err := sess.WriteReg(dest, false, RegInLenLo, uint8(length)); err != nil {
		return false, err
	}
	if err := sess.WriteReg(dest, false, RegInLenHi, uint8(length>>8)); err != nil {
		return false, err
	}
	if p.UseDMA {
		if err := sess.WriteDMA(dest, InFIFO, payload); err != nil {
			return false, err
		}
	} else if err := sess.WriteFIFO(dest, false, InFIFO, payload); err != nil {
		return false, err
	}
	got, err := sess.ReadReg(dest, false, RegInSum)
	if err != nil {
		return false, err
	}
	if got != payloadCRC(payload) {
		return false, nil
	}
	// Finalise the verified delivery.
	if err := sess.WriteReg(dest, false, RegInDone, 1); err != nil {
		return false, err
	}
	return true, nil
}

// CBR is a constant-bit-rate traffic source attached to a slave's
// mailbox, equivalent to the CBR generator the paper plugs onto the
// Slave1 node. It enqueues fixed-size packets towards a destination
// node at a fixed byte rate.
type CBR struct {
	kernel  *sim.Kernel
	mbox    *MailboxDevice
	dest    uint8
	rate    float64 // bytes per second
	size    int
	seq     uint64
	stopFn  func()
	Started sim.Time
}

// NewCBR creates (but does not start) a CBR source producing
// size-byte packets at rate bytes/second from mbox towards dest. A
// rate of zero produces no traffic (the "CBR 0 B/s" row of Table 4).
func NewCBR(k *sim.Kernel, mbox *MailboxDevice, dest uint8, rate float64, size int) *CBR {
	if size <= 0 {
		size = 1
	}
	return &CBR{kernel: k, mbox: mbox, dest: dest, rate: rate, size: size}
}

// Packets reports how many packets have been generated.
func (c *CBR) Packets() uint64 { return c.seq }

// Start begins packet generation. The first packet is emitted one
// inter-packet interval after the call.
func (c *CBR) Start() {
	if c.rate <= 0 {
		return
	}
	c.Started = c.kernel.Now()
	interval := sim.Duration(float64(c.size) / c.rate * float64(sim.Second))
	if interval <= 0 {
		interval = 1
	}
	c.stopFn = c.kernel.Ticker("tpwire.cbr", interval, func() {
		p := make([]byte, c.size)
		for i := range p {
			p[i] = uint8(c.seq + uint64(i))
		}
		c.seq++
		c.mbox.Send(c.dest, p)
	})
}

// Stop halts packet generation.
func (c *CBR) Stop() {
	if c.stopFn != nil {
		c.stopFn()
		c.stopFn = nil
	}
}

// Sink counts messages delivered to a slave, standing in for the
// "Receiver" agent of Figures 6 and 7.
type Sink struct {
	Messages uint64
	Bytes    uint64
	LastAt   sim.Time
	clock    sim.Clock
}

// NewSink returns a sink recording arrival times on the given clock.
func NewSink(clock sim.Clock) *Sink { return &Sink{clock: clock} }

// Attach installs the sink as the receive callback of a mailbox.
func (s *Sink) Attach(d *MailboxDevice) {
	d.SetOnReceive(func(m Message) {
		s.Messages++
		s.Bytes += uint64(len(m.Payload))
		s.LastAt = s.clock.Now()
	})
}
