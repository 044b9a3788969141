package tpwire

import (
	"errors"

	"tpspace/internal/frame"
	"tpspace/internal/sim"
)

// ErrTimeout is reported when the master exhausts its retry budget
// without receiving a valid RX frame.
var ErrTimeout = errors.New("tpwire: no valid reply (retries exhausted)")

// MasterStats counts master-side protocol activity.
type MasterStats struct {
	Transactions uint64 // Submit calls completed
	Frames       uint64 // TX frames sent, including retransmissions
	Retries      uint64 // retransmissions
	Timeouts     uint64 // reply windows that expired
	Failures     uint64 // transactions that returned ErrTimeout
	Broadcasts   uint64 // fire-and-forget broadcast frames
}

// Master initiates all communication on a chain: it serializes
// transactions, transmits TX frames, collects RX replies, retries on
// timeout or CRC error, and exposes register-level operations used by
// drivers (the mailbox byte service, the poller).
//
// One transaction is in flight at a time, so its record, the driver
// operation it belongs to and every callback the frame path schedules
// are fields of the master, bound once in newMaster: a steady-state
// transaction costs its calendar events and no allocation.
type Master struct {
	chain *Chain

	// queue holds submitted frames behind the one in flight. cur is the
	// in-flight transaction, meaningful while busy; gen counts the
	// transactions taken off the queue and is what frames and replies
	// in flight are matched against.
	queue ring[txn]
	cur   txn
	busy  bool
	gen   uint64

	timeout *sim.Event
	// retryGen is the transaction the pending tpwire.retry event
	// belongs to.
	retryGen uint64

	// broadcast mirrors whether the last SELECT addressed the
	// broadcast node; while set, commands are fire-and-forget.
	broadcast bool

	// Driver-side mirror of the bus addressing state, used to elide
	// redundant SELECT/SETADDR frames. Invalidated on any error.
	selNode   int // -1 unknown
	selSystem bool
	regPtr    int // -1 unknown

	// Operation queue: high-level driver operations (WriteReg,
	// ReadSeq, ...) run one at a time so their SELECT/SETADDR
	// sequences never interleave on the wire. op is the running one,
	// meaningful while opActive.
	ops      ring[op]
	op       op
	opActive bool

	onTimeout   func()
	onBcastDone func()
	onRetry     func()
	onOpReply   func(frame.RX, error)
	onOpDone    func()

	stats MasterStats
}

type txn struct {
	f       frame.TX
	attempt int
	done    func(frame.RX, error)
}

func newMaster(c *Chain) *Master {
	m := &Master{chain: c, selNode: -1, regPtr: -1}
	m.onTimeout = m.replyTimeout
	m.onBcastDone = func() { m.finish(frame.RX{}, nil) }
	m.onRetry = m.retry
	m.onOpReply = m.opReply
	m.onOpDone = m.nextOp
	return m
}

// Stats returns a snapshot of the master's counters.
func (m *Master) Stats() MasterStats { return m.stats }

// Idle reports whether the master has fully drained: no transaction in
// flight, no frames queued, and no driver operation active. The chaos
// harness uses it as the "bus returns to idle" invariant.
func (m *Master) Idle() bool {
	return !m.busy && m.queue.len() == 0 && !m.opActive && m.ops.len() == 0
}

// Chain returns the chain this master drives.
func (m *Master) Chain() *Chain { return m.chain }

// Submit queues one TX frame for transmission. done is invoked exactly
// once with the reply, or with ErrTimeout after the retry budget is
// exhausted. Broadcast-addressed traffic completes with a zero RX and
// nil error once the frame has cleared the chain ("none of them
// replies").
func (m *Master) Submit(f frame.TX, done func(frame.RX, error)) {
	m.queue.push(txn{f: f, done: done})
	if !m.busy {
		m.next()
	}
}

func (m *Master) next() {
	if m.queue.len() == 0 {
		return
	}
	m.cur = m.queue.pop()
	m.busy = true
	m.gen++
	m.launch()
}

// finish completes the current transaction and starts the next one.
func (m *Master) finish(rx frame.RX, err error) {
	done := m.cur.done
	m.cur.done = nil
	m.busy = false
	m.stats.Transactions++
	if err != nil {
		m.stats.Failures++
		// The addressing mirror may be stale after a failure.
		m.invalidate()
	}
	if done != nil {
		done(rx, err)
	}
	if !m.busy {
		m.next()
	}
}

func (m *Master) invalidate() {
	m.selNode = -1
	m.regPtr = -1
}

// launch transmits the current transaction's TX frame once and arms
// the reply machinery.
func (m *Master) launch() {
	c := m.chain
	k := c.kernel
	f := m.cur.f
	m.stats.Frames++

	// Track broadcast selection from the master's point of view.
	if f.Cmd == frame.CmdSelect {
		id, _ := frame.SplitNodeAddr(f.Data)
		m.broadcast = id == BroadcastID
	}

	// The interframe gap leads every frame, so back-to-back
	// transactions are separated by exactly one gap on the wire.
	c.stats.TXFrames++
	c.stats.BusyTime += c.txT

	if !c.corrupt(false) {
		if c.tracer != nil {
			c.trace("tx", BroadcastID, f.String())
		}
		for _, s := range c.slaves {
			s.arrivals.push(txInFlight{f: f, gen: m.gen})
			k.SchedulePrio("tpwire.txarrive", c.txT+s.delay, sim.PriorityWire, s.onArrive)
		}
	} else {
		c.stats.CorruptedTX++
		if c.tracer != nil {
			c.trace("drop-tx", BroadcastID, f.String())
		}
	}

	if m.broadcast {
		// Fire and forget: complete once the frame has cleared the
		// far end of the chain.
		m.stats.Broadcasts++
		k.ScheduleName("tpwire.bcastdone", c.clearT, m.onBcastDone)
		return
	}
	m.timeout = k.ScheduleName("tpwire.timeout", c.replyWait, m.onTimeout)
}

// replyTimeout fires when the reply window of the current transaction
// closes; every path that completes a transaction cancels it first.
func (m *Master) replyTimeout() {
	m.stats.Timeouts++
	if c := m.chain; c.tracer != nil {
		c.trace("timeout", BroadcastID, m.cur.f.String())
	}
	m.retryOrFail()
}

// handleReply receives an RX frame (or its corruption notice) at the
// master port. gen names the transaction whose TX frame the reply
// answers: a straggler whose transaction has since completed is
// dropped, while a late reply to an earlier attempt of the current
// transaction still completes it.
func (m *Master) handleReply(gen uint64, rx frame.RX, ok bool) {
	if !m.busy || gen != m.gen {
		return
	}
	if !ok {
		// CRC error on the reply: "an error occurs during the receive
		// of TX or RX frames" — retransmit without waiting for the
		// full timeout.
		m.retryOrFail()
		return
	}
	m.cancelTimeout()
	m.finish(rx, nil)
}

func (m *Master) cancelTimeout() {
	if m.timeout != nil {
		m.chain.kernel.Cancel(m.timeout)
		m.timeout = nil
	}
}

// retryOrFail resends the current TX frame if budget remains, else
// fails the transaction.
func (m *Master) retryOrFail() {
	m.cancelTimeout()
	if m.cur.attempt >= m.chain.cfg.Retries {
		m.finish(frame.RX{}, ErrTimeout)
		return
	}
	m.cur.attempt++
	m.stats.Retries++
	// The retransmission starts immediately; launch itself inserts
	// the leading interframe gap.
	m.retryGen = m.gen
	m.chain.kernel.ScheduleName("tpwire.retry", 0, m.onRetry)
}

// retry relaunches the current transaction, unless a late reply
// completed it in the instant between the retry being scheduled and
// firing.
func (m *Master) retry() {
	if m.busy && m.gen == m.retryGen {
		m.launch()
	}
}

//
// Register-level driver operations. These expand into SELECT / SETADDR
// / READ / WRITE frame sequences, eliding frames the addressing mirror
// proves redundant. Operations are serialized through an internal
// queue: the frames of one operation never interleave with another's.
// All are asynchronous; Session provides blocking wrappers for
// process-style code.
//

// op is one driver operation: n accesses with command cmd to register
// addr (advancing by stride per access) of one node and register
// space. The master works out each frame when the previous one has
// been answered, so an operation of any length is this one record and
// no frame list.
type op struct {
	cmd    frame.Command
	node   uint8
	system bool
	addr   uint8
	stride uint8
	n      int    // accesses
	i      int    // accesses answered
	v      uint8  // DATA of every access, unless data is set
	data   []byte // DATA per access (multi-byte writes)
	read   []byte // collected replies (multi-byte reads)
	// accessing is set while the frame in flight is an access, clear
	// while it is a SELECT or SETADDR leading up to one.
	accessing bool

	// Completion: exactly one is set, by the method that queued the op.
	doneErr   func(error)
	doneByte  func(uint8, error)
	doneBytes func([]byte, error)
	donePing  func(nodeID uint8, pending, intSeen bool, err error)
	doneSync  func()
	// run, if set, replaces all of the above: the op drives the master
	// itself and calls complete when its last frame has finished (DMA
	// bursts).
	run func(complete func())
}

// enqueue admits a driver operation to the serialized queue.
func (m *Master) enqueue(o op) {
	m.ops.push(o)
	if !m.opActive {
		m.nextOp()
	}
}

func (m *Master) nextOp() {
	if m.ops.len() == 0 {
		m.opActive = false
		return
	}
	m.opActive = true
	m.op = m.ops.pop()
	if m.op.run != nil {
		m.op.run(m.onOpDone)
		return
	}
	m.stepOp()
}

// addressFrame returns the next frame needed before register reg
// (-1: no register, the node only) of (node, system) can be accessed,
// updating the mirror, or ok=false once the mirror shows the address
// is in place.
func (m *Master) addressFrame(node uint8, system bool, reg int) (f frame.TX, ok bool) {
	if m.selNode != int(node) || m.selSystem != system {
		m.selNode, m.selSystem = int(node), system
		m.regPtr = -1
		return frame.TX{Cmd: frame.CmdSelect, Data: frame.NodeAddr(node, system)}, true
	}
	if reg >= 0 && m.regPtr != reg {
		m.regPtr = reg
		return frame.TX{Cmd: frame.CmdSetAddr, Data: uint8(reg)}, true
	}
	return frame.TX{}, false
}

// stepOp submits the running operation's next frame.
func (m *Master) stepOp() {
	o := &m.op
	reg := -1 // PING and SYNC address the node, not a register
	if o.cmd == frame.CmdRead || o.cmd == frame.CmdWrite {
		reg = int(o.addr + o.stride*uint8(o.i))
	}
	f, addressing := m.addressFrame(o.node, o.system, reg)
	if !addressing {
		f = frame.TX{Cmd: o.cmd, Data: o.v}
		if o.data != nil {
			f.Data = o.data[o.i]
		}
	}
	o.accessing = !addressing
	m.Submit(f, m.onOpReply)
}

// opReply takes the reply to the running operation's frame in flight:
// the operation stops at the first error, and replies to anything but
// a read access are discarded.
func (m *Master) opReply(rx frame.RX, err error) {
	o := &m.op
	if err == nil {
		if !o.accessing {
			m.stepOp()
			return
		}
		if o.doneBytes != nil {
			o.read = append(o.read, rx.Data)
		}
		if o.i++; o.i < o.n {
			m.stepOp()
			return
		}
	}
	m.completeOp(rx, err)
}

// completeOp reports the running operation's outcome — rx is its last
// reply — and starts the next one.
func (m *Master) completeOp(rx frame.RX, err error) {
	o := m.op
	m.op = op{}
	switch {
	case o.doneErr != nil:
		o.doneErr(err)
	case o.doneByte != nil:
		o.doneByte(rx.Data, err)
	case o.doneBytes != nil:
		if err != nil {
			o.read = nil
		}
		o.doneBytes(o.read, err)
	case o.donePing != nil:
		id, pending := frame.SplitAckData(rx.Data)
		o.donePing(id, pending, rx.Int, err)
	case o.doneSync != nil:
		m.invalidate()
		o.doneSync()
	}
	m.nextOp()
}

// WriteReg writes v into register addr of the given node and register
// space.
func (m *Master) WriteReg(node uint8, system bool, addr, v uint8, done func(error)) {
	m.enqueue(op{cmd: frame.CmdWrite, node: node, system: system, addr: addr, n: 1, v: v, doneErr: done})
}

// ReadReg reads register addr of the given node and register space.
func (m *Master) ReadReg(node uint8, system bool, addr uint8, done func(uint8, error)) {
	m.enqueue(op{cmd: frame.CmdRead, node: node, system: system, addr: addr, n: 1, doneByte: done})
}

// WriteSeq writes p into consecutive registers starting at addr. The
// register pointer does not auto-increment, so each byte costs a
// SETADDR and a WRITE frame; use WriteFIFO for bulk pushes to a
// single FIFO register.
func (m *Master) WriteSeq(node uint8, system bool, addr uint8, p []byte, done func(error)) {
	if len(p) == 0 {
		done(nil)
		return
	}
	m.enqueue(op{cmd: frame.CmdWrite, node: node, system: system, addr: addr, stride: 1,
		n: len(p), data: append([]byte(nil), p...), doneErr: done})
}

// ReadSeq reads n consecutive registers starting at addr (a SETADDR
// and a READ frame per register; use ReadFIFO for bulk pops from a
// single FIFO register).
func (m *Master) ReadSeq(node uint8, system bool, addr uint8, n int, done func([]byte, error)) {
	if n <= 0 {
		done(nil, nil)
		return
	}
	m.enqueue(op{cmd: frame.CmdRead, node: node, system: system, addr: addr, stride: 1,
		n: n, read: make([]byte, 0, n), doneBytes: done})
}

// WriteFIFO pushes every byte of p into the single register addr (a
// device-side FIFO): one SETADDR, then one WRITE frame per byte.
func (m *Master) WriteFIFO(node uint8, system bool, addr uint8, p []byte, done func(error)) {
	if len(p) == 0 {
		done(nil)
		return
	}
	m.enqueue(op{cmd: frame.CmdWrite, node: node, system: system, addr: addr,
		n: len(p), data: append([]byte(nil), p...), doneErr: done})
}

// ReadFIFO pops n bytes from the single register addr (a device-side
// FIFO): one SETADDR, then one READ frame per byte.
func (m *Master) ReadFIFO(node uint8, system bool, addr uint8, n int, done func([]byte, error)) {
	if n <= 0 {
		done(nil, nil)
		return
	}
	m.enqueue(op{cmd: frame.CmdRead, node: node, system: system, addr: addr,
		n: n, read: make([]byte, 0, n), doneBytes: done})
}

// Ping polls a node for liveness and interrupt status.
func (m *Master) Ping(node uint8, done func(nodeID uint8, pending bool, intSeen bool, err error)) {
	m.enqueue(op{cmd: frame.CmdPing, node: node, n: 1, donePing: done})
}

// BroadcastSync issues a broadcast SYNC, resynchronising every slave,
// then re-selects nothing (the mirror is invalidated). Like any other
// operation it skips its SELECT when the mirror shows the broadcast
// node already selected.
func (m *Master) BroadcastSync(done func()) {
	m.enqueue(op{cmd: frame.CmdSync, node: BroadcastID, n: 1, doneSync: done})
}

//
// Session: blocking wrappers for sim.Process bodies.
//

// Session adapts the master's asynchronous operations to the blocking
// style used inside sim.Process bodies. A process makes one call at a
// time, so the call's result lands in fields and the completion
// callbacks handed to the master are bound once in NewSession.
type Session struct {
	m *Master
	p *sim.Process

	wake    func() // of the call in flight
	err     error
	b       uint8
	buf     []byte
	pending bool
	intSeen bool

	onErr   func(error)
	onByte  func(uint8, error)
	onBytes func([]byte, error)
	onPing  func(uint8, bool, bool, error)
}

// NewSession returns a blocking facade over the master for process p.
func (m *Master) NewSession(p *sim.Process) *Session {
	s := &Session{m: m, p: p}
	s.onErr = func(err error) { s.err = err; s.wake() }
	s.onByte = func(b uint8, err error) { s.b, s.err = b, err; s.wake() }
	s.onBytes = func(buf []byte, err error) { s.buf, s.err = buf, err; s.wake() }
	s.onPing = func(_ uint8, pending, intSeen bool, err error) {
		s.pending, s.intSeen, s.err = pending, intSeen, err
		s.wake()
	}
	return s
}

// block arms the process's blocker for one call; the returned wait
// parks until the call's completion callback has run.
func (s *Session) block() (wait func() bool) {
	s.wake, wait = s.p.Block(sim.Forever)
	return wait
}

// WriteReg blocks until the write completes.
func (s *Session) WriteReg(node uint8, system bool, addr, v uint8) error {
	wait := s.block()
	s.m.WriteReg(node, system, addr, v, s.onErr)
	wait()
	return s.err
}

// ReadReg blocks until the read completes.
func (s *Session) ReadReg(node uint8, system bool, addr uint8) (uint8, error) {
	wait := s.block()
	s.m.ReadReg(node, system, addr, s.onByte)
	wait()
	return s.b, s.err
}

// WriteSeq blocks until the consecutive-register write completes.
func (s *Session) WriteSeq(node uint8, system bool, addr uint8, p []byte) error {
	wait := s.block()
	s.m.WriteSeq(node, system, addr, p, s.onErr)
	wait()
	return s.err
}

// ReadSeq blocks until the consecutive-register read completes.
func (s *Session) ReadSeq(node uint8, system bool, addr uint8, n int) ([]byte, error) {
	wait := s.block()
	s.m.ReadSeq(node, system, addr, n, s.onBytes)
	wait()
	return s.buf, s.err
}

// WriteFIFO blocks until the FIFO push burst completes.
func (s *Session) WriteFIFO(node uint8, system bool, addr uint8, p []byte) error {
	wait := s.block()
	s.m.WriteFIFO(node, system, addr, p, s.onErr)
	wait()
	return s.err
}

// ReadFIFO blocks until the FIFO pop burst completes.
func (s *Session) ReadFIFO(node uint8, system bool, addr uint8, n int) ([]byte, error) {
	wait := s.block()
	s.m.ReadFIFO(node, system, addr, n, s.onBytes)
	wait()
	return s.buf, s.err
}

// Ping blocks until the poll completes.
func (s *Session) Ping(node uint8) (pending bool, intSeen bool, err error) {
	wait := s.block()
	s.m.Ping(node, s.onPing)
	wait()
	return s.pending, s.intSeen, s.err
}
