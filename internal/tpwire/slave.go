package tpwire

import (
	"fmt"

	"tpspace/internal/frame"
	"tpspace/internal/sim"
)

// Device is the application-visible face of a slave: a bank of up to
// 256 memory / memory-mapped-I/O registers plus an interrupt line.
// Higher layers (the mailbox byte service, sensors, actuators) attach
// to the bus by implementing Device.
type Device interface {
	// ReadReg returns the value of memory register addr. Reads may
	// have side effects (e.g. popping a FIFO), as is usual for
	// memory-mapped I/O.
	ReadReg(addr uint8) uint8
	// WriteReg stores v into memory register addr.
	WriteReg(addr uint8, v uint8)
	// Pending reports whether the device has an interrupt pending.
	// The slave advertises it through the INT bit of every RX frame
	// that passes through it.
	Pending() bool
}

// RAMDevice is a plain 256-byte register file with no interrupt. It is
// the default device of a freshly attached slave and a convenient test
// double.
type RAMDevice struct {
	Mem [256]uint8
}

// ReadReg implements Device.
func (r *RAMDevice) ReadReg(addr uint8) uint8 { return r.Mem[addr] }

// WriteReg implements Device.
func (r *RAMDevice) WriteReg(addr uint8, v uint8) { r.Mem[addr] = v }

// Pending implements Device.
func (r *RAMDevice) Pending() bool { return false }

// System register addresses within a slave's system register set
// ("command, flags, DMA counter and SPI").
const (
	SysCommand = 0
	SysFlags   = 1
	SysDMA     = 2
	SysSPI     = 3
	numSysRegs = 4
)

// SlaveStats counts protocol-level activity at one slave.
type SlaveStats struct {
	FramesSeen   uint64 // valid TX frames observed passing through
	Executed     uint64 // TX frames executed (selected or broadcast)
	Replies      uint64 // RX frames generated
	Resets       uint64 // watchdog resets taken
	CRCDiscarded uint64 // frames discarded due to CRC error
	Drops        uint64 // forced dropouts (fault injection)
}

// Slave is one node of the daisy chain. Create slaves through
// Chain.AddSlave.
type Slave struct {
	chain *Chain
	id    uint8
	pos   int // 0 = nearest the master
	// segment is the extra one-way delay of the wire segment between
	// this slave and the previous node (long-distance links).
	segment sim.Duration
	// delay is the one-way propagation delay between the master and
	// this slave (Chain.delayTo), fixed once the slave is attached.
	delay sim.Duration

	dev Device

	// Addressing state (set by SELECT / SETADDR).
	selected  bool
	system    bool // true: system register set; false: memory
	regPtr    uint8
	sysRegs   [numSysRegs]uint8
	resetting bool

	watchdog *sim.Event
	// releaseGen guards reset-release events: entering a new reset (or
	// forced drop) bumps the generation so a release scheduled by an
	// earlier, overlapping reset cannot end the new one prematurely.
	releaseGen uint64
	// Frames in flight at this slave. The master may move on before a
	// frame has reached a far slave, or before a superseded attempt's
	// reply has come back, so each stage keeps what it was actually
	// sent, tagged with the transaction generation, instead of looking
	// at the master's current transaction. Every stage's delay is a
	// constant of the slave, so each queue drains in the order it
	// filled and one callback per stage, bound once, pops its head.
	arrivals ring[txInFlight] // launched, not yet here
	execs    ring[txInFlight] // addressed to this slave, executing
	replies  ring[rxInFlight] // on the way back to the master

	// Labels and callbacks are built once at construction; the paths
	// that schedule with them run for every valid TX frame and must
	// neither format strings nor take method values (each of which
	// allocates).
	watchdogLabel  string
	execLabel      string
	resetDoneLabel string
	dropDoneLabel  string
	onArrive       func()
	onExec         func()
	onReply        func()
	onWatchdog     func()
	stats          SlaveStats
}

// txInFlight is a TX frame on its way to, or executing at, a slave.
type txInFlight struct {
	f   frame.TX
	gen uint64 // Master.gen of the transaction that sent it
}

// rxInFlight is a slave's reply on its way to the master.
type rxInFlight struct {
	rx  frame.RX
	gen uint64
}

func newSlave(c *Chain, id uint8, pos int, segment sim.Duration) *Slave {
	s := &Slave{chain: c, id: id, pos: pos, dev: &RAMDevice{}, segment: segment,
		watchdogLabel:  fmt.Sprintf("tpwire.watchdog[%d]", id),
		execLabel:      fmt.Sprintf("tpwire.exec[%d]", id),
		resetDoneLabel: fmt.Sprintf("tpwire.resetdone[%d]", id),
		dropDoneLabel:  fmt.Sprintf("tpwire.dropdone[%d]", id)}
	s.onArrive = s.arrive
	s.onExec = s.exec
	s.onReply = func() { c.deliverRX(s) }
	s.onWatchdog = s.reset
	return s
}

// ID returns the slave's node ID.
func (s *Slave) ID() uint8 { return s.id }

// Position returns the slave's index along the chain (0 is adjacent to
// the master).
func (s *Slave) Position() int { return s.pos }

// Device returns the attached device.
func (s *Slave) Device() Device { return s.dev }

// SetDevice attaches a device, replacing the default RAM.
func (s *Slave) SetDevice(d Device) { s.dev = d }

// Stats returns a snapshot of the slave's counters.
func (s *Slave) Stats() SlaveStats { return s.stats }

// Selected reports whether this slave is currently the addressed node.
func (s *Slave) Selected() bool { return s.selected }

// InReset reports whether the slave is currently holding its watchdog
// reset.
func (s *Slave) InReset() bool { return s.resetting }

// SysReg returns the value of a system register.
func (s *Slave) SysReg(addr uint8) uint8 {
	if int(addr) < numSysRegs {
		return s.sysRegs[addr]
	}
	return 0
}

// feedWatchdog restarts the 2048-bit-period reset timer; called on
// every valid TX frame that passes through the slave.
func (s *Slave) feedWatchdog() {
	k := s.chain.kernel
	if s.watchdog != nil {
		k.Cancel(s.watchdog)
	}
	s.watchdog = k.ScheduleName(s.watchdogLabel,
		s.chain.bits(ResetTimeoutBits), s.onWatchdog)
}

// reset performs the watchdog reset: the slave deselects, clears its
// addressing state and stays inactive for ResetActiveBits bit periods.
// After the reset releases, the watchdog stays disarmed until the next
// valid TX frame re-feeds it, so an idle bus settles instead of
// resetting forever.
func (s *Slave) reset() {
	s.stats.Resets++
	s.watchdog = nil
	s.holdReset(s.resetDoneLabel, s.chain.bits(ResetActiveBits))
}

// Drop forces the slave into its reset state for d, modelling a node
// dropout (fault injection). The slave ignores all traffic while down
// and rejoins through the normal reset-release path: deselected, with
// its watchdog disarmed until the next valid TX frame re-feeds it.
func (s *Slave) Drop(d sim.Duration) {
	s.stats.Drops++
	if s.watchdog != nil {
		s.chain.kernel.Cancel(s.watchdog)
		s.watchdog = nil
	}
	s.holdReset(s.dropDoneLabel, d)
}

// holdReset enters the reset state and schedules its release after d.
// The release is generation-guarded: a newer overlapping reset or drop
// invalidates releases scheduled before it.
func (s *Slave) holdReset(label string, d sim.Duration) {
	s.resetting = true
	s.selected = false
	s.system = false
	s.regPtr = 0
	s.releaseGen++
	gen := s.releaseGen
	s.chain.kernel.ScheduleName(label, d, func() {
		if s.releaseGen == gen {
			s.resetting = false
		}
	})
}

// arrive is the oldest launched TX frame reaching this slave. The slave
// feeds its watchdog, evaluates SELECT addressing and, if it is the
// addressed node, executes the command after its processing delay.
func (s *Slave) arrive() {
	a := s.arrivals.pop()
	s.observe(a.f)
	if s.resetting || !s.selected {
		return
	}
	s.execs.push(a)
	s.chain.kernel.ScheduleName(s.execLabel, s.chain.procT, s.onExec)
}

// exec runs the oldest addressed frame and sends the reply after the
// turnaround, unless the selection is broadcast: all execute, none
// replies.
func (s *Slave) exec() {
	c := s.chain
	e := s.execs.pop()
	rx := s.execute(e.f)
	if c.broadcastSelected() {
		return
	}
	s.replies.push(rxInFlight{rx: rx, gen: e.gen})
	c.kernel.ScheduleName("tpwire.rx", c.turnT+c.frameT+s.delay, s.onReply)
}

// observe is called for every valid TX frame travelling down the
// chain past (and including) this slave. It feeds the watchdog and
// performs SELECT address comparison, which every slave does
// regardless of selection state.
func (s *Slave) observe(f frame.TX) {
	s.stats.FramesSeen++
	if s.resetting {
		return
	}
	s.feedWatchdog()
	if f.Cmd == frame.CmdSelect {
		id, system := frame.SplitNodeAddr(f.Data)
		if id == BroadcastID || id == s.id {
			s.selected = true
			s.system = system
		} else {
			s.selected = false
		}
	}
}

// execute runs a TX frame's command on this slave and produces the RX
// reply. It is called only for the selected slave (or for every slave,
// with reply suppressed, under broadcast).
func (s *Slave) execute(f frame.TX) frame.RX {
	s.stats.Executed++
	var rx frame.RX
	switch f.Cmd {
	case frame.CmdSelect, frame.CmdSync:
		if f.Cmd == frame.CmdSync {
			s.regPtr = 0
		}
		rx = frame.RX{Type: frame.TypeAck, Data: frame.AckData(s.id, s.dev.Pending())}
	case frame.CmdSetAddr:
		s.regPtr = f.Data
		rx = frame.RX{Type: frame.TypeAck, Data: frame.AckData(s.id, s.dev.Pending())}
	// Note: READ and WRITE deliberately do not auto-increment the
	// register pointer. The master blindly retransmits frames whose
	// replies were lost, so a command may execute twice; with a fixed
	// pointer, duplicated register accesses are idempotent. FIFO
	// registers (whose reads/writes do have side effects) recover via
	// the mailbox checksum and sequence-committed dequeue instead.
	case frame.CmdWrite:
		if s.system {
			if int(s.regPtr) < numSysRegs {
				s.sysRegs[s.regPtr] = f.Data
			}
		} else {
			s.dev.WriteReg(s.regPtr, f.Data)
		}
		rx = frame.RX{Type: frame.TypeAck, Data: frame.AckData(s.id, s.dev.Pending())}
	case frame.CmdRead:
		var v uint8
		if s.system {
			if int(s.regPtr) < numSysRegs {
				v = s.sysRegs[s.regPtr]
			}
		} else {
			v = s.dev.ReadReg(s.regPtr)
		}
		rx = frame.RX{Type: frame.TypeData, Data: v}
	case frame.CmdReadFlags:
		rx = frame.RX{Type: frame.TypeFlags, Data: s.sysRegs[SysFlags]}
	case frame.CmdWriteCmd:
		s.sysRegs[SysCommand] = f.Data
		rx = frame.RX{Type: frame.TypeAck, Data: frame.AckData(s.id, s.dev.Pending())}
	case frame.CmdPing:
		rx = frame.RX{Type: frame.TypeAck, Data: frame.AckData(s.id, s.dev.Pending())}
	default:
		rx = frame.RX{Type: frame.TypeError, Data: frame.AckData(s.id, s.dev.Pending())}
	}
	s.stats.Replies++
	return rx
}
