package tpwire

import (
	"fmt"

	"tpspace/internal/frame"
)

// This file implements DMA burst transfers, the natural use of the
// "DMA counter" system register the TpWIRE spec gives every slave
// (Section 3.1). Instead of a full 16-bit TX/RX frame pair per data
// byte, the master programs the burst length into the DMA counter,
// addresses the window register once, and then the data phase streams
// the bytes back-to-back with light per-byte framing and one trailing
// burst CRC. The paper's evaluation predates this optimisation; the
// A5 ablation bench quantifies what it would have bought.

// MaxDMABurst is the largest burst one DMA transaction can move,
// bounded by the 8-bit DMA counter register.
const MaxDMABurst = 255

// streamBitsPerByte is the data-phase cost of one byte: with one wire
// the byte plus a start/stop framing bit; with mode-A n-wire scaling
// all lines carry data during the burst.
func streamBitsPerByte(cfg Config) int {
	if cfg.Wires <= 1 {
		return 10 // 8 data + start + stop
	}
	per := (8 + cfg.Wires - 1) / cfg.Wires // ceil(8/w)
	return per + 1
}

// dmaStreamBits is the total wire occupancy of a burst's data phase:
// the streamed bytes plus an 8-bit burst CRC.
func dmaStreamBits(cfg Config, n int) int {
	return n*streamBitsPerByte(cfg) + 8
}

// ReadDMA reads n bytes from the single register addr of the node's
// memory space using a DMA burst: the device's ReadReg(addr) is
// invoked once per byte (FIFO pop semantics), but the wire carries
// only the streamed data phase instead of n command/response pairs.
// Bursts larger than MaxDMABurst are chunked transparently.
func (m *Master) ReadDMA(node uint8, addr uint8, n int, done func([]byte, error)) {
	if n <= 0 {
		done(nil, nil)
		return
	}
	buf := make([]byte, 0, n)
	var chunk func(remaining int)
	chunk = func(remaining int) {
		this := remaining
		if this > MaxDMABurst {
			this = MaxDMABurst
		}
		m.readDMAChunk(node, addr, this, func(b []byte, err error) {
			if err != nil {
				done(nil, err)
				return
			}
			buf = append(buf, b...)
			if remaining-this == 0 {
				done(buf, nil)
				return
			}
			chunk(remaining - this)
		})
	}
	chunk(n)
}

func (m *Master) readDMAChunk(node uint8, addr uint8, n int, done func([]byte, error)) {
	m.enqueue(op{run: func(complete func()) {
		setup := m.dmaSetup(node, addr, n)
		m.seq(setup, func(_ frame.RX, err error) {
			if err != nil {
				done(nil, err)
				complete()
				return
			}
			m.stream(node, addr, n, false, nil, func(b []byte, err error) {
				done(b, err)
				complete()
			})
		})
	}})
}

// WriteDMA pushes p into the single register addr of the node's
// memory space with DMA bursts (WriteReg per byte on the device).
func (m *Master) WriteDMA(node uint8, addr uint8, p []byte, done func(error)) {
	if len(p) == 0 {
		done(nil)
		return
	}
	data := append([]byte(nil), p...)
	var chunk func(off int)
	chunk = func(off int) {
		end := off + MaxDMABurst
		if end > len(data) {
			end = len(data)
		}
		m.writeDMAChunk(node, addr, data[off:end], func(err error) {
			if err != nil {
				done(err)
				return
			}
			if end == len(data) {
				done(nil)
				return
			}
			chunk(end)
		})
	}
	chunk(0)
}

func (m *Master) writeDMAChunk(node uint8, addr uint8, p []byte, done func(error)) {
	m.enqueue(op{run: func(complete func()) {
		setup := m.dmaSetup(node, addr, len(p))
		m.seq(setup, func(_ frame.RX, err error) {
			if err != nil {
				done(err)
				complete()
				return
			}
			m.stream(node, addr, len(p), true, p, func(_ []byte, err error) {
				done(err)
				complete()
			})
		})
	}})
}

// dmaSetup builds the addressing frames: program the DMA counter in
// the system space, then point at the window register in memory
// space. The mirror elides whatever is already in place.
func (m *Master) dmaSetup(node uint8, addr uint8, n int) []frame.TX {
	var fs []frame.TX
	address := func(system bool, reg uint8) {
		for f, ok := m.addressFrame(node, system, int(reg)); ok; f, ok = m.addressFrame(node, system, int(reg)) {
			fs = append(fs, f)
		}
	}
	address(true, SysDMA)
	fs = append(fs, frame.TX{Cmd: frame.CmdWrite, Data: uint8(n)})
	address(false, addr)
	return fs
}

// seq runs a list of frames in order, stopping at the first error.
// Replies other than the final one are discarded.
func (m *Master) seq(frames []frame.TX, done func(frame.RX, error)) {
	if len(frames) == 0 {
		done(frame.RX{}, nil)
		return
	}
	var step func(i int)
	step = func(i int) {
		m.Submit(frames[i], func(rx frame.RX, err error) {
			if err != nil || i == len(frames)-1 {
				done(rx, err)
				return
			}
			step(i + 1)
		})
	}
	step(0)
}

// ErrDMACorrupt reports a burst whose trailing CRC failed after the
// retry budget.
var errDMACorrupt = fmt.Errorf("tpwire: DMA burst corrupted: %w", ErrTimeout)

// stream models the data phase: the wire is occupied for the burst
// duration; at the end the device-side register accesses happen and a
// short acknowledgement returns. A corrupted burst (probability
// scaled to its length) is retried like any frame, re-reading or
// re-writing the device registers (FIFO devices recover through their
// rewind/announce protocols, as with plain bursts).
func (m *Master) stream(node uint8, addr uint8, n int, isWrite bool, data []byte, done func([]byte, error)) {
	c := m.chain
	cfg := c.cfg
	s := c.byID[node]
	attempt := 0
	var run func()
	run = func() {
		m.stats.Frames++
		bits := cfg.FrameBits() + dmaStreamBits(cfg, n) + cfg.TurnaroundBits + cfg.ProcBits
		dur := c.bits(cfg.GapBits + bits)
		if s != nil {
			dur += 2 * s.delay
		}
		c.stats.BusyTime += dur
		c.stats.TXFrames++

		// The burst keeps bits flowing on the wire continuously, so
		// slave watchdogs cannot fire during it: suspend them for the
		// burst and re-arm at its end. Without this, any burst longer
		// than the 2048-bit reset timeout would reset the chain
		// mid-transfer.
		for _, sl := range c.slaves {
			if sl.watchdog != nil {
				c.kernel.Cancel(sl.watchdog)
				sl.watchdog = nil
			}
		}
		rearm := func() {
			for _, sl := range c.slaves {
				if !sl.resetting {
					sl.feedWatchdog()
				}
			}
		}

		// Corruption probability scaled to burst length in units of a
		// 16-bit frame.
		corrupt := false
		if cfg.FrameErrorRate > 0 {
			frames := float64(bits) / 16.0
			pOK := 1.0
			for i := 0.0; i < frames; i++ {
				pOK *= 1 - cfg.FrameErrorRate
			}
			corrupt = c.kernel.Rand().Float64() > pOK
		}

		c.kernel.ScheduleName("tpwire.dma", dur, func() {
			rearm()
			if s == nil || s.resetting || !s.selected {
				// Nobody streamed back: behave like a timeout.
				m.dmaRetry(&attempt, run, done)
				return
			}
			if corrupt {
				c.stats.CorruptedRX++
				if c.tracer != nil {
					c.trace("drop-rx", node, fmt.Sprintf("dma burst n=%d", n))
				}
				m.dmaRetry(&attempt, run, done)
				return
			}
			s.stats.FramesSeen++
			s.stats.Executed++
			if isWrite {
				for _, b := range data {
					s.dev.WriteReg(addr, b)
				}
				c.stats.RXFrames++
				if c.tracer != nil {
					c.trace("rx", node, fmt.Sprintf("dma write ack n=%d", n))
				}
				done(nil, nil)
				return
			}
			out := make([]byte, n)
			for i := range out {
				out[i] = s.dev.ReadReg(addr)
			}
			c.stats.RXFrames++
			if c.tracer != nil {
				c.trace("rx", node, fmt.Sprintf("dma read n=%d", n))
			}
			done(out, nil)
		})
	}
	run()
}

func (m *Master) dmaRetry(attempt *int, run func(), done func([]byte, error)) {
	if *attempt >= m.chain.cfg.Retries {
		m.stats.Failures++
		m.invalidate()
		done(nil, errDMACorrupt)
		return
	}
	*attempt++
	m.stats.Retries++
	m.chain.kernel.ScheduleName("tpwire.dmaretry", 0, run)
}

// Session wrappers.

// ReadDMA blocks until the DMA burst read completes.
func (s *Session) ReadDMA(node uint8, addr uint8, n int) ([]byte, error) {
	wait := s.block()
	s.m.ReadDMA(node, addr, n, s.onBytes)
	wait()
	return s.buf, s.err
}

// WriteDMA blocks until the DMA burst write completes.
func (s *Session) WriteDMA(node uint8, addr uint8, p []byte) error {
	wait := s.block()
	s.m.WriteDMA(node, addr, p, s.onErr)
	wait()
	return s.err
}
