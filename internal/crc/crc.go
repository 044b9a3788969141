// Package crc implements bitwise cyclic-redundancy checks for short
// serial frames.
//
// TpWIRE frames protect their command/type and data bits with a 4-bit
// CRC over the generator polynomial x^4 + x + 1 (Section 3.1 of the
// paper). The engine here is deliberately bit-serial — the same shape
// as the LFSR a 1-wire slave would implement in hardware — and generic
// over width and polynomial so tests can cross-check against other
// well-known CRCs.
package crc

import "fmt"

// Poly4TpWIRE is the TpWIRE generator polynomial x^4 + x + 1, written
// without its implicit leading x^4 term: bits (1, 0, 0, 1, 1) -> 0x3
// over 4 bits.
const Poly4TpWIRE uint32 = 0x3

// Engine computes a CRC of up to 32 bits, one input bit at a time,
// most-significant bit first. The zero value is not usable; construct
// with New.
type Engine struct {
	width uint
	poly  uint32
	mask  uint32
	top   uint32
	reg   uint32
	bits  int
}

// New returns an engine for a CRC of the given width (1..32 bits) over
// poly (without the implicit leading term), starting from init value
// init.
func New(width uint, poly, init uint32) *Engine {
	// Small enough to inline, so an engine that does not outlive its
	// caller — one frame's or one payload's checksum — stays on the
	// caller's stack.
	e := newEngine(width, poly, init)
	return &e
}

func newEngine(width uint, poly, init uint32) Engine {
	if width == 0 || width > 32 {
		panic(fmt.Sprintf("crc: unsupported width %d", width))
	}
	var mask uint32 = 0xFFFFFFFF
	if width < 32 {
		mask = (1 << width) - 1
	}
	return Engine{
		width: width,
		poly:  poly & mask,
		mask:  mask,
		top:   1 << (width - 1),
		reg:   init & mask,
	}
}

// NewTpWIRE returns the 4-bit x^4+x+1 engine used by TpWIRE frames,
// initialised to zero.
func NewTpWIRE() *Engine { return New(4, Poly4TpWIRE, 0) }

// Reset restores the engine to the given initial register value.
func (e *Engine) Reset(init uint32) {
	e.reg = init & e.mask
	e.bits = 0
}

// Width reports the CRC width in bits.
func (e *Engine) Width() uint { return e.width }

// Len reports how many input bits have been absorbed since the last
// Reset.
func (e *Engine) Len() int { return e.bits }

// UpdateBit absorbs a single input bit.
func (e *Engine) UpdateBit(bit bool) {
	fb := (e.reg & e.top) != 0
	e.reg = (e.reg << 1) & e.mask
	if fb != bit {
		e.reg ^= e.poly
	}
	e.bits++
}

// UpdateBits absorbs the low n bits of v, most-significant first. This
// matches the on-wire order of TpWIRE frames, which transmit fields
// MSB-first.
func (e *Engine) UpdateBits(v uint32, n int) {
	if n < 0 || n > 32 {
		panic(fmt.Sprintf("crc: bad bit count %d", n))
	}
	for i := n - 1; i >= 0; i-- {
		e.UpdateBit((v>>uint(i))&1 == 1)
	}
}

// UpdateBytes absorbs whole bytes, each MSB-first.
func (e *Engine) UpdateBytes(p []byte) {
	for _, b := range p {
		e.UpdateBits(uint32(b), 8)
	}
}

// Sum returns the current CRC register.
func (e *Engine) Sum() uint32 { return e.reg }

// Checksum computes, in one call, the CRC of the low n bits of v using
// a fresh engine with the given parameters.
func Checksum(width uint, poly, init, v uint32, n int) uint32 {
	e := New(width, poly, init)
	e.UpdateBits(v, n)
	return e.Sum()
}

// TpWIRETX computes the 4-bit CRC a TpWIRE TX frame carries: the CRC
// over CMD[2:0] followed by DATA[7:0] (11 bits, MSB-first) under
// x^4+x+1.
func TpWIRETX(cmd uint8, data uint8) uint8 {
	e := NewTpWIRE()
	e.UpdateBits(uint32(cmd&0x7), 3)
	e.UpdateBits(uint32(data), 8)
	return uint8(e.Sum())
}

// TpWIRERX computes the 4-bit CRC a TpWIRE RX frame carries: the CRC
// over TYPE[1:0] followed by DATA[7:0] (10 bits, MSB-first) under
// x^4+x+1.
func TpWIRERX(typ uint8, data uint8) uint8 {
	e := NewTpWIRE()
	e.UpdateBits(uint32(typ&0x3), 2)
	e.UpdateBits(uint32(data), 8)
	return uint8(e.Sum())
}
