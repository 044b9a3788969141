package cosim

import "fmt"

// Ring is a single-producer single-consumer byte ring buffer, the
// software shape of the UNIX shared-memory segments that connect the
// SystemC SC1/SC2 processes with the NS-2 bus model in Figure 5. It
// carries length-framed messages so whole packets cross the domain
// boundary atomically.
//
// The capacity is fixed at NewRing, but the backing buffer starts empty
// and doubles on demand up to it, so a ring sized for the worst case
// costs only what its traffic actually buffers.
type Ring struct {
	buf        []byte
	capacity   int
	head, tail int // head = read position, tail = write position
	size       int // bytes currently stored
	onData     func()
}

// NewRing returns a ring of the given capacity in bytes. It allocates
// no buffer until the first Push.
func NewRing(capacity int) *Ring {
	if capacity < 8 {
		capacity = 8
	}
	return &Ring{capacity: capacity}
}

// Cap returns the ring capacity in bytes.
func (r *Ring) Cap() int { return r.capacity }

// Len returns the bytes currently buffered.
func (r *Ring) Len() int { return r.size }

// Free returns the bytes available for writing.
func (r *Ring) Free() int { return r.capacity - r.size }

// SetOnData installs a callback fired after every successful Push —
// the "doorbell" the consuming domain polls or wires to an event.
func (r *Ring) SetOnData(fn func()) { r.onData = fn }

// grow replaces the buffer with one of at least n bytes, doubling up to
// the capacity, and moves the stored bytes to its start so a wrapped
// ring comes out linear.
func (r *Ring) grow(n int) {
	c := max(2*len(r.buf), 64)
	for c < n {
		c *= 2
	}
	buf := make([]byte, min(c, r.capacity))
	r.peek(buf[:r.size])
	r.buf, r.head, r.tail = buf, 0, r.size
}

// push appends raw bytes; caller checked there is room in buf.
func (r *Ring) push(p []byte) {
	n := copy(r.buf[r.tail:], p)
	copy(r.buf, p[n:])
	r.tail = (r.tail + len(p)) % len(r.buf)
	r.size += len(p)
}

// peek copies the len(dst) bytes at the read position into dst without
// consuming them; caller checked availability.
func (r *Ring) peek(dst []byte) {
	n := copy(dst, r.buf[r.head:])
	copy(dst[n:], r.buf)
}

// discard drops n bytes at the read position; caller checked
// availability.
func (r *Ring) discard(n int) {
	r.head = (r.head + n) % len(r.buf)
	r.size -= n
}

// Push writes one length-framed message; it reports false (without
// side effects) when the ring lacks space for the frame.
func (r *Ring) Push(msg []byte) bool {
	need := 4 + len(msg)
	if r.Free() < need {
		return false
	}
	if len(r.buf)-r.size < need {
		r.grow(r.size + need)
	}
	var hdr [4]byte
	hdr[0] = byte(len(msg) >> 24)
	hdr[1] = byte(len(msg) >> 16)
	hdr[2] = byte(len(msg) >> 8)
	hdr[3] = byte(len(msg))
	r.push(hdr[:])
	r.push(msg)
	if r.onData != nil {
		r.onData()
	}
	return true
}

// Pop removes and returns the next framed message, or ok=false when
// no complete frame is buffered.
func (r *Ring) Pop() ([]byte, bool) {
	if r.size < 4 {
		return nil, false
	}
	// Peek the header without consuming.
	var hdr [4]byte
	r.peek(hdr[:])
	n := int(hdr[0])<<24 | int(hdr[1])<<16 | int(hdr[2])<<8 | int(hdr[3])
	if n < 0 || r.size < 4+n {
		return nil, false
	}
	r.discard(4)
	msg := make([]byte, n)
	r.peek(msg)
	r.discard(n)
	return msg, true
}

// MustPush panics when the ring overflows; used where scenario sizing
// guarantees capacity and silent loss would corrupt a co-simulation.
func (r *Ring) MustPush(msg []byte) {
	if !r.Push(msg) {
		panic(fmt.Sprintf("cosim: ring overflow (%d free, %d needed)", r.Free(), 4+len(msg)))
	}
}
