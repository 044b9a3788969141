package tpwire

// ring is a FIFO that keeps its storage: once it has grown to the
// deepest backlog a run produces, push and pop allocate nothing. (A
// slice drained with q = q[1:] walks off its backing array and
// reallocates on a later append.) The zero value is an empty ring.
type ring[T any] struct {
	buf  []T // length zero or a power of two
	head int
	n    int
}

func (r *ring[T]) len() int { return r.n }

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		grown := make([]T, max(4, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// pop removes and returns the oldest element; the ring must not be
// empty. The vacated slot is zeroed so it pins nothing.
func (r *ring[T]) pop() T {
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}
