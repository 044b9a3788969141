package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// epoch anchors the monotonic clock every timestamp in a run is read
// against; spans and latencies are nanoseconds since it.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// hist is a log-linear latency histogram in nanoseconds: values below
// 256 are kept exactly, above that every octave is split into 128
// buckets (under 0.8 % wide), and quantiles interpolate inside the
// bucket they land in. It replaces sorting tens of millions of
// samples per run.
type hist struct {
	n      uint64
	counts [histBuckets]uint32
}

const (
	histMaxExp  = 32 // values are clamped below 2^40 ns (about 18 minutes)
	histBuckets = 256 + histMaxExp*128
)

func histIndex(v uint64) int {
	if v < 256 {
		return int(v)
	}
	e := bits.Len64(v) - 8
	if e > histMaxExp {
		return histBuckets - 1
	}
	return 256 + (e-1)*128 + int(v>>uint(e)) - 128
}

// histBounds returns the lowest value and the width of bucket i.
func histBounds(i int) (lo, width float64) {
	if i < 256 {
		return float64(i), 1
	}
	e := (i-256)/128 + 1
	m := (i-256)%128 + 128
	return float64(uint64(m) << uint(e)), float64(uint64(1) << uint(e))
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histIndex(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

// quantile returns the q-quantile in nanoseconds (NaN when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n-1)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < cum+float64(c) {
			lo, w := histBounds(i)
			return lo + w*(rank-cum+0.5)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := histBounds(histBuckets - 1)
	return lo + w
}

// median of a slice (NaN when empty); the input is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// splitmix is the seeded generator behind every payload and op mix:
// small, fast enough to sit in a sub-microsecond loop, and the same
// sequence on every host.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (s *splitmix) intn(n int) int {
	hi, _ := bits.Mul64(s.next(), uint64(n))
	return int(hi)
}

func mix64(v uint64) uint64 {
	s := splitmix(v)
	return s.next()
}
