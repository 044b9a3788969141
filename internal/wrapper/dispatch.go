package wrapper

import (
	"sync"
	"sync/atomic"

	"tpspace/internal/transport"
)

// dispatchQueueDepth bounds each request queue feeding the worker
// pool. A full queue exerts backpressure on the connection's reader
// goroutine rather than buffering without bound.
const dispatchQueueDepth = 256

// dispatcher is the gateway's bounded per-connection worker pool:
// request frames are handled on worker goroutines instead of the
// transport's reader goroutine, so one slow request no longer
// head-of-line-blocks every other request on the connection. It only
// runs behind a transport that has such a reader goroutine (TCP); a
// transport that delivers on the sender's goroutine gains nothing
// from the hand-off, and NewGateway serves it inline.
//
// In affinity mode (the default) each worker owns a private queue and
// frames are routed by the tuple's home-shard signature, computed
// from the wire bytes at enqueue time: all traffic for one shard
// flows through one worker, so concrete-signature requests never
// contend on a shard lock and are executed in arrival order within
// their shard. Frames without a concrete signature (wildcard
// templates, pings, XML) spread by request id or round-robin —
// at-most-once execution is the dedup table's job either way.
//
// In shared mode (WithoutAffinity) every worker drains one common
// queue — the legacy free-for-all, kept for comparison benchmarks.
//
// Shutdown drains: stop() closes the queues and waits for the workers
// to finish every frame already accepted, so a request that reached
// the dispatcher is always answered (the pre-PR pool dropped queued
// frames on stop).
type dispatcher struct {
	mu     sync.RWMutex // enqueue holds R, stop holds W: no send-on-closed
	closed bool
	queues []chan []byte // one per worker (affinity), or a single shared queue
	route  func([]byte) int
	rr     atomic.Uint32 // round-robin fallback for unroutable frames
	wg     sync.WaitGroup
}

// newDispatcher starts workers goroutines over handle. route maps a
// frame to a worker index (affinity); nil route selects shared-queue
// mode. Frames handed to enqueue are pooled buffers; workers release
// them after handle returns.
func newDispatcher(workers int, handle func([]byte), route func([]byte) int) *dispatcher {
	d := &dispatcher{route: route}
	n := workers
	if route == nil {
		n = 1 // one shared queue
	}
	d.queues = make([]chan []byte, n)
	for i := range d.queues {
		d.queues[i] = make(chan []byte, dispatchQueueDepth)
	}
	d.wg.Add(workers)
	for i := 0; i < workers; i++ {
		q := d.queues[0]
		if route != nil {
			q = d.queues[i]
		}
		go func() {
			defer d.wg.Done()
			for b := range q {
				handle(b)
				transport.PutBuf(b)
			}
		}()
	}
	return d
}

// enqueue hands one owned (pooled) request frame to the pool,
// blocking for backpressure when its queue is full. It reports false
// — without taking ownership — once the dispatcher has stopped.
func (d *dispatcher) enqueue(b []byte) bool {
	d.mu.RLock()
	if d.closed {
		d.mu.RUnlock()
		return false
	}
	q := d.queues[0]
	if d.route != nil && len(d.queues) > 1 {
		q = d.queues[d.route(b)%len(d.queues)]
	}
	// Blocking here holds the read lock, which is safe: the workers
	// drain q without locks, and stop() cannot close the channel until
	// this send completes and the lock is released.
	q <- b
	d.mu.RUnlock()
	return true
}

// nextRR spreads unroutable frames round-robin.
func (d *dispatcher) nextRR() int {
	return int(d.rr.Add(1) - 1)
}

// stop closes the queues and waits for the workers to drain them:
// every frame accepted by enqueue is handled (and answered) before
// stop returns.
func (d *dispatcher) stop() {
	d.mu.Lock()
	if !d.closed {
		d.closed = true
		for _, q := range d.queues {
			close(q)
		}
	}
	d.mu.Unlock()
	d.wg.Wait()
}
