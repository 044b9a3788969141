package wrapper

// Completion cells: the pooled rendezvous behind the blocking
// conveniences (WriteWait, TakeWait, ReadWait, CountWait). The old
// wrappers allocated a fresh buffered channel plus an adapter closure
// per call; a cell is reused across calls — its cap-1 signal channel
// included — so a sync client op parks and wakes without allocating.
//
// Lifecycle and ownership: the issuing goroutine Gets a cell, stores
// it in the request's pendingReq, and blocks on wait(). Exactly one
// completion path fires per request — whoever removes the id from the
// pending table owns the pendingReq (see pendingTable) — and that
// path fills the cell's result fields and sends the single signal
// token; local failures before registration fill and signal the cell
// synchronously on the issuing goroutine instead (completion.fail).
// Either way the waiter wakes exactly once, copies the results out, and
// returns the cell to the pool. A cell is never shared between two
// in-flight requests: the pool hand-off is the only transfer, and it
// happens strictly after the signal has been consumed.

import (
	"sync"

	"tpspace/internal/tuple"
	"tpspace/internal/xmlcodec"
)

// cellKind selects how a completion fills the cell's result fields —
// mirroring which async callback form the op would have used.
type cellKind int8

const (
	cellWrite cellKind = iota + 1 // ok + error message (write/ack ops)
	cellMatch                     // ok + matched entry into *into
	cellCount                     // ok + count
)

// completionCell is one reusable blocking-op rendezvous.
type completionCell struct {
	sig  chan struct{} // cap 1: the single completion token
	kind cellKind
	ok   bool
	msg  string
	n    int64
	// into, for cellMatch, receives the matched entry via
	// tuple.CloneInto — reusing the destination's field storage, so a
	// caller recycling its result tuple takes without allocating. On a
	// miss the destination is left untouched.
	into *tuple.Tuple
}

var cellPool = sync.Pool{
	New: func() any { return &completionCell{sig: make(chan struct{}, 1)} },
}

func getCell(kind cellKind, into *tuple.Tuple) *completionCell {
	cl := cellPool.Get().(*completionCell)
	cl.kind = kind
	cl.ok = false
	cl.msg = ""
	cl.n = 0
	cl.into = into
	return cl
}

func putCell(cl *completionCell) {
	cl.into = nil
	cellPool.Put(cl)
}

// wait blocks until the request completes.
func (cl *completionCell) wait() { <-cl.sig }

// signal posts the completion token. The exactly-once completion
// guarantee of the pending table means the cap-1 send can never
// block.
func (cl *completionCell) signal() { cl.sig <- struct{}{} }

// complete fills the cell from a decoded response — or a local
// failure record, whose message match and count results drop,
// mirroring their async callback forms — and signals the waiter. r's
// entry may point into pooled decode scratch; CloneInto copies it out
// before the scratch is recycled.
func (cl *completionCell) complete(r *xmlcodec.BinResponse) {
	switch cl.kind {
	case cellWrite:
		cl.ok, cl.msg = r.OK, r.Err
	case cellMatch:
		cl.ok = r.OK
		if r.OK && r.HasEntry && cl.into != nil {
			tuple.CloneInto(cl.into, r.Entry)
		}
	case cellCount:
		cl.ok, cl.n = r.OK, r.Count
	}
	cl.signal()
}
