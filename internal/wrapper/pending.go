package wrapper

import "sync"

// pendingStripes is the stripe count of the client's pending-request
// table. Power of two so the stripe index is a mask of the request
// id; ids are sequential, so consecutive requests land on distinct
// stripes and concurrent registration/completion almost never meet on
// one lock.
const pendingStripes = 16

// pendingTable is the striped replacement for the former single
// mutex-guarded pending map: requests key by id into one of
// pendingStripes independent (lock, map, freelist) triples.
//
// Striping invariants:
//
//   - A request id lives its whole life in one stripe (the index is a
//     pure function of the id), so registration, retransmission
//     checks, completion, and freelist recycling of one request all
//     serialize on that stripe's lock — the per-request linearization
//     the old global lock provided, without cross-request contention.
//   - Completion is the removal: whoever deletes the id from its
//     stripe (response handler, retry-exhaustion, Close drain) owns
//     the pendingReq afterwards and fires its callback exactly once.
//     Every other path re-checks get(id) == pr under the stripe lock
//     and backs off if the request is gone (or replaced — ids are
//     never reused, so pointer identity is enough).
//   - close() marks every stripe closed under its lock; register
//     observes the flag under the same lock, so no registration can
//     slip in behind the Close drain and strand a waiter.
type pendingTable struct {
	stripes [pendingStripes]pendingStripe
}

type pendingStripe struct {
	mu     sync.Mutex
	m      map[uint64]*pendingReq
	free   *pendingReq // recycled pendingReqs (non-resilient clients only)
	closed bool
	// Pad each stripe to its own cache line (the struct above is
	// ~40 bytes on 64-bit) so stripe locks don't false-share.
	_ [24]byte
}

func (t *pendingTable) init() {
	for i := range t.stripes {
		t.stripes[i].m = make(map[uint64]*pendingReq)
	}
}

func (t *pendingTable) stripe(id uint64) *pendingStripe {
	return &t.stripes[id&(pendingStripes-1)]
}

// getPR pops a recycled pendingReq from id's stripe freelist (or
// allocates). Separate from register so the caller can fill the
// fields without holding the stripe lock.
func (t *pendingTable) getPR(id uint64) *pendingReq {
	s := t.stripe(id)
	s.mu.Lock()
	pr := s.free
	if pr != nil {
		s.free = pr.next
		s.mu.Unlock()
		pr.next = nil
		return pr
	}
	s.mu.Unlock()
	return &pendingReq{}
}

// putPR recycles a completed pendingReq onto id's stripe freelist.
// Only prs created without resilience are recycled — retry timers and
// Resend never reference those after completion.
func (t *pendingTable) putPR(id uint64, pr *pendingReq) {
	*pr = pendingReq{}
	s := t.stripe(id)
	s.mu.Lock()
	pr.next = s.free
	s.free = pr
	s.mu.Unlock()
}

// register files pr under id. It reports false when the client is
// closed (the caller fails the op; nothing was registered).
func (t *pendingTable) register(id uint64, pr *pendingReq) bool {
	s := t.stripe(id)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	s.m[id] = pr
	s.mu.Unlock()
	return true
}

// take removes and returns the request registered under id (nil when
// already completed). The caller owns pr and must fire its callback.
func (t *pendingTable) take(id uint64) *pendingReq {
	s := t.stripe(id)
	s.mu.Lock()
	pr := s.m[id]
	if pr != nil {
		delete(s.m, id)
	}
	s.mu.Unlock()
	return pr
}

// bumpAttempt increments pr's attempt counter iff id is still
// registered as pr — the transmission paths' entry guard. Counting
// under the stripe lock orders the write against a completion
// recycling pr (which can only happen after the frame is sent).
func (t *pendingTable) bumpAttempt(id uint64, pr *pendingReq) bool {
	s := t.stripe(id)
	s.mu.Lock()
	ok := s.m[id] == pr
	if ok {
		pr.attempt++
	}
	s.mu.Unlock()
	return ok
}

// removeIf deletes id if it is still registered as pr, reporting
// whether this caller won the removal (and with it, callback
// ownership).
func (t *pendingTable) removeIf(id uint64, pr *pendingReq) bool {
	s := t.stripe(id)
	s.mu.Lock()
	won := s.m[id] == pr
	if won {
		delete(s.m, id)
	}
	s.mu.Unlock()
	return won
}

// snapshot appends every in-flight (id, pr) pair to dst — the Resend
// path. The snapshot is taken stripe by stripe; requests completing
// concurrently may or may not appear, which Resend tolerates (a
// resent completed id is absorbed by the server's dedup).
func (t *pendingTable) snapshot(dst []idReq) []idReq {
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		for id, pr := range s.m {
			dst = append(dst, idReq{id, pr})
		}
		s.mu.Unlock()
	}
	return dst
}

// close marks every stripe closed and returns the drained in-flight
// requests for the caller to fail. Freelists are dropped with the
// stripe maps.
func (t *pendingTable) close() []idReq {
	var all []idReq
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		s.closed = true
		for id, pr := range s.m {
			all = append(all, idReq{id, pr})
		}
		s.m = make(map[uint64]*pendingReq)
		s.free = nil
		s.mu.Unlock()
	}
	return all
}

// idReq pairs a request id with its pendingReq for drain/resend
// snapshots.
type idReq struct {
	id uint64
	pr *pendingReq
}
