package wrapper

// Client half of durable notify sessions (see notify.go for the
// server). A session is a subscription the server remembers across
// connections: NotifySession opens one and returns its id,
// ResumeNotifySession re-attaches after a reconnect (on the same or a
// brand-new Client) from the last applied event sequence, and
// EndNotifySession tears it down. Events arrive as 0xB5 batch frames;
// the client applies them in sequence order, silently dropping
// replayed duplicates (sequence already applied) and counting
// replay-window overruns as gaps it can report instead of losing
// events invisibly.
//
// Sessions are part of the binary protocol: the client must be built
// with WithBinaryCodec, and the serving side must be a direct-backend
// stack (NewServerStack).

import (
	"sync/atomic"

	"tpspace/internal/tuple"
	"tpspace/internal/xmlcodec"
)

// nsessEarlyCap bounds how many event frames are buffered for a
// session whose open reply has not yet been processed.
const nsessEarlyCap = 16

// clientNotifySession tracks one durable subscription client-side.
// lastSeq and gaps are atomics: events apply on the transport receive
// goroutine while the accessors are for the application's.
type clientNotifySession struct {
	fn      func(tuple.Tuple)
	lastSeq atomic.Uint64
	gaps    atomic.Uint64
}

// NotifySession opens a durable subscription to tmpl: fn receives
// every matching write, cb the server-assigned session id. Unlike
// Notify, the subscription survives the connection — keep the id
// (and NotifyLastSeq's cursor) to resume it elsewhere. Requires
// WithBinaryCodec.
func (c *Client) NotifySession(tmpl tuple.Tuple, fn func(tuple.Tuple), cb func(sess uint64, ok bool)) {
	if !c.binary {
		cb(0, false)
		return
	}
	c.issue(c.id(), xmlcodec.OpNotifySession, 0, 0, &tmpl, 0, completion{ccb: func(ok bool, n int64) {
		if !ok {
			cb(0, false)
			return
		}
		sess := uint64(n)
		early := c.registerSession(sess, fn, 0)
		// Frames that raced the open reply apply now, in arrival order.
		for _, b := range early {
			c.onEventBatch(b)
		}
		cb(sess, true)
	}})
}

// ResumeNotifySession re-attaches a session — typically on a new
// Client after a reconnect. lastSeq is the cursor from the previous
// attachment (NotifyLastSeq, or a value the application persisted);
// retained events beyond it are replayed to fn, evicted ones are
// counted as gaps. cb reports whether the server still had the
// session.
func (c *Client) ResumeNotifySession(sess, lastSeq uint64, fn func(tuple.Tuple), cb func(ok bool)) {
	if !c.binary {
		cb(false)
		return
	}
	// Register before issuing: replayed frames may beat the resume
	// reply back, and must find the session.
	c.registerSession(sess, fn, lastSeq)
	c.issue(c.id(), xmlcodec.OpNotifyResume, int64(sess), int64(lastSeq), nil, 0, completion{ccb: func(ok bool, _ int64) {
		if !ok {
			c.dropSession(sess)
		}
		cb(ok)
	}})
}

// EndNotifySession tears a session down on both sides.
func (c *Client) EndNotifySession(sess uint64, cb func(ok bool)) {
	if !c.binary {
		cb(false)
		return
	}
	c.dropSession(sess)
	c.issue(c.id(), xmlcodec.OpNotifyEnd, int64(sess), 0, nil, 0,
		completion{ccb: func(ok bool, _ int64) { cb(ok) }})
}

// NotifyLastSeq reports the last event sequence applied for a session
// — the cursor to pass to ResumeNotifySession.
func (c *Client) NotifyLastSeq(sess uint64) uint64 {
	c.mu.Lock()
	s := c.nsess[sess]
	c.mu.Unlock()
	if s == nil {
		return 0
	}
	return s.lastSeq.Load()
}

// NotifyGaps reports how many events a session lost to replay-window
// overruns (slow consumption or a too-long disconnect). Zero means
// every matching write since open was delivered exactly once.
func (c *Client) NotifyGaps(sess uint64) uint64 {
	c.mu.Lock()
	s := c.nsess[sess]
	c.mu.Unlock()
	if s == nil {
		return 0
	}
	return s.gaps.Load()
}

// registerSession installs the session handler and hands back any
// event frames buffered before registration.
func (c *Client) registerSession(sess uint64, fn func(tuple.Tuple), lastSeq uint64) [][]byte {
	s := &clientNotifySession{fn: fn}
	s.lastSeq.Store(lastSeq)
	c.mu.Lock()
	if c.nsess == nil {
		c.nsess = make(map[uint64]*clientNotifySession)
	}
	c.nsess[sess] = s
	early := c.nsessEarly[sess]
	delete(c.nsessEarly, sess)
	c.mu.Unlock()
	return early
}

func (c *Client) dropSession(sess uint64) {
	c.mu.Lock()
	delete(c.nsess, sess)
	delete(c.nsessEarly, sess)
	c.mu.Unlock()
}

// onEventBatch applies one 0xB5 frame: duplicates (already-applied
// sequences, from a resume replay) are skipped, a jump past
// lastSeq+1 is counted as a gap, and each fresh event is decoded and
// handed to the session callback in sequence order.
func (c *Client) onEventBatch(b []byte) {
	it, err := xmlcodec.NewEventBatchIter(b)
	if err != nil {
		return
	}
	c.mu.Lock()
	s := c.nsess[it.Session]
	if s == nil {
		// The open reply has not been processed yet (the server's
		// flusher can outrun its response write): buffer a copy for
		// NotifySession to apply on registration. Frames for truly
		// unknown sessions age out when the map entry is dropped.
		if len(c.nsessEarly[it.Session]) < nsessEarlyCap {
			if c.nsessEarly == nil {
				c.nsessEarly = make(map[uint64][][]byte)
			}
			cp := append([]byte(nil), b...)
			c.nsessEarly[it.Session] = append(c.nsessEarly[it.Session], cp)
		}
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()

	seq := it.FirstSeq
	last := s.lastSeq.Load()
	for it.Len() > 0 {
		m, err := it.Next()
		if err != nil {
			break
		}
		if seq <= last {
			seq++ // resume replay overlap: already applied
			continue
		}
		if seq > last+1 {
			s.gaps.Add(seq - last - 1)
		}
		if t, err := xmlcodec.DecodeTupleBinary(m); err == nil {
			s.fn(t)
		}
		last = seq
		s.lastSeq.Store(last)
		seq++
	}
}
