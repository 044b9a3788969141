package wrapper

// The client's codec adapters and its one issue/complete pipeline.
// The codec decides only how request bytes are encoded (encodeRequest)
// and how response bytes are decoded into the neutral
// xmlcodec.BinResponse record (decodeXMLResponse, or
// xmlcodec.DecodeResponseBinaryInto straight into pooled scratch);
// everything between — pending-table filing, retransmission, timer
// cancel, frame release, delivery to the caller's completion form,
// pendingReq recycling — exists once, for both codecs. The entry tuple
// is cloned only at the public-callback boundary, where the caller
// takes ownership. WithBatchOps adds client-side coalescing:
// outstanding request frames accumulate into one multi-op batch frame
// (one length-prefix on the wire, one batched response back).

import (
	"errors"
	"sync"

	"tpspace/internal/sim"
	"tpspace/internal/transport"
	"tpspace/internal/tuple"
	"tpspace/internal/xmlcodec"
)

// cliBinState is the client's pooled response-decode scratch (the
// mirror of the gateway's binState). Pooled because transports may
// deliver responses concurrently (loopback peers send from their own
// goroutines).
type cliBinState struct {
	resp xmlcodec.BinResponse
	in   *xmlcodec.Interner
}

var cliStatePool = sync.Pool{
	New: func() any { return &cliBinState{in: xmlcodec.NewInterner()} },
}

// encodeRequest marshals one operation in the client's codec. Binary
// frames are appended straight into a pooled size-class buffer (no
// intermediate xmlcodec.Request); XML frames are the paper's wire form.
func (c *Client) encodeRequest(id uint64, op string, leaseMs, timeoutMs int64, entry *tuple.Tuple) ([]byte, error) {
	if !c.binary {
		req := xmlcodec.NewRequest(id, op, entry)
		req.LeaseMs, req.TimeoutMs = leaseMs, timeoutMs
		return xmlcodec.MarshalRequest(req)
	}
	code, ok := xmlcodec.OpCodeOf(op)
	if !ok {
		return nil, errors.New("wrapper: unknown operation " + op)
	}
	return xmlcodec.AppendRequestBinary(transport.GetBuf(96), id, code, leaseMs, timeoutMs, entry), nil
}

// decodeXMLResponse is the XML codec's decode adapter. A response that
// claims OK but carries an undecodable entry is a failure, not an
// empty success.
func decodeXMLResponse(r *xmlcodec.BinResponse, b []byte) error {
	x, err := xmlcodec.UnmarshalResponse(b)
	if err != nil {
		return err
	}
	// Field by field: r.Entry is pooled scratch the binary decoder reuses.
	r.ID, r.OK, r.Event, r.Count, r.Err, r.HasEntry = x.ID, x.OK, x.Event, x.Count, x.Err, false
	if x.Entry == nil {
		return nil
	}
	if t, err := x.Tuple(); err == nil {
		r.HasEntry, r.Entry = true, t
	} else if x.OK {
		r.OK, r.Err = false, err.Error()
	}
	return nil
}

// issue marshals and sends one operation, completing through done.
// timeout is the server-side blocking budget the request carries,
// granted on top of the per-attempt deadline when resilience is
// enabled. A binary request frame lives in a pooled buffer released
// when the call completes — except under resilience, where Resend may
// retransmit the bytes at any time and the frame stays
// garbage-collected. Local failures complete done synchronously.
func (c *Client) issue(id uint64, op string, leaseMs, timeoutMs int64, entry *tuple.Tuple, timeout sim.Duration, done completion) {
	b, err := c.encodeRequest(id, op, leaseMs, timeoutMs, entry)
	if err != nil {
		done.fail(err.Error())
		return
	}
	res := c.res.Load()
	pr := c.pend.getPR(id)
	pr.done = done
	pr.bytes = b
	pr.pooled = c.binary && res == nil
	if res != nil && res.Deadline > 0 {
		pr.budget = res.Deadline + timeout
	}
	if !c.pend.register(id, pr) {
		pr.release()
		done.fail(ErrClosed.Error())
		return
	}
	c.attempt(id, pr)
}

// complete routes one decoded response: an event to its subscription,
// anything else to the pending request it answers. r may point into
// pooled decode scratch; deliver copies what the caller keeps.
func (c *Client) complete(r *xmlcodec.BinResponse) {
	if r.Event {
		c.mu.Lock()
		fn := c.subs[r.ID]
		c.mu.Unlock()
		if fn != nil && r.HasEntry {
			fn(r.Entry.Clone())
		}
		return
	}
	pr := c.pend.take(r.ID)
	if pr == nil {
		return
	}
	if pr.cancel != nil {
		pr.cancel()
	}
	// Only prs created without resilience are recycled — retry timers
	// and Resend never reference those after completion.
	reuse := pr.pooled
	pr.release()
	pr.done.deliver(r)
	if reuse {
		c.pend.putPR(r.ID, pr)
	}
}

// transmit sends one request frame, through the batcher when
// coalescing is enabled.
func (c *Client) transmit(b []byte) error {
	if c.bat != nil {
		return c.bat.enqueue(b)
	}
	return c.conn.Send(b)
}

// batcher coalesces outstanding request frames into multi-op batch
// frames. A frame is copied into the accumulating batch at enqueue
// time (no ownership transfer); a full batch (k members) is sent
// inline by the enqueuer, a partial one by the flusher goroutine,
// which runs as soon as the scheduler gets to it — so under load
// batches fill before the flusher wakes, and a lone request is only
// delayed by one scheduling pass, never parked behind a timer.
type batcher struct {
	c      *Client
	mu     sync.Mutex
	k      int
	buf    []byte // accumulating batch frame (header + members so far)
	n      int
	kick   chan struct{}
	closed bool
}

func newBatcher(c *Client, k int) *batcher {
	bt := &batcher{c: c, k: k, kick: make(chan struct{}, 1)}
	go bt.flusher()
	return bt
}

func (bt *batcher) enqueue(frame []byte) error {
	bt.mu.Lock()
	if bt.closed {
		bt.mu.Unlock()
		return ErrClosed
	}
	if bt.buf == nil {
		bt.buf = xmlcodec.AppendBatchHeader(transport.GetBuf(64+len(frame)), false, 0)
	}
	bt.buf = xmlcodec.AppendBatchMember(bt.buf, frame)
	bt.n++
	var out []byte
	if bt.n >= bt.k {
		out = bt.take()
	}
	bt.mu.Unlock()
	if out != nil {
		return bt.send(out)
	}
	select {
	case bt.kick <- struct{}{}:
	default:
	}
	return nil
}

// take detaches the accumulated batch, patching the member count into
// the reserved header. Caller holds bt.mu.
func (bt *batcher) take() []byte {
	out := bt.buf
	if out == nil {
		return nil
	}
	xmlcodec.PatchBatchCount(out, bt.n)
	bt.buf, bt.n = nil, 0
	return out
}

func (bt *batcher) send(out []byte) error {
	err := bt.c.conn.Send(out)
	transport.PutBuf(out)
	return err
}

func (bt *batcher) flusher() {
	for range bt.kick {
		bt.mu.Lock()
		out := bt.take()
		bt.mu.Unlock()
		if out != nil {
			_ = bt.send(out)
		}
	}
}

// stop shuts the batcher down; whatever is queued is dropped (Close
// fails the pending requests anyway).
func (bt *batcher) stop() {
	bt.mu.Lock()
	if !bt.closed {
		bt.closed = true
		if bt.buf != nil {
			transport.PutBuf(bt.buf)
			bt.buf, bt.n = nil, 0
		}
		close(bt.kick)
	}
	bt.mu.Unlock()
}
