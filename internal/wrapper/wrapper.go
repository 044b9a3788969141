// Package wrapper implements the paper's board-to-space-server stack
// (Figure 4): a client library that speaks XML entries over any
// transport, a gateway standing in for the "Java/socket wrapper" on
// the server host, and an RMI skeleton exposing the SpaceServer —
// so a request travels
//
//	Client --(XML over socket/bus)--> Gateway --(RMI)--> SpaceServer
//
// exactly as in the paper, with each marshalling hop paying its real
// byte cost on its link.
package wrapper

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"tpspace/internal/rmi"
	"tpspace/internal/sim"
	"tpspace/internal/space"
	"tpspace/internal/transport"
	"tpspace/internal/tuple"
	"tpspace/internal/xmlcodec"
)

// SpaceObject is the RMI name the space server is exported under.
const SpaceObject = "SpaceServer"

// RegisterSpace exports a tuplespace on an RMI server, implementing
// every operation of the XML protocol. The server's connection is
// used to push notify events.
//
// Operations are executed at most once per request id: a client that
// resends a request after a timeout or reconnect gets the original
// outcome back (from a bounded cache of completed responses) rather
// than a second execution, and a resend racing the in-flight original
// is answered when the original completes. Ids are unique per client
// connection, which is the granularity RegisterSpace is called at.
//
// The handler holds no lock of its own around space calls: each
// operation routes through the space's template classifier, so on a
// sharded space (space.WithShards) concrete-template traffic from
// concurrent gateways locks only its home shard — requests do not
// serialize on a single store mutex, and only wildcard templates take
// the documented cross-shard path.
func RegisterSpace(srv *rmi.Server, conn transport.Conn, sp *space.Space) {
	d := newDedup(dedupCacheCap)
	srv.Register(SpaceObject, func(method string, body []byte, respond func([]byte, error)) {
		req, err := xmlcodec.UnmarshalRequest(body)
		if err != nil {
			respond(nil, err)
			return
		}
		if req.ID != 0 {
			respond = d.begin(req.ID, respond)
			if respond == nil {
				return // duplicate: answered from cache or parked on the original
			}
		}
		// Every response travels in the codec its request arrived in:
		// binary-protocol clients get binary replies, XML clients XML.
		reply := func(resp xmlcodec.Response) {
			b, err := xmlcodec.MarshalResponseIn(req.Binary, resp)
			respond(b, err)
		}
		switch method {
		case xmlcodec.OpPing:
			reply(xmlcodec.NewResponse(req.ID, true, nil, ""))
		case xmlcodec.OpCount:
			tmpl, err := req.Tuple()
			if err != nil {
				respond(nil, err)
				return
			}
			resp := xmlcodec.NewResponse(req.ID, true, nil, "")
			resp.Count = int64(sp.Count(tmpl))
			reply(resp)
		case xmlcodec.OpWrite:
			t, err := req.Tuple()
			if err != nil {
				respond(nil, err)
				return
			}
			if err := sp.Put(t, req.Lease()); err != nil {
				reply(xmlcodec.NewResponse(req.ID, false, nil, err.Error()))
				return
			}
			reply(xmlcodec.NewResponse(req.ID, true, nil, ""))
		case xmlcodec.OpReadIfExists, xmlcodec.OpTakeIfExists:
			tmpl, err := req.Tuple()
			if err != nil {
				respond(nil, err)
				return
			}
			var got tuple.Tuple
			var ok bool
			if method == xmlcodec.OpReadIfExists {
				got, ok = sp.ReadIfExists(tmpl)
			} else {
				got, ok = sp.TakeIfExists(tmpl)
			}
			if ok {
				reply(xmlcodec.NewResponse(req.ID, true, &got, ""))
			} else {
				reply(xmlcodec.NewResponse(req.ID, false, nil, ""))
			}
		case xmlcodec.OpRead, xmlcodec.OpTake:
			tmpl, err := req.Tuple()
			if err != nil {
				respond(nil, err)
				return
			}
			op := sp.ReadErr
			if method == xmlcodec.OpTake {
				op = sp.TakeErr
			}
			id := req.ID
			op(tmpl, req.Timeout(), func(got tuple.Tuple, err error) {
				switch {
				case err == nil:
					reply(xmlcodec.NewResponse(id, true, &got, ""))
				case errors.Is(err, space.ErrTimeout):
					// A plain miss keeps the historical empty-error shape.
					reply(xmlcodec.NewResponse(id, false, nil, ""))
				default:
					reply(xmlcodec.NewResponse(id, false, nil, err.Error()))
				}
			})
		case xmlcodec.OpNotify:
			tmpl, err := req.Tuple()
			if err != nil {
				respond(nil, err)
				return
			}
			subID := req.ID
			subBinary := req.Binary
			sp.Notify(tmpl, func(t tuple.Tuple) {
				resp := xmlcodec.NewResponse(subID, true, &t, "")
				resp.Event = true
				if b, err := xmlcodec.MarshalResponseIn(subBinary, resp); err == nil {
					_ = rmi.Push(conn, SpaceObject, "event", b)
				}
			})
			reply(xmlcodec.NewResponse(req.ID, true, nil, ""))
		default:
			respond(nil, fmt.Errorf("wrapper: unknown operation %q", method))
		}
	})
}

// Gateway is the Java/socket wrapper of Figure 4: it owns the
// client-facing transport, forwards XML requests to the space server
// through RMI, and relays responses and notify events back.
//
// By default requests are dispatched sequentially on the transport's
// reader goroutine — the deterministic behaviour every simulated
// transport relies on. WithWorkers hands decode and dispatch to a
// bounded per-connection worker pool instead, so one slow request no
// longer head-of-line-blocks the connection (real TCP serving wants
// this; the paper-reproduction paths must not use it).
type Gateway struct {
	client   transport.Conn
	rmi      *rmi.Client
	dispatch *dispatcher
	// sp, when set (NewServerStack), serves binary frames directly on
	// the space — the zero-copy path of backend.go. bd is its
	// at-most-once table.
	sp *space.Space
	// rp caches sp.RoutePrefix() so routeFrame computes the same
	// routing signature from wire bytes that the space computes from
	// decoded tuples, without touching the space per frame.
	rp int
	bd *binDedup
	// hub serves durable notify sessions (notify.go); shared across
	// the gateways of a server process so sessions survive reconnects
	// onto new connections.
	hub *NotifyHub
	// OnError observes protocol failures.
	OnError func(error)
}

// gwConfig carries the GatewayOption knobs.
type gwConfig struct {
	workers    int
	noAffinity bool
	sp         *space.Space
	hub        *NotifyHub
}

// GatewayOption configures a Gateway at construction.
type GatewayOption func(*gwConfig)

// WithWorkers dispatches requests on a pool of n worker goroutines
// instead of the transport reader (n <= 1 keeps the default
// sequential dispatch). Workers own per-shard queues routed by the
// request tuple's home-shard signature (see dispatcher); responses
// already correlate by request id, so relaxed cross-shard ordering is
// protocol-visible but harmless, and at-most-once execution is
// preserved by the server's request-id dedup. Keep the
// simulated/deterministic transports sequential — their outputs must
// stay byte-identical run to run.
func WithWorkers(n int) GatewayOption {
	return func(c *gwConfig) { c.workers = n }
}

// WithoutAffinity replaces the per-shard worker queues with the
// legacy single shared queue (any worker takes the next frame). Kept
// for A/B benchmarks; affinity routing is otherwise strictly better
// on sharded spaces.
func WithoutAffinity() GatewayOption {
	return func(c *gwConfig) { c.noAffinity = true }
}

// withSpace wires the gateway's direct space backend — set by
// NewServerStack, where gateway and space share a process.
func withSpace(sp *space.Space) GatewayOption {
	return func(c *gwConfig) { c.sp = sp }
}

// WithNotifyHub shares a notify-session hub across gateways. A
// server accepting many connections must pass the same hub to every
// per-connection stack — a session opened on one connection is
// resumed from another, and resume only finds sessions in its own
// hub. Stacks built without this option get a private hub.
func WithNotifyHub(h *NotifyHub) GatewayOption {
	return func(c *gwConfig) { c.hub = h }
}

// NewGateway bridges the client-facing connection to an RMI client
// bound to the space server. Notify events pushed by the server are
// forwarded to the client connection.
func NewGateway(client transport.Conn, rc *rmi.Client, opts ...GatewayOption) *Gateway {
	var cfg gwConfig
	for _, o := range opts {
		o(&cfg)
	}
	g := &Gateway{client: client, rmi: rc, sp: cfg.sp, hub: cfg.hub}
	if g.sp != nil {
		g.rp = g.sp.RoutePrefix()
		g.bd = newBinDedup(dedupCacheCap)
		if g.hub == nil {
			g.hub = NewNotifyHub()
		}
	}
	if cfg.workers > 1 {
		route := g.routeFrame
		if cfg.noAffinity {
			route = nil
		}
		g.dispatch = newDispatcher(cfg.workers, g.handle, route)
	}
	rc.OnEvent = func(object, method string, body []byte) {
		if object == SpaceObject && method == "event" {
			if err := g.client.Send(body); err != nil && g.OnError != nil {
				g.OnError(err)
			}
		}
	}
	client.SetOnReceive(g.onRequest)
	return g
}

// routeFrame maps a request frame to its dispatch worker: the home
// shard of the tuple's routing signature, computed straight from the
// wire bytes under the space's route prefix — so all traffic for one
// shard flows through one queue in arrival order. Under the default
// kind routing this homes wildcard templates too (their kind
// signature is concrete even when field values are not). Sig-less
// frames (untyped templates, wildcards inside the routing window,
// pings) spread by request id; anything else (XML, batches)
// round-robins.
func (g *Gateway) routeFrame(b []byte) int {
	if g.sp != nil {
		if rh, ok := xmlcodec.WireRouteSig(b, g.rp); ok {
			return g.sp.ShardOf(rh)
		}
	} else if vh, ok := xmlcodec.WireValueSig(b); ok {
		return int(vh & 0x7FFFFFFF)
	}
	if id, _, ok := xmlcodec.PeekRequest(b); ok {
		return int(id & 0x7FFFFFFF)
	}
	return g.dispatch.nextRR()
}

func (g *Gateway) onRequest(b []byte) {
	if g.dispatch != nil {
		// The transport recycles its receive buffer once this callback
		// returns; the frame crosses to a worker, so copy it into a
		// pooled buffer (the worker releases it after handling).
		buf := transport.GetBuf(len(b))
		buf = append(buf, b...)
		if !g.dispatch.enqueue(buf) {
			transport.PutBuf(buf) // gateway stopped: connection teardown
		}
		return
	}
	g.handle(b)
}

// handle routes one request frame: batch frames fan out to their
// members, single frames to handleOne.
func (g *Gateway) handle(b []byte) {
	if xmlcodec.IsBatchRequest(b) {
		g.handleBatch(b)
		return
	}
	g.handleOne(b, nil)
}

// handleOne serves one single-op request frame. done, when non-nil,
// receives the owned response frame instead of it being sent — the
// batch assembly path. Binary frames take the direct space backend
// when the gateway has one; everything else rides RMI. Malformed
// frames are answered in the codec their magic byte announced (ID 0
// when no id could be parsed) and never kill the session.
func (g *Gateway) handleOne(b []byte, done func([]byte)) {
	if g.sp != nil && xmlcodec.IsBinaryRequest(b) {
		g.serveBinary(b, done)
		return
	}
	if id, op, ok := xmlcodec.PeekRequest(b); ok {
		g.forward(id, op, true, b, done)
		return
	}
	if xmlcodec.IsBinaryFrame(b) {
		// A binary-magic frame that fails the header parse: answer with
		// an ID-0 binary error (mirroring the XML malformed path) so a
		// binary client can decode its own failure.
		_, err := xmlcodec.UnmarshalRequest(b)
		if err == nil {
			err = errors.New("unexpected binary frame")
		}
		if g.OnError != nil {
			g.OnError(err)
		}
		out := transport.GetBuf(256)
		out = xmlcodec.AppendResponseBinary(out, 0, false, false, 0,
			"wrapper: malformed request: "+err.Error(), nil)
		g.deliverBin(out, done)
		return
	}
	req, err := xmlcodec.UnmarshalRequest(b)
	if err != nil {
		// A malformed request must not kill the session: report it to
		// the sender as an error response (ID 0 — the request id, if
		// any, was unparseable) and keep serving.
		if g.OnError != nil {
			g.OnError(err)
		}
		resp := xmlcodec.NewResponse(0, false, nil, "wrapper: malformed request: "+err.Error())
		if rb, merr := xmlcodec.MarshalResponse(resp); merr == nil {
			if done != nil {
				out := transport.GetBuf(len(rb))
				done(append(out, rb...))
			} else if serr := g.client.Send(rb); serr != nil && g.OnError != nil {
				g.OnError(serr)
			}
		}
		return
	}
	g.forward(req.ID, req.Op, req.Binary, b, done)
}

// forward relays the raw request to the space skeleton over RMI and
// sends the response (or a local error response in the request's
// codec) back to the client — or into its batch slot via done.
func (g *Gateway) forward(id uint64, op string, binaryCodec bool, b []byte, done func([]byte)) {
	g.rmi.Call(SpaceObject, op, b, func(respBody []byte, err error) {
		if err != nil {
			resp := xmlcodec.NewResponse(id, false, nil, err.Error())
			respBody, err = xmlcodec.MarshalResponseIn(binaryCodec, resp)
			if err != nil {
				if g.OnError != nil {
					g.OnError(err)
				}
				return
			}
		}
		if done != nil {
			// The RMI body is only valid during this callback; the batch
			// slot needs an owned copy.
			out := transport.GetBuf(len(respBody))
			done(append(out, respBody...))
			return
		}
		if err := g.client.Send(respBody); err != nil && g.OnError != nil {
			g.OnError(err)
		}
	})
}

// NotifyHub exposes the gateway's notify-session hub — a stack built
// without WithNotifyHub can hand its private hub to sibling stacks.
func (g *Gateway) NotifyHub() *NotifyHub { return g.hub }

// Close stops the dispatch workers, if any. The transports are owned
// (and closed) by the caller.
func (g *Gateway) Close() error {
	if g.dispatch != nil {
		g.dispatch.stop()
	}
	return nil
}

// ErrClosed is returned by client operations after Close.
var ErrClosed = errors.New("wrapper: client closed")

// completion is the form a request completes through. Exactly one
// field is set: a completion cell (the blocking conveniences), or the
// caller's callback — wcb (write/ack ops), qcb (match, status
// dropped), mcb (match with status), ccb (ok + count, the cold ops).
// The forms hold the caller's callback (or cell) directly so the hot
// path allocates no adapter closure.
type completion struct {
	cell *completionCell
	wcb  func(ok bool, errMsg string)
	qcb  func(tuple.Tuple, bool)
	mcb  func(tuple.Tuple, bool, string)
	ccb  func(ok bool, n int64)
}

// deliver hands a decoded response to the caller. r.Entry may be
// pooled decode scratch; the caller owns the copy it receives.
func (d completion) deliver(r *xmlcodec.BinResponse) {
	switch {
	case d.cell != nil:
		d.cell.complete(r)
	case d.wcb != nil:
		d.wcb(r.OK, r.Err)
	case d.qcb != nil:
		if r.OK && r.HasEntry {
			d.qcb(r.Entry.Clone(), true)
		} else {
			d.qcb(tuple.Tuple{}, r.OK)
		}
	case d.mcb != nil:
		switch {
		case !r.OK:
			d.mcb(tuple.Tuple{}, false, r.Err)
		case r.HasEntry:
			d.mcb(r.Entry.Clone(), true, "")
		default:
			d.mcb(tuple.Tuple{}, true, "")
		}
	case d.ccb != nil:
		d.ccb(r.OK, r.Count)
	}
}

// fail completes the request with a local error.
func (d completion) fail(msg string) {
	d.deliver(&xmlcodec.BinResponse{Err: msg})
}

// pendingReq is an in-flight request: its completion form plus
// everything a resilient client needs to retransmit it verbatim.
// Completed non-resilient prs are recycled through the pending table's
// stripe freelists (next).
type pendingReq struct {
	done    completion
	bytes   []byte       // marshalled request, resent unchanged (same id)
	pooled  bool         // bytes is a transport pool buffer, released on completion
	budget  sim.Duration // per-attempt response budget (0 = none)
	attempt int
	cancel  func()      // armed deadline or backoff timer, if any
	next    *pendingReq // stripe freelist link
}

// release returns a pooled request frame to the transport pool. Call
// only on completion paths (the request is out of c.pending), so the
// frame cannot be retransmitted afterwards.
func (pr *pendingReq) release() {
	if pr.pooled {
		transport.PutBuf(pr.bytes)
		pr.bytes = nil
		pr.pooled = false
	}
}

// Client is the application-side library (the paper's C++ client): it
// issues tuplespace operations as XML (or, WithBinaryCodec, binary)
// messages over any transport and correlates the responses.
//
// The per-op state is lock-free or striped: request ids come from an
// atomic counter, in-flight requests live in the striped pending
// table (see pendingTable), and the resilience policy is an atomic
// pointer — so concurrent issuing/completing goroutines never
// serialize on a client-wide lock. c.mu only guards the cold state:
// subscriptions, notify sessions, and the closed flag.
type Client struct {
	mu     sync.Mutex
	conn   transport.Conn
	nextID atomic.Uint64
	pend   pendingTable
	subs   map[uint64]func(tuple.Tuple)
	// Durable notify sessions (client_notify.go): live sessions by
	// server-assigned id, plus frames that beat their own open reply
	// to the socket (the server's flusher races finishBin).
	nsess      map[uint64]*clientNotifySession
	nsessEarly map[uint64][][]byte
	res        atomic.Pointer[Resilience]
	binary     bool
	batchOps   int
	bat        *batcher
	closed     bool
}

// ClientOption configures a Client at construction.
type ClientOption func(*Client)

// WithBinaryCodec makes the client marshal its requests in the
// compact binary protocol instead of XML. The server sniffs the codec
// per message and answers in kind, so no handshake is needed and
// clients of both codecs share a server. XML remains the default —
// the verbose encoding is part of the paper's measured workload.
func WithBinaryCodec() ClientOption {
	return func(c *Client) { c.binary = true }
}

// WithBatchOps coalesces up to k outstanding requests into one
// multi-op batch frame: one length prefix on the wire and one batched
// response carrying every member's reply. Requires WithBinaryCodec
// (batch frames are part of the binary protocol); k <= 1 disables
// coalescing. The server answers a batch only after every member
// completes, so do not mix long-blocking takes into a batched
// workload unless head-of-line waiting is acceptable.
func WithBatchOps(k int) ClientOption {
	return func(c *Client) { c.batchOps = k }
}

// NewClient binds a client to a transport connection.
func NewClient(conn transport.Conn, opts ...ClientOption) *Client {
	c := &Client{
		conn: conn,
		subs: make(map[uint64]func(tuple.Tuple)),
	}
	c.pend.init()
	for _, o := range opts {
		o(c)
	}
	if c.binary && c.batchOps > 1 {
		c.bat = newBatcher(c, c.batchOps)
	}
	conn.SetOnReceive(c.onMessage)
	return c
}

func (c *Client) onMessage(b []byte) {
	if xmlcodec.IsEventBatch(b) {
		c.onEventBatch(b)
		return
	}
	if xmlcodec.IsBatchResponse(b) {
		it, err := xmlcodec.NewBatchIter(b)
		if err != nil {
			return
		}
		for it.Len() > 0 {
			m, err := it.Next()
			if err != nil {
				return
			}
			c.onMessage(m)
		}
		return
	}
	st := cliStatePool.Get().(*cliBinState)
	var err error
	if xmlcodec.IsBinaryResponse(b) {
		err = xmlcodec.DecodeResponseBinaryInto(&st.resp, b, st.in)
	} else {
		err = decodeXMLResponse(&st.resp, b)
	}
	if err == nil { // malformed frames are dropped
		c.complete(&st.resp)
	}
	cliStatePool.Put(st)
}

func (c *Client) id() uint64 { return c.nextID.Add(1) }

// Write stores a tuple with the given lease; cb receives success and
// an error message.
func (c *Client) Write(t tuple.Tuple, lease sim.Duration, cb func(ok bool, errMsg string)) {
	c.issue(c.id(), xmlcodec.OpWrite, int64(lease/sim.Millisecond), 0, &t, 0, completion{wcb: cb})
}

// Take removes a matching entry, blocking server-side up to timeout.
func (c *Client) Take(tmpl tuple.Tuple, timeout sim.Duration, cb func(tuple.Tuple, bool)) {
	c.match(xmlcodec.OpTake, &tmpl, timeout, completion{qcb: cb})
}

// Read copies a matching entry, blocking server-side up to timeout.
func (c *Client) Read(tmpl tuple.Tuple, timeout sim.Duration, cb func(tuple.Tuple, bool)) {
	c.match(xmlcodec.OpRead, &tmpl, timeout, completion{qcb: cb})
}

// TakeIfExists removes a matching entry without blocking.
func (c *Client) TakeIfExists(tmpl tuple.Tuple, cb func(tuple.Tuple, bool)) {
	c.match(xmlcodec.OpTakeIfExists, &tmpl, 0, completion{qcb: cb})
}

// ReadIfExists copies a matching entry without blocking.
func (c *Client) ReadIfExists(tmpl tuple.Tuple, cb func(tuple.Tuple, bool)) {
	c.match(xmlcodec.OpReadIfExists, &tmpl, 0, completion{qcb: cb})
}

// match issues a take/read-family op: a template plus the server-side
// blocking budget.
func (c *Client) match(op string, tmpl *tuple.Tuple, timeout sim.Duration, done completion) {
	c.issue(c.id(), op, 0, xmlcodec.TimeoutMsOf(timeout), tmpl, timeout, done)
}

// TakeStatus is Take, with the server's error message exposed: a miss
// or timeout reports ok=false with an empty message, while a failure
// (server crash, protocol error, exhausted retries) carries its cause.
func (c *Client) TakeStatus(tmpl tuple.Tuple, timeout sim.Duration, cb func(tuple.Tuple, bool, string)) {
	c.match(xmlcodec.OpTake, &tmpl, timeout, completion{mcb: cb})
}

// ReadStatus is Read with the server's error message exposed.
func (c *Client) ReadStatus(tmpl tuple.Tuple, timeout sim.Duration, cb func(tuple.Tuple, bool, string)) {
	c.match(xmlcodec.OpRead, &tmpl, timeout, completion{mcb: cb})
}

// Notify subscribes fn to every future write matching the template;
// cb reports whether the subscription was established.
func (c *Client) Notify(tmpl tuple.Tuple, fn func(tuple.Tuple), cb func(ok bool)) {
	id := c.id()
	c.mu.Lock()
	c.subs[id] = fn
	c.mu.Unlock()
	c.issue(id, xmlcodec.OpNotify, 0, 0, &tmpl, 0, completion{ccb: func(ok bool, _ int64) {
		if !ok {
			c.mu.Lock()
			delete(c.subs, id)
			c.mu.Unlock()
		}
		cb(ok)
	}})
}

// Count reports how many stored entries match the template.
func (c *Client) Count(tmpl tuple.Tuple, cb func(n int64, ok bool)) {
	c.issue(c.id(), xmlcodec.OpCount, 0, 0, &tmpl, 0,
		completion{ccb: func(ok bool, n int64) { cb(n, ok) }})
}

// CountWait blocks until the count completes.
func (c *Client) CountWait(tmpl tuple.Tuple) (int64, bool) {
	cl := getCell(cellCount, nil)
	c.issue(c.id(), xmlcodec.OpCount, 0, 0, &tmpl, 0, completion{cell: cl})
	cl.wait()
	n, ok := cl.n, cl.ok
	putCell(cl)
	return n, ok
}

// Ping measures a protocol round trip; cb reports success.
func (c *Client) Ping(cb func(ok bool)) {
	c.issue(c.id(), xmlcodec.OpPing, 0, 0, nil, 0,
		completion{ccb: func(ok bool, _ int64) { cb(ok) }})
}

// Close tears the client down; in-flight callbacks fire with failure.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	bat := c.bat
	c.mu.Unlock()
	if bat != nil {
		bat.stop()
	}
	for _, r := range c.pend.close() {
		if r.pr.cancel != nil {
			r.pr.cancel()
		}
		r.pr.release()
		r.pr.done.fail(ErrClosed.Error())
	}
	return c.conn.Close()
}

//
// Blocking conveniences for wall-clock callers. Each parks on a
// pooled completion cell (cell.go) instead of a per-call channel, so
// the sync op path issues, waits, and completes without allocating.
//

// WriteWait blocks until the write completes.
func (c *Client) WriteWait(t tuple.Tuple, lease sim.Duration) error {
	cl := getCell(cellWrite, nil)
	c.issue(c.id(), xmlcodec.OpWrite, int64(lease/sim.Millisecond), 0, &t, 0, completion{cell: cl})
	cl.wait()
	var err error
	if !cl.ok && cl.msg != "" {
		err = errors.New(cl.msg)
	}
	putCell(cl)
	return err
}

// matchWait issues a blocking match op (take/read) completing into
// *into via the cell path.
func (c *Client) matchWait(op string, into *tuple.Tuple, tmpl tuple.Tuple, timeout sim.Duration) bool {
	cl := getCell(cellMatch, into)
	c.match(op, &tmpl, timeout, completion{cell: cl})
	cl.wait()
	ok := cl.ok
	putCell(cl)
	return ok
}

// TakeWait blocks until a take completes or times out.
func (c *Client) TakeWait(tmpl tuple.Tuple, timeout sim.Duration) (tuple.Tuple, bool) {
	var t tuple.Tuple
	ok := c.TakeWaitInto(&t, tmpl, timeout)
	return t, ok
}

// TakeWaitInto is TakeWait completing into *into, whose field storage
// is reused when capacity allows — a caller recycling one destination
// tuple across a take loop receives entries without allocating. On a
// miss (false) the destination is left untouched.
func (c *Client) TakeWaitInto(into *tuple.Tuple, tmpl tuple.Tuple, timeout sim.Duration) bool {
	return c.matchWait(xmlcodec.OpTake, into, tmpl, timeout)
}

// ReadWait blocks until a read completes or times out.
func (c *Client) ReadWait(tmpl tuple.Tuple, timeout sim.Duration) (tuple.Tuple, bool) {
	var t tuple.Tuple
	ok := c.ReadWaitInto(&t, tmpl, timeout)
	return t, ok
}

// ReadWaitInto is ReadWait completing into *into; see TakeWaitInto.
func (c *Client) ReadWaitInto(into *tuple.Tuple, tmpl tuple.Tuple, timeout sim.Duration) bool {
	return c.matchWait(xmlcodec.OpRead, into, tmpl, timeout)
}

// ServerStack bundles a space, its RMI plumbing and a gateway: the
// whole server host of Figure 4 in one call.
type ServerStack struct {
	Space   *space.Space
	Gateway *Gateway
}

// NewServerStack builds the server side over the given client-facing
// connection: an in-process RMI hop (loopback pair) connects the
// gateway to the space skeleton, mirroring "RMI is still used inside
// the server ... to interface the server with the Java/socket
// wrapper".
func NewServerStack(clientConn transport.Conn, sp *space.Space, opts ...GatewayOption) *ServerStack {
	a, b := transport.NewLoopback()
	srv := rmi.NewServer(a)
	RegisterSpace(srv, a, sp)
	rc := rmi.NewClient(b)
	// The gateway and space share this process: hand the gateway a
	// direct space handle so binary frames skip the RMI hop entirely.
	opts = append(append([]GatewayOption(nil), opts...), withSpace(sp))
	gw := NewGateway(clientConn, rc, opts...)
	return &ServerStack{Space: sp, Gateway: gw}
}

// NewSimServerStack is NewServerStack with the internal RMI hop
// carried over a simulated pipe with the given latency, so the
// intra-host cost appears on the simulation timeline.
func NewSimServerStack(k *sim.Kernel, clientConn transport.Conn, sp *space.Space, rmiLatency sim.Duration) *ServerStack {
	a, b := transport.NewSimPipe(k, rmiLatency)
	srv := rmi.NewServer(a)
	RegisterSpace(srv, a, sp)
	rc := rmi.NewClient(b)
	gw := NewGateway(clientConn, rc)
	return &ServerStack{Space: sp, Gateway: gw}
}
