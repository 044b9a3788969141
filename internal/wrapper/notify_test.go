package wrapper

import (
	"sync"
	"testing"
	"time"

	"tpspace/internal/space"
	"tpspace/internal/transport"
	"tpspace/internal/tuple"
	"tpspace/internal/xmlcodec"
)

// notifyRig is a real-runtime stack with a binary client, the only
// plane durable sessions run on.
func notifyRig(t *testing.T, hubOpts ...NotifyHubOption) (*Client, *ServerStack, *NotifyHub) {
	t.Helper()
	sp := space.New(space.NewRealRuntime())
	hub := NewNotifyHub(hubOpts...)
	cliEnd, gwEnd := transport.NewLoopback()
	st := NewServerStack(gwEnd, sp, WithNotifyHub(hub))
	return NewClient(cliEnd, WithBinaryCodec()), st, hub
}

// openSession opens a session and blocks for its id.
func openSession(t *testing.T, c *Client, tmpl tuple.Tuple, fn func(tuple.Tuple)) uint64 {
	t.Helper()
	type res struct {
		sess uint64
		ok   bool
	}
	ch := make(chan res, 1)
	c.NotifySession(tmpl, fn, func(sess uint64, ok bool) { ch <- res{sess, ok} })
	r := <-ch
	if !r.ok {
		t.Fatal("NotifySession failed")
	}
	return r.sess
}

// eventRecorder collects delivered event payloads (the n field of
// job tuples) in arrival order.
type eventRecorder struct {
	mu   sync.Mutex
	seen []int64
}

func (r *eventRecorder) record(tp tuple.Tuple) {
	r.mu.Lock()
	r.seen = append(r.seen, tp.Fields[1].Int)
	r.mu.Unlock()
}

func (r *eventRecorder) snapshot() []int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int64(nil), r.seen...)
}

func TestNotifySessionDelivers(t *testing.T) {
	cli, _, hub := notifyRig(t)
	defer cli.Close()
	defer hub.Close()

	var rec eventRecorder
	sess := openSession(t, cli, anyJob(), rec.record)
	const n = 50
	for i := 1; i <= n; i++ {
		if err := cli.WriteWait(job("ev", int64(i)), space.NoLease); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return cli.NotifyLastSeq(sess) == n })
	got := rec.snapshot()
	if len(got) != n {
		t.Fatalf("delivered %d events, want %d", len(got), n)
	}
	for i, v := range got {
		if v != int64(i+1) {
			t.Fatalf("event %d = %d, out of order", i, v)
		}
	}
	if g := cli.NotifyGaps(sess); g != 0 {
		t.Fatalf("gaps = %d", g)
	}
}

func TestNotifySessionResumeNoLoss(t *testing.T) {
	// The reconnect regression: a session opened on one connection
	// keeps accumulating while the client is away and replays on a
	// new connection's resume — every event delivered exactly once.
	cli, st, hub := notifyRig(t)
	defer hub.Close()
	sp := st.Space

	var rec eventRecorder
	sess := openSession(t, cli, anyJob(), rec.record)

	const before, during, after = 20, 30, 10
	for i := 1; i <= before; i++ {
		if err := cli.WriteWait(job("ev", int64(i)), space.NoLease); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return cli.NotifyLastSeq(sess) == before })

	// Drop the connection mid-run. The cursor survives client-side
	// (an application would persist it); the session and its ring
	// survive server-side in the hub.
	cursor := cli.NotifyLastSeq(sess)
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	for i := before + 1; i <= before+during; i++ {
		if _, err := sp.Write(job("ev", int64(i)), space.NoLease); err != nil {
			t.Fatal(err)
		}
	}

	// New connection, new gateway, same hub: resume from the cursor.
	cliEnd2, gwEnd2 := transport.NewLoopback()
	NewServerStack(gwEnd2, sp, WithNotifyHub(hub))
	cli2 := NewClient(cliEnd2, WithBinaryCodec())
	defer cli2.Close()
	okCh := make(chan bool, 1)
	cli2.ResumeNotifySession(sess, cursor, rec.record, func(ok bool) { okCh <- ok })
	if !<-okCh {
		t.Fatal("resume rejected")
	}
	for i := before + during + 1; i <= before+during+after; i++ {
		if err := cli2.WriteWait(job("ev", int64(i)), space.NoLease); err != nil {
			t.Fatal(err)
		}
	}

	const total = before + during + after
	waitFor(t, func() bool { return cli2.NotifyLastSeq(sess) == total })
	got := rec.snapshot()
	if len(got) != total {
		t.Fatalf("delivered %d events, want %d (lost or duplicated across reconnect)", len(got), total)
	}
	for i, v := range got {
		if v != int64(i+1) {
			t.Fatalf("event %d = %d: order broken across reconnect", i, v)
		}
	}
	if g := cli2.NotifyGaps(sess); g != 0 {
		t.Fatalf("gaps = %d, want 0", g)
	}
}

func TestNotifySessionResumeReplaysInOneFrame(t *testing.T) {
	// The backlog accumulated while detached must come back as one
	// batched frame, not an event-per-frame dribble.
	cli, st, hub := notifyRig(t)
	defer hub.Close()

	var rec eventRecorder
	sess := openSession(t, cli, anyJob(), rec.record)
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	const n = 30
	for i := 1; i <= n; i++ {
		if _, err := st.Space.Write(job("ev", int64(i)), space.NoLease); err != nil {
			t.Fatal(err)
		}
	}

	cliEnd2, gwEnd2 := transport.NewLoopback()
	NewServerStack(gwEnd2, st.Space, WithNotifyHub(hub))
	cli2 := NewClient(cliEnd2, WithBinaryCodec())
	defer cli2.Close()
	okCh := make(chan bool, 1)
	cli2.ResumeNotifySession(sess, 0, rec.record, func(ok bool) { okCh <- ok })
	if !<-okCh {
		t.Fatal("resume rejected")
	}
	waitFor(t, func() bool { return cli2.NotifyLastSeq(sess) == n })
	// Two frames on the new connection: the resume response and one
	// event batch carrying the whole backlog.
	if msgs := cliEnd2.Stats().MsgsReceived; msgs != 2 {
		t.Fatalf("client received %d frames, want 2 (resume ack + one batch)", msgs)
	}
}

func TestNotifySessionWindowOverrunCountsGap(t *testing.T) {
	cli, st, hub := notifyRig(t, WithReplayWindow(4))
	defer hub.Close()

	var rec eventRecorder
	sess := openSession(t, cli, anyJob(), rec.record)
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 1; i <= n; i++ {
		if _, err := st.Space.Write(job("ev", int64(i)), space.NoLease); err != nil {
			t.Fatal(err)
		}
	}

	cliEnd2, gwEnd2 := transport.NewLoopback()
	NewServerStack(gwEnd2, st.Space, WithNotifyHub(hub))
	cli2 := NewClient(cliEnd2, WithBinaryCodec())
	defer cli2.Close()
	okCh := make(chan bool, 1)
	cli2.ResumeNotifySession(sess, 0, rec.record, func(ok bool) { okCh <- ok })
	if !<-okCh {
		t.Fatal("resume rejected")
	}
	waitFor(t, func() bool { return cli2.NotifyLastSeq(sess) == n })
	got := rec.snapshot()
	if len(got) != 4 {
		t.Fatalf("replayed %d events, want the 4-event window", len(got))
	}
	for i, v := range got {
		if v != int64(n-4+i+1) {
			t.Fatalf("replayed event %d = %d, want newest window", i, v)
		}
	}
	if g := cli2.NotifyGaps(sess); g != n-4 {
		t.Fatalf("gaps = %d, want %d", g, n-4)
	}
}

func TestNotifySessionEnd(t *testing.T) {
	cli, _, hub := notifyRig(t)
	defer cli.Close()
	defer hub.Close()

	var rec eventRecorder
	sess := openSession(t, cli, anyJob(), rec.record)
	if hub.Sessions() != 1 {
		t.Fatalf("sessions = %d", hub.Sessions())
	}
	okCh := make(chan bool, 1)
	cli.EndNotifySession(sess, func(ok bool) { okCh <- ok })
	if !<-okCh {
		t.Fatal("end rejected")
	}
	if hub.Sessions() != 0 {
		t.Fatalf("sessions after end = %d", hub.Sessions())
	}
	if err := cli.WriteWait(job("ev", 1), space.NoLease); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if len(rec.snapshot()) != 0 {
		t.Fatal("event delivered after end")
	}
	// Resuming a dead session must be refused.
	cli.ResumeNotifySession(sess, 0, rec.record, func(ok bool) { okCh <- ok })
	if <-okCh {
		t.Fatal("resume of ended session accepted")
	}
}

func TestNotifySessionDuplicateBatchSkipped(t *testing.T) {
	// A replayed frame overlapping the applied cursor must not
	// re-deliver: feed the client a crafted batch straddling lastSeq.
	cliEnd, _ := transport.NewLoopback()
	c := NewClient(cliEnd, WithBinaryCodec())
	defer c.Close()
	var rec eventRecorder
	c.registerSession(7, rec.record, 2) // applied through seq 2

	frame := xmlcodec.AppendEventBatchHeader(nil, 7, 1, 3)
	for i := 1; i <= 3; i++ {
		frame = xmlcodec.AppendEventBatchMember(frame, xmlcodec.EncodeTupleBinary(job("ev", int64(i))))
	}
	c.onEventBatch(frame)
	got := rec.snapshot()
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("applied %v, want just the un-applied event 3", got)
	}
	if c.NotifyLastSeq(7) != 3 {
		t.Fatalf("lastSeq = %d", c.NotifyLastSeq(7))
	}
}

// TestClientCloseFencesSessionApply: Close waits for an event batch
// already being applied, and no batch is applied once it returns, so
// the cursor NotifyLastSeq reads after Close is the one to resume
// from.
func TestClientCloseFencesSessionApply(t *testing.T) {
	cliEnd, _ := transport.NewLoopback()
	c := NewClient(cliEnd, WithBinaryCodec())
	entered, release := make(chan struct{}), make(chan struct{})
	var applied int
	c.registerSession(7, func(tuple.Tuple) {
		applied++
		if applied == 1 {
			close(entered)
			<-release
		}
	}, 0)
	batch := func(seq uint64) []byte {
		frame := xmlcodec.AppendEventBatchHeader(nil, 7, seq, 1)
		return xmlcodec.AppendEventBatchMember(frame, xmlcodec.EncodeTupleBinary(job("ev", int64(seq))))
	}
	go c.onEventBatch(batch(1))
	<-entered
	closed := make(chan struct{})
	go func() { _ = c.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while an event was being applied")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-closed
	if got := c.NotifyLastSeq(7); got != 1 {
		t.Fatalf("cursor after Close = %d, want 1", got)
	}
	c.onEventBatch(batch(2))
	if applied != 1 || c.NotifyLastSeq(7) != 1 {
		t.Fatalf("a batch was applied after Close: %d events, cursor %d", applied, c.NotifyLastSeq(7))
	}
}

func TestNotifySessionPlainNotifyUnchanged(t *testing.T) {
	// The non-durable path must still work alongside the hub.
	cli, _, hub := notifyRig(t)
	defer cli.Close()
	defer hub.Close()
	var rec eventRecorder
	okCh := make(chan bool, 1)
	cli.Notify(anyJob(), rec.record, func(ok bool) { okCh <- ok })
	if !<-okCh {
		t.Fatal("notify failed")
	}
	if err := cli.WriteWait(job("ev", 9), space.NoLease); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(rec.snapshot()) == 1 })
	if rec.snapshot()[0] != 9 {
		t.Fatalf("got %v", rec.snapshot())
	}
}
