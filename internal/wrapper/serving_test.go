package wrapper

import (
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"tpspace/internal/sim"
	"tpspace/internal/space"
	"tpspace/internal/transport"
	"tpspace/internal/tuple"
	"tpspace/internal/xmlcodec"
)

// realStack builds client <-> gateway <-> space over an in-process
// loopback with a wall-clock space runtime.
func realStack(t *testing.T, gwOpts []GatewayOption, cliOpts []ClientOption) (*Client, *space.Space) {
	t.Helper()
	sp := space.New(space.NewRealRuntime(), space.WithShards(2))
	a, b := transport.NewLoopback()
	NewServerStack(b, sp, gwOpts...)
	cli := NewClient(a, cliOpts...)
	t.Cleanup(func() { cli.Close() })
	return cli, sp
}

// tcpConns returns both ends of one 127.0.0.1 TCP connection: the
// transport with a reader goroutine of its own, the only one on which
// WithWorkers starts the dispatcher. Both ends close at cleanup.
func tcpConns(t *testing.T) (cli, srv *transport.TCPConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cnc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	snc, err := ln.Accept()
	if err != nil {
		cnc.Close()
		t.Fatal(err)
	}
	cli, srv = transport.NewTCPConn(cnc), transport.NewTCPConn(snc)
	t.Cleanup(func() { cli.Close(); srv.Close() })
	return cli, srv
}

// tcpServerStack is NewServerStack over the server end of a TCP
// connection, failing the test unless a dispatcher serves it when
// workers are asked for: a test of dispatch.go must reach it.
func tcpServerStack(t *testing.T, sp *space.Space, opts ...GatewayOption) (*transport.TCPConn, *ServerStack) {
	t.Helper()
	cli, srv := tcpConns(t)
	st := NewServerStack(srv, sp, opts...)
	var cfg gwConfig
	for _, o := range opts {
		o(&cfg)
	}
	if (cfg.workers > 1) != (st.Gateway.dispatch != nil) {
		t.Fatalf("workers=%d over TCP: dispatcher running = %v", cfg.workers, st.Gateway.dispatch != nil)
	}
	return cli, st
}

// TestConcurrentGatewayDispatch runs many closed-loop clients through
// one worker-pool gateway (under -race this also exercises every
// cross-goroutine handoff): every write/take pair must complete and
// the space must come back empty.
func TestConcurrentGatewayDispatch(t *testing.T) {
	sp := space.New(space.NewRealRuntime(), space.WithShards(2))
	conn, st := tcpServerStack(t, sp, WithWorkers(4))
	cli := NewClient(conn)
	defer st.Gateway.Close()
	defer cli.Close()
	const goroutines, pairs = 16, 20
	timeout := sim.DurationOf(30 * time.Second)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < pairs; i++ {
				tp := tuple.New("cw", tuple.Int("g", int64(g)), tuple.Int("i", int64(i)))
				if err := cli.WriteWait(tp, space.NoLease); err != nil {
					t.Errorf("write g%d i%d: %v", g, i, err)
					return
				}
				if _, ok := cli.TakeWait(tp, timeout); !ok {
					t.Errorf("take g%d i%d missed", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if sp.Size() != 0 {
		t.Fatalf("space size = %d after balanced write/take pairs", sp.Size())
	}
}

// TestConcurrentDispatchDedup retransmits a completed request id
// through a worker-pool gateway: the duplicate must be answered from
// the dedup cache, not executed again.
func TestConcurrentDispatchDedup(t *testing.T) {
	sp := space.New(space.NewRealRuntime())
	a, st := tcpServerStack(t, sp, WithWorkers(4))
	defer st.Gateway.Close()
	resps := make(chan xmlcodec.Response, 4)
	a.SetOnReceive(func(p []byte) {
		r, err := xmlcodec.UnmarshalResponse(p)
		if err != nil {
			t.Errorf("response decode: %v", err)
			return
		}
		resps <- r
	})
	tp := tuple.New("dup", tuple.Int("n", 1))
	raw, err := xmlcodec.MarshalRequest(xmlcodec.NewRequest(7, xmlcodec.OpWrite, &tp))
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt < 2; attempt++ {
		if err := a.Send(raw); err != nil {
			t.Fatal(err)
		}
		select {
		case r := <-resps:
			if r.ID != 7 || !r.OK {
				t.Fatalf("attempt %d: response %+v", attempt, r)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("attempt %d: no response", attempt)
		}
	}
	if sp.Size() != 1 {
		t.Fatalf("space size = %d, want 1 (duplicate executed)", sp.Size())
	}
}

// TestLoopbackWorkersServeInline: a loopback pipe runs the gateway on
// each sender's goroutine, so a gateway built WithWorkers over one
// starts no dispatcher (and no goroutine at all) and still serves
// concurrent clients, including a take parked by one client and woken
// by another's write on the writer's goroutine.
func TestLoopbackWorkersServeInline(t *testing.T) {
	sp := space.New(space.NewRealRuntime(), space.WithShards(4))
	const clients, pairs = 16, 25
	before := runtime.NumGoroutine()
	clis := make([]*Client, clients)
	gws := make([]*Gateway, clients)
	for i := range clis {
		a, b := transport.NewLoopback()
		gws[i] = NewServerStack(b, sp, WithWorkers(4)).Gateway
		if gws[i].dispatch != nil {
			t.Fatal("dispatcher started on a loopback connection")
		}
		clis[i] = NewClient(a, WithBinaryCodec())
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("building %d loopback stacks started %d goroutines", clients, after-before)
	}
	timeout := sim.DurationOf(30 * time.Second)
	var wg sync.WaitGroup
	for i := range clis {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cli, peer := clis[i], clis[(i+1)%clients]
			for j := 0; j < pairs; j++ {
				// Half the takes park before the write they wait for is
				// sent from the neighbouring client's connection.
				tp := tuple.New("inl", tuple.Int("c", int64(i)), tuple.Int("j", int64(j)))
				got := make(chan bool, 1)
				if j%2 == 0 {
					cli.Take(tp, timeout, func(_ tuple.Tuple, ok bool) { got <- ok })
					if err := peer.WriteWait(tp, space.NoLease); err != nil {
						t.Errorf("client %d write %d: %v", i, j, err)
						return
					}
				} else {
					if err := peer.WriteWait(tp, space.NoLease); err != nil {
						t.Errorf("client %d write %d: %v", i, j, err)
						return
					}
					cli.Take(tp, timeout, func(_ tuple.Tuple, ok bool) { got <- ok })
				}
				if !<-got {
					t.Errorf("client %d take %d missed", i, j)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i := range clis {
		_ = clis[i].Close()
		_ = gws[i].Close()
	}
	if sp.Size() != 0 {
		t.Fatalf("space size = %d after balanced write/take pairs", sp.Size())
	}
}

// TestStackCloseLeavesNoGoroutines builds the benchmark's server
// shape — one space, a WithWorkers stack per connection — over both
// transports, leaves a take parked and eight notify registrations
// open, then closes clients, gateways and connections in that order.
// Every Close must return promptly and every goroutine the stacks
// started must be gone afterwards.
func TestStackCloseLeavesNoGoroutines(t *testing.T) {
	for _, tr := range []string{"pipe", "tcp"} {
		t.Run(tr, func(t *testing.T) {
			before := runtime.NumGoroutine()
			sp := space.New(space.NewRealRuntime(), space.WithShards(4))
			var clis []*Client
			var gws []*Gateway
			var conns []transport.Conn
			dial := func() *Client {
				var cc, sc transport.Conn
				if tr == "tcp" {
					cc, sc = tcpConns(t)
					conns = append(conns, cc, sc)
				} else {
					cc, sc = transport.NewLoopback()
				}
				gws = append(gws, NewServerStack(sc, sp, WithWorkers(4)).Gateway)
				cli := NewClient(cc, WithBinaryCodec())
				clis = append(clis, cli)
				return cli
			}
			taker, watcher := dial(), dial()
			never := tuple.New("never", tuple.AnyInt("n"))
			taker.Take(never, sim.DurationOf(20*time.Second), func(tuple.Tuple, bool) {})
			// A count of the same kind routes to the take's dispatch
			// queue and is served after it, so once it returns the take
			// is parked (on the pipe it is parked when Take returns).
			if n, ok := taker.CountWait(never); !ok || n != 0 {
				t.Fatalf("count = %d, %v", n, ok)
			}
			acks := make(chan bool, 8)
			for i := 0; i < 8; i++ {
				watcher.Notify(tuple.New("ev", tuple.AnyInt("n")), func(tuple.Tuple) {},
					func(ok bool) { acks <- ok })
			}
			for i := 0; i < 8; i++ {
				if !<-acks {
					t.Fatal("notify registration refused")
				}
			}

			closeBy := func(what string, fn func() error) {
				t.Helper()
				done := make(chan struct{})
				go func() { _ = fn(); close(done) }()
				select {
				case <-done:
				case <-time.After(5 * time.Second):
					t.Fatalf("%s.Close did not return within 5s", what)
				}
			}
			for _, c := range clis {
				closeBy("Client", c.Close)
			}
			for _, g := range gws {
				closeBy("Gateway", g.Close)
			}
			for _, c := range conns {
				closeBy("Conn", c.Close)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("%d goroutines left running after close (%d before the stacks)", n-before, before)
			}
		})
	}
}

// TestBinaryCodecNotify checks the push path replies in the
// subscription's codec.
func TestBinaryCodecNotify(t *testing.T) {
	cli, _ := realStack(t, nil, []ClientOption{WithBinaryCodec()})
	events := make(chan tuple.Tuple, 1)
	subbed := make(chan bool, 1)
	cli.Notify(tuple.New("ev", tuple.AnyInt("n")),
		func(tp tuple.Tuple) { events <- tp },
		func(ok bool) { subbed <- ok })
	select {
	case ok := <-subbed:
		if !ok {
			t.Fatal("subscribe failed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("subscribe timed out")
	}
	if err := cli.WriteWait(tuple.New("ev", tuple.Int("n", 9)), space.NoLease); err != nil {
		t.Fatal(err)
	}
	select {
	case tp := <-events:
		if tp.Fields[0].Int != 9 {
			t.Fatalf("event %v", tp)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("event never delivered")
	}
}

// TestMixedCodecsOneConnection interleaves XML and binary requests on
// the same connection: each response must come back in its request's
// codec.
func TestMixedCodecsOneConnection(t *testing.T) {
	sp := space.New(space.NewRealRuntime())
	a, b := transport.NewLoopback()
	NewServerStack(b, sp)
	type tagged struct {
		r xmlcodec.Response
	}
	resps := make(chan tagged, 4)
	a.SetOnReceive(func(p []byte) {
		r, err := xmlcodec.UnmarshalResponse(p)
		if err != nil {
			t.Errorf("decode: %v", err)
			return
		}
		resps <- tagged{r}
	})
	xmlTp := tuple.New("mix", tuple.Int("n", 1))
	xmlReq, err := xmlcodec.MarshalRequest(xmlcodec.NewRequest(1, xmlcodec.OpWrite, &xmlTp))
	if err != nil {
		t.Fatal(err)
	}
	binTp := tuple.New("mix", tuple.Int("n", 2))
	binReq, err := xmlcodec.MarshalRequestBinary(xmlcodec.NewRequest(2, xmlcodec.OpWrite, &binTp))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(xmlReq); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(binReq); err != nil {
		t.Fatal(err)
	}
	byID := map[uint64]xmlcodec.Response{}
	for len(byID) < 2 {
		select {
		case tg := <-resps:
			byID[tg.r.ID] = tg.r
		case <-time.After(5 * time.Second):
			t.Fatalf("got %d/2 responses", len(byID))
		}
	}
	if r := byID[1]; !r.OK || r.Binary {
		t.Fatalf("xml request answered %+v", r)
	}
	if r := byID[2]; !r.OK || !r.Binary {
		t.Fatalf("binary request answered %+v", r)
	}
	if sp.Size() != 2 {
		t.Fatalf("space size = %d", sp.Size())
	}
}
