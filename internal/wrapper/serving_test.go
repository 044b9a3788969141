package wrapper

import (
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

// TestConcurrentGatewayDispatch runs many closed-loop clients through
// one worker-pool gateway (under -race this also exercises every
// cross-goroutine handoff): every write/take pair must complete and
// the space must come back empty.
func TestConcurrentGatewayDispatch(t *testing.T) {
	cli, sp := realStack(t, []GatewayOption{WithWorkers(4)}, nil)
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
	a, b := transport.NewLoopback()
	NewServerStack(b, sp, WithWorkers(4))
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
