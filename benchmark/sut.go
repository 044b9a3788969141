package main

// sut.go is the one file of the benchmark that imports from
// internal/: it builds the system under test the way
// cmd/spaceserver/main.go builds it, and wraps every call the ladder
// makes into a layer. The rest of the package sees the program only
// through the aliases and constructors here, so a change that removes
// or renames an internal symbol touches this file alone. README.md
// lists the symbols it depends on; it references none that ROADMAP
// schedules for deletion.

import (
	"fmt"
	"net"
	"runtime"

	"tpspace/internal/core"
	"tpspace/internal/netsim"
	"tpspace/internal/rmi"
	"tpspace/internal/sim"
	"tpspace/internal/space"
	"tpspace/internal/tpwire"
	"tpspace/internal/transport"
	"tpspace/internal/tuple"
	"tpspace/internal/wrapper"
	"tpspace/internal/xmlcodec"
)

type (
	Tuple   = tuple.Tuple
	Space   = space.Space
	Lease   = space.Lease
	Journal = space.Journal
	Client  = wrapper.Client
)

const (
	noLease    = space.NoLease
	simSecond  = sim.Second
	spaceShard = 4
)

// opTimeout bounds every blocking client call; no workload waits
// this long unless the stack lost a request, which then counts as a
// failed op instead of hanging the run.
const opTimeout = 20 * simSecond

// entry builds kind(id:int, seq:int, p:bytes), the shape every
// workload uses. The payload is referenced, not copied: Space.Write
// and the codecs copy what they keep.
func entry(kind string, id, seq int64, p []byte) Tuple {
	return Tuple{Type: kind, Fields: []tuple.Field{
		tuple.Int("id", id), tuple.Int("seq", seq),
		{Name: "p", Kind: tuple.KindBytes, Bytes: p},
	}}
}

// anyOf is the typed wildcard template for a kind.
func anyOf(kind string) Tuple {
	return tuple.New(kind, tuple.AnyInt("id"), tuple.AnyInt("seq"), tuple.AnyBytes("p"))
}

// withID is the template for one id of a kind, any seq and payload.
func withID(kind string, id int64) Tuple {
	return tuple.New(kind, tuple.Int("id", id), tuple.AnyInt("seq"), tuple.AnyBytes("p"))
}

// anyKind matches every entry of the benchmark's shape, whatever its
// kind.
func anyKind() Tuple { return anyOf("") }

func entryID(t Tuple) int64       { return t.Fields[0].Int }
func entrySeq(t Tuple) int64      { return t.Fields[1].Int }
func entryPayload(t Tuple) []byte { return t.Fields[2].Bytes }

func setEntry(t *Tuple, id, seq int64, p []byte) {
	t.Fields[0].Int, t.Fields[1].Int, t.Fields[2].Bytes = id, seq, p
}

// userBytes is what one entry costs in the journal's own tuple
// encoding: the denominator of journal_bytes_per_user_byte.
func userBytes(t Tuple) int { return len(xmlcodec.EncodeTupleBinary(t)) }

// newSpace is the space cmd/spaceserver builds with -shards 4.
func newSpace() *Space {
	return space.New(space.NewRealRuntime(), space.WithShards(spaceShard))
}

// openJournal attaches a file journal to a fresh space.
func openJournal(sp *Space, path string) (*Journal, error) {
	j, err := space.OpenJournal(path)
	if err != nil {
		return nil, err
	}
	sp.SetJournal(j)
	return j, nil
}

// server is the in-process server side: one space, and one
// ServerStack per accepted connection, as spaceserver's accept loop
// builds them.
type server struct {
	sp      *Space
	ln      net.Listener
	stacks  []*wrapper.ServerStack
	tcp     []*transport.TCPConn // both ends of every TCP connection
	clients []*Client
}

func newServer(sp *Space) *server { return &server{sp: sp} }

func (s *server) serve(conn transport.Conn) {
	s.stacks = append(s.stacks, wrapper.NewServerStack(conn, s.sp, wrapper.WithWorkers(runtime.NumCPU())))
}

// dialTCP opens one loopback TCP connection and returns its client.
func (s *server) dialTCP() (*Client, error) {
	if s.ln == nil {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("listen: %w", err)
		}
		s.ln = ln
	}
	cnc, err := net.Dial("tcp", s.ln.Addr().String())
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	snc, err := s.ln.Accept()
	if err != nil {
		cnc.Close()
		return nil, fmt.Errorf("accept: %w", err)
	}
	sc, cc := transport.NewTCPConn(snc), transport.NewTCPConn(cnc)
	s.tcp = append(s.tcp, sc, cc)
	s.serve(sc)
	cli := wrapper.NewClient(cc, wrapper.WithBinaryCodec())
	s.clients = append(s.clients, cli)
	return cli, nil
}

// dialPipe opens one in-process pipe connection.
func (s *server) dialPipe() *Client {
	a, b := transport.NewLoopback()
	s.serve(b)
	cli := wrapper.NewClient(a, wrapper.WithBinaryCodec())
	s.clients = append(s.clients, cli)
	return cli
}

// framesPerWriteBatch is MsgsSent/WriteBatches over every TCP
// endpoint of the server: the writev coalescing factor.
func (s *server) framesPerWriteBatch() (float64, bool) {
	var msgs, batches uint64
	for _, c := range s.tcp {
		st := c.Stats()
		msgs += st.MsgsSent
		batches += st.WriteBatches
	}
	if batches == 0 {
		return 0, false
	}
	return float64(msgs) / float64(batches), true
}

func (s *server) close() {
	for _, c := range s.clients {
		_ = c.Close() // closes the client's connection; nothing is in flight
	}
	for _, st := range s.stacks {
		_ = st.Gateway.Close()
	}
	for _, c := range s.tcp {
		_ = c.Close()
	}
	if s.ln != nil {
		_ = s.ln.Close()
	}
}

//
// Ladder rungs: one closure per public function priced, built here so
// that ladder.go needs no internal import. Each closure performs one
// call and panics on a wrong result — a rung that returns garbage
// must not print a time.
//

// rung is one priced call into a layer.
type rung struct {
	layer, name string
	call        func()
	bytes       int // frame size where the metric table wants one
}

func tupleRungs(e Tuple) []rung {
	tmpl := e.Clone()
	return []rung{
		{layer: "tuple", name: "match_ns", call: func() {
			if !tmpl.Matches(e) {
				panic("tuple: template missed its own entry")
			}
		}},
		{layer: "tuple", name: "route_sig_ns", call: func() {
			if _, ok := e.RouteSig(0); !ok {
				panic("tuple: no route signature for a concrete entry")
			}
		}},
	}
}

func codecRungs(e, e4k Tuple) []rung {
	code, _ := xmlcodec.OpCodeOf(xmlcodec.OpWrite)
	reqFrame := xmlcodec.AppendRequestBinary(nil, 7, code, 0, 0, &e)
	respFrame := xmlcodec.AppendResponseBinary(nil, 7, true, false, 0, "", &e)
	buf := make([]byte, 0, 8192)
	in := xmlcodec.NewInterner()
	var req xmlcodec.BinRequest
	var resp xmlcodec.BinResponse
	xreq := xmlcodec.NewRequest(7, xmlcodec.OpWrite, &e)
	xframe, err := xmlcodec.MarshalRequest(xreq)
	if err != nil {
		panic(err)
	}
	return []rung{
		{layer: "xmlcodec", name: "bin_request_encode_ns", bytes: len(reqFrame), call: func() {
			buf = xmlcodec.AppendRequestBinary(buf[:0], 7, code, 0, 0, &e)
		}},
		{layer: "xmlcodec", name: "bin_request_decode_ns", call: func() {
			if err := xmlcodec.DecodeRequestBinaryInto(&req, reqFrame, in); err != nil {
				panic(err)
			}
		}},
		{layer: "xmlcodec", name: "bin_response_encode_ns", call: func() {
			buf = xmlcodec.AppendResponseBinary(buf[:0], 7, true, false, 0, "", &e)
		}},
		{layer: "xmlcodec", name: "bin_response_decode_ns", call: func() {
			if err := xmlcodec.DecodeResponseBinaryInto(&resp, respFrame, in); err != nil {
				panic(err)
			}
		}},
		{layer: "xmlcodec", name: "bin_roundtrip_ns_4k", call: func() {
			buf = xmlcodec.AppendRequestBinary(buf[:0], 7, code, 0, 0, &e4k)
			if err := xmlcodec.DecodeRequestBinaryInto(&req, buf, in); err != nil {
				panic(err)
			}
		}},
		{layer: "xmlcodec", name: "xml_request_encode_ns", bytes: len(xframe), call: func() {
			if _, err := xmlcodec.MarshalRequest(xreq); err != nil {
				panic(err)
			}
		}},
		{layer: "xmlcodec", name: "xml_request_decode_ns", call: func() {
			if _, err := xmlcodec.UnmarshalRequest(xframe); err != nil {
				panic(err)
			}
		}},
		// Marshal then unmarshal: the allocation count of one XML
		// round trip is read off this rung.
		{layer: "xmlcodec", name: "xml_roundtrip", call: func() {
			b, err := xmlcodec.MarshalRequest(xreq)
			if err != nil {
				panic(err)
			}
			if _, err := xmlcodec.UnmarshalRequest(b); err != nil {
				panic(err)
			}
		}},
	}
}

// pipeFrameRung sends one frame through a LoopbackConn pair.
func pipeFrameRung(frame []byte) rung {
	a, b := transport.NewLoopback()
	got := 0
	b.SetOnReceive(func(p []byte) { got += len(p) })
	return rung{layer: "transport", name: "pipe_frame_ns", call: func() {
		got = 0
		if err := a.Send(frame); err != nil || got != len(frame) {
			panic("transport: pipe frame not delivered")
		}
	}}
}

// tcpEcho is a TCPConn pair over loopback whose far end sends every
// frame straight back.
type tcpEcho struct {
	ln     net.Listener
	near   *transport.TCPConn
	far    *transport.TCPConn
	echoed chan int // length of each frame that came back
}

func newTCPEcho(depth int) (*tcpEcho, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	cnc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("dial: %w", err)
	}
	snc, err := ln.Accept()
	if err != nil {
		cnc.Close()
		ln.Close()
		return nil, fmt.Errorf("accept: %w", err)
	}
	// The buffer holds one token per frame in flight, so the reader
	// goroutine never blocks on the harness.
	e := &tcpEcho{ln: ln, echoed: make(chan int, depth)}
	e.far = transport.NewTCPConn(snc)
	e.far.SetOnReceive(func(p []byte) { _ = e.far.Send(p) }) // a send error surfaces as a missing echo
	e.near = transport.NewTCPConn(cnc)
	e.near.SetOnReceive(func(p []byte) { e.echoed <- len(p) })
	return e, nil
}

func (e *tcpEcho) send(frame []byte) error { return e.near.Send(frame) }

func (e *tcpEcho) close() {
	_ = e.near.Close()
	_ = e.far.Close()
	_ = e.ln.Close()
}

// rmiCallRung prices Client.CallWait to a no-op handler over a
// loopback pair.
func rmiCallRung(body []byte) rung {
	a, b := transport.NewLoopback()
	srv := rmi.NewServer(a)
	srv.Register("bench", func(method string, body []byte, respond func([]byte, error)) {
		respond(nil, nil)
	})
	cli := rmi.NewClient(b)
	return rung{layer: "rmi", name: "call_ns", call: func() {
		if _, err := cli.CallWait("bench", "noop", body); err != nil {
			panic(err)
		}
	}}
}

//
// Simulation side.
//

// simKernelRun schedules and fires n events on a harness-owned
// kernel: `chains` self-rescheduling events with co-prime periods, so
// the queue holds that many entries throughout. It returns
// Kernel.Fired.
func simKernelRun(n uint64, chains int) uint64 {
	k := sim.NewKernel(1)
	for c := 0; c < chains; c++ {
		period := sim.Duration(997 + 2*c)
		var tick func()
		tick = func() {
			if k.Fired() < n {
				k.Schedule(period, tick)
			}
		}
		k.Schedule(period, tick)
	}
	k.Run()
	return k.Fired()
}

// tpwireRun moves `bytes` of payload from slave 1 to slave 4 of a
// harness-owned 4-slave chain through the mailboxes at 1 Mbit/s and
// returns the TX frames the master launched.
func tpwireRun(bytes int) (txFrames uint64, err error) {
	k := sim.NewKernel(1)
	chain := tpwire.NewChain(k, tpwire.Config{BitRate: 1_000_000})
	var boxes [4]*tpwire.MailboxDevice
	for i := range boxes {
		boxes[i] = tpwire.NewMailboxDevice(nil)
		chain.AddSlave(uint8(i + 1)).SetDevice(boxes[i])
	}
	sink := tpwire.NewSink(k)
	sink.Attach(boxes[3])
	poller := tpwire.NewPoller(chain, []uint8{1, 2, 3, 4}, 0)
	poller.Start()
	msg := make([]byte, 100)
	for i := 0; i < bytes/len(msg); i++ {
		msg[0] = byte(i)
		boxes[0].Send(4, msg)
	}
	stop := k.Ticker("bench.watch", chain.Config().Bits(64), func() {
		if sink.Bytes >= uint64(bytes) {
			k.Stop()
		}
	})
	k.RunUntil(sim.Time(600 * sim.Second))
	stop()
	poller.Stop()
	if sink.Bytes != uint64(bytes) {
		return 0, fmt.Errorf("tpwire: sink has %d of %d bytes", sink.Bytes, bytes)
	}
	return chain.Stats().TXFrames, nil
}

// netsimRun drives a CBR source into a sink over one link until
// `packets` have arrived.
func netsimRun(packets int) error {
	k := sim.NewKernel(1)
	n := netsim.New(k)
	a, b := n.NewNode("src"), n.NewNode("dst")
	n.ConnectDuplex(a, b, 1e6, sim.Millisecond, 64)
	sink := netsim.NewSink(k)
	b.Attach(sink)
	cbr := &netsim.CBRSource{Net: n, Src: a, Dst: b, Rate: 100_000, Size: 100}
	cbr.Start()
	k.RunUntil(sim.Time(sim.Seconds(float64(packets) / 1000)))
	cbr.Stop()
	k.Run()
	if sink.Packets != uint64(packets) {
		return fmt.Errorf("netsim: sink has %d of %d packets", sink.Packets, packets)
	}
	return nil
}

// simCall is one of the five core.Run* calls of a sim-estimate pass.
type simCall struct {
	name   string // golden file stem and span name
	layer  string
	cells  int
	output string  // what tpbench prints for the same call
	simS   float64 // simulated seconds: the sum of the cells' end times
}

// simResults carries the exact simulated figures a pass yields.
type simResults struct {
	table4ErrPct      float64
	failoverRecoverMs float64
	detectMs          float64
	ackedPerSimS      float64
	table3Scale       float64
	payloadBps        float64
}

// paperTable4 is Table 4 of the paper in seconds, [CBR 0, 0.3, 1
// B/s][1-wire, 2-wire]; 0 stands for the cell printed "Out of Time".
var paperTable4 = [3][2]float64{{140, 116}, {151, 122}, {0, 129}}

// simCalls returns the five calls of a pass in the order tpbench
// would run them, with the default worker count.
func simCalls(res *simResults) []func() simCall {
	impactS := func(cells [][]core.ImpactResult) (n int, s float64) {
		for _, row := range cells {
			for _, c := range row {
				n++
				s += c.Total.Seconds()
			}
		}
		return n, s
	}
	return []func() simCall{
		func() simCall {
			t4 := core.RunTable4(core.DefaultTable4Config())
			n, s := impactS(t4.Cells)
			// Mean relative error over the five cells the paper gives a
			// number for; a cell that is out of time on one side only
			// counts as 100 %.
			var sum float64
			for i, row := range paperTable4 {
				for j, want := range row {
					c := t4.Cells[i][j]
					switch {
					case want == 0 && !c.OutOfTime(), want != 0 && c.OutOfTime():
						sum += 1
					case want != 0:
						d := c.Total.Seconds() - want
						if d < 0 {
							d = -d
						}
						sum += d / want
					}
				}
			}
			res.table4ErrPct = 100 * sum / 5
			return simCall{name: "table4", layer: "core", cells: n, output: t4.Format(), simS: s}
		},
		func() simCall {
			sw := core.RunSweep(core.DefaultSweepConfig())
			n, s := impactS(sw.Cells)
			return simCall{name: "sweep", layer: "core", cells: n, output: sw.CSV(), simS: s}
		},
		func() simCall {
			p := core.RunPlan(core.PlanConfig{Requirements: core.DefaultRequirements()})
			var s float64
			for _, o := range p.Explored {
				s += o.Completion.Seconds()
			}
			return simCall{name: "plan", layer: "core", cells: len(p.Explored), output: p.Format(), simS: s}
		},
		func() simCall {
			v := core.RunValidation(core.DefaultValidationConfig())
			var s float64
			for _, r := range v.Rows {
				s += r.Simulated.Seconds()
			}
			res.table3Scale = v.MeanScaling
			res.payloadBps = v.ThroughputBps
			return simCall{name: "table3", layer: "core", cells: len(v.Rows), output: core.FormatTable3(v), simS: s}
		},
		func() simCall {
			g := core.RunClusterChaosGrid(core.DefaultClusterChaosGridConfig())
			var n int
			var s float64
			for _, row := range g.Cells {
				for _, c := range row {
					n++
					s += c.Elapsed.Seconds()
				}
			}
			// Fault rate 0, three nodes: the forced primary crash alone.
			c := g.Cells[0][0]
			res.failoverRecoverMs = c.RecoverDelay.Seconds() * 1e3
			res.detectMs = c.DetectDelay.Seconds() * 1e3
			res.ackedPerSimS = c.AckedPerSec
			return simCall{name: "cluster", layer: "cluster", cells: n, output: g.Format(), simS: s}
		},
	}
}
