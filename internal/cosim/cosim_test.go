package cosim

import (
	"bytes"
	"math/rand"
	"testing"

	"tpspace/internal/sim"
	"tpspace/internal/transport"
)

func TestRingFraming(t *testing.T) {
	r := NewRing(64)
	if !r.Push([]byte("alpha")) || !r.Push([]byte("beta")) {
		t.Fatal("push failed")
	}
	a, ok := r.Pop()
	if !ok || string(a) != "alpha" {
		t.Fatalf("pop 1: %q %v", a, ok)
	}
	b, ok := r.Pop()
	if !ok || string(b) != "beta" {
		t.Fatalf("pop 2: %q %v", b, ok)
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("pop on empty succeeded")
	}
}

func TestRingWrapAround(t *testing.T) {
	r := NewRing(32)
	// Push/pop repeatedly so the cursors wrap several times.
	for i := 0; i < 50; i++ {
		msg := []byte{byte(i), byte(i + 1), byte(i + 2)}
		if !r.Push(msg) {
			t.Fatalf("push %d failed", i)
		}
		got, ok := r.Pop()
		if !ok || !bytes.Equal(got, msg) {
			t.Fatalf("iteration %d: %v %v", i, got, ok)
		}
	}
}

func TestRingOverflowRefused(t *testing.T) {
	r := NewRing(16)
	if !r.Push(make([]byte, 10)) {
		t.Fatal("first push failed")
	}
	if r.Push(make([]byte, 10)) {
		t.Fatal("overflow push accepted")
	}
	if r.Len() != 14 {
		t.Fatalf("len = %d after refused push", r.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustPush did not panic on overflow")
		}
	}()
	r.MustPush(make([]byte, 10))
}

func TestRingDoorbell(t *testing.T) {
	r := NewRing(64)
	rings := 0
	r.SetOnData(func() { rings++ })
	r.Push([]byte("x"))
	r.Push([]byte("y"))
	if rings != 2 {
		t.Fatalf("doorbell rang %d times", rings)
	}
}

// TestRingMatchesReferenceFIFO drives a ring and a reference FIFO with
// the same random pushes and pops. The ring must hand back the same
// messages and refuse a push exactly when Cap-Len < 4+len(msg), the
// byte where a ring allocated at full capacity refuses it, while its
// buffer starts empty and grows on demand, including while the stored
// bytes wrap around the end of the buffer.
func TestRingMatchesReferenceFIFO(t *testing.T) {
	wrappedGrows, refused := 0, 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 8 + rng.Intn(4096)
		r := NewRing(capacity)
		if len(r.buf) != 0 {
			t.Fatalf("seed %d: a fresh ring holds a %d-byte buffer, want none", seed, len(r.buf))
		}
		var want [][]byte
		stored := 0
		for op := 0; op < 2000; op++ {
			if rng.Intn(2) == 0 {
				got, ok := r.Pop()
				if len(want) == 0 {
					if ok {
						t.Fatalf("seed %d op %d: pop on empty ring gave %d bytes", seed, op, len(got))
					}
					continue
				}
				if !ok || !bytes.Equal(got, want[0]) {
					t.Fatalf("seed %d op %d: pop gave %d bytes (ok=%v), want %d", seed, op, len(got), ok, len(want[0]))
				}
				want = want[1:]
				stored -= 4 + len(got)
			} else {
				n := rng.Intn(capacity/8 + 1)
				if rng.Intn(8) == 0 {
					// Aim at the overflow point: a frame that just
					// fits or one byte too many.
					n = max(capacity-stored-4+rng.Intn(2), 0)
				}
				msg := make([]byte, n)
				rng.Read(msg)
				fits := capacity-stored >= 4+n
				wrapped := r.head+r.size > len(r.buf)
				bufLen := len(r.buf)
				if got := r.Push(msg); got != fits {
					t.Fatalf("seed %d op %d: Push(%d bytes) = %v with %d of %d stored, want %v",
						seed, op, n, got, stored, capacity, fits)
				}
				if !fits {
					refused++
					continue
				}
				if wrapped && len(r.buf) != bufLen {
					wrappedGrows++
				}
				want = append(want, msg)
				stored += 4 + n
			}
			if r.Len() != stored || r.Free() != capacity-stored || r.Cap() != capacity {
				t.Fatalf("seed %d op %d: Len/Free/Cap = %d/%d/%d, want %d/%d/%d",
					seed, op, r.Len(), r.Free(), r.Cap(), stored, capacity-stored, capacity)
			}
			if len(r.buf) > capacity {
				t.Fatalf("seed %d op %d: buffer grew to %d past capacity %d", seed, op, len(r.buf), capacity)
			}
		}
	}
	if wrappedGrows == 0 || refused == 0 {
		t.Fatalf("property run missed a case: %d growths while wrapped, %d refused pushes", wrappedGrows, refused)
	}
	t.Logf("%d growths while wrapped, %d refused pushes", wrappedGrows, refused)
}

func TestRSPEncodeDecode(t *testing.T) {
	pkt := RSPEncode([]byte("m10,4"))
	if pkt[0] != '$' || pkt[len(pkt)-3] != '#' {
		t.Fatalf("framing wrong: %q", pkt)
	}
	got, err := RSPDecode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "m10,4" {
		t.Fatalf("payload %q", got)
	}
	// Corrupt one byte: checksum must catch it.
	bad := append([]byte(nil), pkt...)
	bad[2] ^= 0x01
	if _, err := RSPDecode(bad); err == nil {
		t.Fatal("corrupted packet accepted")
	}
	if _, err := RSPDecode([]byte("$x#")); err == nil {
		t.Fatal("truncated packet accepted")
	}
}

func TestRSPStubMemoryAndRegs(t *testing.T) {
	target := NewRSPTarget(256)
	stub := NewRSPStub(target)
	cli := &RSPClient{Exchange: func(pkt []byte) ([]byte, error) {
		cmd, err := RSPDecode(pkt)
		if err != nil {
			return nil, err
		}
		return RSPEncode(stub.Handle(cmd)), nil
	}}

	if err := cli.WriteMem(0x10, []byte{0xDE, 0xAD, 0xBE, 0xEF}); err != nil {
		t.Fatal(err)
	}
	got, err := cli.ReadMem(0x10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{0xDE, 0xAD, 0xBE, 0xEF}) {
		t.Fatalf("mem read back %x", got)
	}
	st, err := cli.Status()
	if err != nil || st != "S05" {
		t.Fatalf("status %q %v", st, err)
	}
	if err := cli.Step(); err != nil {
		t.Fatal(err)
	}
	if err := cli.Continue(); err != nil {
		t.Fatal(err)
	}
	if target.Steps != 1 || target.Continues != 1 || !target.Running {
		t.Fatalf("run control: %+v", target)
	}
	// Out-of-range access errors.
	if _, err := cli.ReadMem(0x1000, 4); err == nil {
		t.Fatal("OOB read accepted")
	}
	if err := cli.WriteMem(0x1000, []byte{1}); err == nil {
		t.Fatal("OOB write accepted")
	}
	if stub.Handled == 0 {
		t.Fatal("stub counted nothing")
	}
}

func TestRSPRegisterFile(t *testing.T) {
	target := NewRSPTarget(16)
	stub := NewRSPStub(target)
	target.Regs[0] = 0x12345678
	g := stub.Handle([]byte("g"))
	if string(g[:8]) != "78563412" {
		t.Fatalf("g reply %s", g)
	}
	// Write all registers to a pattern via G.
	var payload []byte
	payload = append(payload, []byte("g")...)
	_ = payload
	hexRegs := ""
	for i := 0; i < 16; i++ {
		hexRegs += "01000000"
	}
	if r := stub.Handle([]byte("G" + hexRegs)); string(r) != "OK" {
		t.Fatalf("G reply %s", r)
	}
	if target.Regs[7] != 1 {
		t.Fatalf("regs not written: %x", target.Regs)
	}
	if r := stub.Handle([]byte("Gzz")); string(r) != "E01" {
		t.Fatalf("bad G accepted: %s", r)
	}
}

func TestBridgeAddsCalibratedLatency(t *testing.T) {
	k := sim.NewKernel(1)
	a, b := transport.NewSimPipe(k, 0)
	bridge := NewBridge(k, a, 10*sim.Millisecond, sim.Millisecond)
	var deliveredAt sim.Time
	b.SetOnReceive(func(p []byte) { deliveredAt = k.Now() })
	payload := make([]byte, 5)
	if err := bridge.Send(payload); err != nil {
		t.Fatal(err)
	}
	k.Run()
	// 10 ms per message + 5 ms per-byte.
	if deliveredAt != sim.Time(15*sim.Millisecond) {
		t.Fatalf("delivered at %v, want 15ms", deliveredAt)
	}
	// Reverse direction pays the same toll.
	var backAt sim.Time
	bridge.SetOnReceive(func(p []byte) { backAt = k.Now() })
	start := k.Now()
	b.Send(make([]byte, 10))
	k.Run()
	if backAt.Sub(start) != 20*sim.Millisecond {
		t.Fatalf("reverse latency %v, want 20ms", backAt.Sub(start))
	}
	st := bridge.Stats()
	if st.MsgsOut != 1 || st.MsgsIn != 1 || st.BytesOut != 5 || st.BytesIn != 10 {
		t.Fatalf("stats %+v", st)
	}
}

func TestBridgePreservesOrderAndPayload(t *testing.T) {
	k := sim.NewKernel(1)
	a, b := transport.NewSimPipe(k, sim.Millisecond)
	bridge := NewBridge(k, a, sim.Millisecond, 0)
	var got [][]byte
	b.SetOnReceive(func(p []byte) { got = append(got, p) })
	for i := byte(0); i < 5; i++ {
		bridge.Send([]byte{i, i + 1})
	}
	k.Run()
	if len(got) != 5 {
		t.Fatalf("delivered %d", len(got))
	}
	for i, p := range got {
		if p[0] != byte(i) {
			t.Fatalf("order broken: %v", got)
		}
	}
}

func TestBridgeClose(t *testing.T) {
	k := sim.NewKernel(1)
	a, _ := transport.NewSimPipe(k, 0)
	bridge := NewBridge(k, a, 0, 0)
	bridge.Close()
	if err := bridge.Send([]byte("x")); err != transport.ErrClosed {
		t.Fatalf("send after close: %v", err)
	}
}
