package tpwire

import (
	"errors"
	"testing"

	"tpspace/internal/frame"
	"tpspace/internal/sim"
)

// TestRetryBudgetExhaustedSurfacesErrTimeout forces a CRC error on
// every frame via the fault hook until the retry budget is exhausted,
// asserts ErrTimeout surfaces to the caller, and then checks the chain
// recovers for the next transaction once the fault clears.
func TestRetryBudgetExhaustedSurfacesErrTimeout(t *testing.T) {
	k, c := testChain(t, 2, Config{Retries: 2})
	m := c.Master()

	corruptAll := true
	c.SetCorruptHook(func(rx bool) bool { return corruptAll })

	var got error
	gotSet := false
	m.WriteReg(1, false, 0x10, 0xAA, func(err error) { got, gotSet = err, true })
	k.Run()

	if !gotSet {
		t.Fatal("operation never completed")
	}
	if !errors.Is(got, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", got)
	}
	st := m.Stats()
	if st.Failures != 1 {
		t.Fatalf("failures = %d, want 1", st.Failures)
	}
	if st.Retries != 2 {
		t.Fatalf("retries = %d, want 2 (budget)", st.Retries)
	}
	// The failing transaction was the leading SELECT: initial attempt
	// plus two retries, all corrupted on TX.
	if c.Stats().CorruptedTX != 3 {
		t.Fatalf("corrupted TX = %d, want 3", c.Stats().CorruptedTX)
	}

	// Fault clears: the very next transaction must succeed end to end.
	corruptAll = false
	var rerr, werr error
	var v uint8
	m.WriteReg(1, false, 0x10, 0xBB, func(err error) { werr = err })
	m.ReadReg(1, false, 0x10, func(b uint8, err error) { v, rerr = b, err })
	k.Run()
	if werr != nil || rerr != nil {
		t.Fatalf("post-fault ops failed: write=%v read=%v", werr, rerr)
	}
	if v != 0xBB {
		t.Fatalf("post-fault read back %#x, want 0xBB", v)
	}
}

// TestCorruptHookDistinguishesRX corrupts only RX replies: the command
// executes on the slave, the reply is lost, and the master recovers by
// retransmitting (duplicate-safe register semantics).
func TestCorruptHookDistinguishesRX(t *testing.T) {
	k, c := testChain(t, 1, Config{Retries: 3})
	m := c.Master()

	dropRX := 0
	c.SetCorruptHook(func(rx bool) bool {
		if rx && dropRX > 0 {
			dropRX--
			return true
		}
		return false
	})

	// Prime addressing so the measured transaction is a single WRITE.
	// Stay inside the watchdog window so the selection persists.
	m.WriteReg(1, false, 0x05, 0x01, func(error) {})
	k.RunUntil(sim.Time(500 * sim.Microsecond))
	base := m.Stats()

	dropRX = 2
	var got error
	m.WriteReg(1, false, 0x05, 0x02, func(err error) { got = err })
	k.RunUntil(sim.Time(1500 * sim.Microsecond))
	if got != nil {
		t.Fatalf("write failed despite retry budget: %v", got)
	}
	st := m.Stats()
	if d := st.Retries - base.Retries; d != 2 {
		t.Fatalf("retries = %d, want 2 (one per dropped reply)", d)
	}
	if c.Stats().CorruptedRX != 2 {
		t.Fatalf("corrupted RX = %d, want 2", c.Stats().CorruptedRX)
	}
	if c.Stats().CorruptedTX != 0 {
		t.Fatal("TX frames corrupted by RX-only hook")
	}
	if dev := c.Slave(1).Device().(*RAMDevice); dev.Mem[0x05] != 0x02 {
		t.Fatalf("mem[5] = %#x, want 0x02", dev.Mem[0x05])
	}
}

// TestSlaveDropAndRejoin forces a dropout: while down the node is
// unreachable (ErrTimeout), and after the drop releases it rejoins
// through the normal reset path and serves traffic again.
func TestSlaveDropAndRejoin(t *testing.T) {
	k, c := testChain(t, 2, Config{Retries: 1})
	m := c.Master()
	s := c.Slave(1)

	const down = 50 * sim.Millisecond
	k.ScheduleName("drop", 0, func() { s.Drop(down) })

	var during error
	duringSet := false
	m.Ping(1, func(_ uint8, _ bool, _ bool, err error) { during, duringSet = err, true })
	k.RunUntil(sim.Time(down - sim.Millisecond))
	if !duringSet {
		t.Fatal("ping during drop never completed")
	}
	if !errors.Is(during, ErrTimeout) {
		t.Fatalf("ping during drop: err = %v, want ErrTimeout", during)
	}
	if !s.InReset() {
		t.Fatal("slave released before drop duration elapsed")
	}
	if s.Stats().Drops != 1 {
		t.Fatalf("drops = %d, want 1", s.Stats().Drops)
	}

	// After release the node must answer again; the other node was
	// reachable throughout.
	var after error
	afterSet := false
	var other error
	k.ScheduleName("rejoin", 5*sim.Millisecond+sim.Millisecond, func() {
		m.Ping(1, func(_ uint8, _ bool, _ bool, err error) { after, afterSet = err, true })
		m.Ping(2, func(_ uint8, _ bool, _ bool, err error) { other = err })
	})
	k.Run()
	if !afterSet || after != nil {
		t.Fatalf("ping after rejoin: set=%v err=%v", afterSet, after)
	}
	if other != nil {
		t.Fatalf("undropped node failed: %v", other)
	}
}

// TestOverlappingDropsGenerationGuard checks that the release of an
// earlier, shorter reset window cannot end a newer, longer drop.
func TestOverlappingDropsGenerationGuard(t *testing.T) {
	k, c := testChain(t, 1, Config{})
	s := c.Slave(1)
	s.Drop(10 * sim.Millisecond)
	s.Drop(100 * sim.Millisecond)
	k.RunUntil(sim.Time(50 * sim.Millisecond))
	if !s.InReset() {
		t.Fatal("stale release from the first drop ended the second")
	}
	k.RunUntil(sim.Time(101 * sim.Millisecond))
	if s.InReset() {
		t.Fatal("second drop never released")
	}
}

// TestMasterIdleReflectsDrain checks the chaos harness's bus-idle
// invariant helper.
func TestMasterIdleReflectsDrain(t *testing.T) {
	k, c := testChain(t, 1, Config{})
	m := c.Master()
	if !m.Idle() {
		t.Fatal("fresh master not idle")
	}
	m.Submit(frame.TX{Cmd: frame.CmdPing}, func(frame.RX, error) {})
	if m.Idle() {
		t.Fatal("master idle with a transaction in flight")
	}
	k.Run()
	if !m.Idle() {
		t.Fatal("master not idle after drain")
	}
}

// TestRetryOfCompletedTransactionIsDropped sets the reply timeout to
// exactly the reply's flight time, so every timeout fires in the same
// instant as — and, scheduled earlier, just before — the reply it was
// waiting for. The timeout schedules a retry, the reply then completes
// the transaction and the master launches the next one; the retry,
// firing last, belongs to a finished transaction and must not put its
// frame back on the wire.
func TestRetryOfCompletedTransactionIsDropped(t *testing.T) {
	// Slave 0 replies hop + proc + turnaround + frame + hop bit
	// periods after the TX frame ends.
	cfg := DefaultConfig()
	cfg.ResponseTimeoutBits = 2*cfg.HopBits + cfg.ProcBits + cfg.TurnaroundBits + cfg.FrameBits()
	k, c := testChain(t, 1, cfg)
	m := c.Master()

	frames := []frame.TX{
		{Cmd: frame.CmdSelect, Data: frame.NodeAddr(1, false)},
		{Cmd: frame.CmdPing},
		{Cmd: frame.CmdPing},
	}
	done := make([]int, len(frames))
	for i, f := range frames {
		i := i
		m.Submit(f, func(_ frame.RX, err error) {
			if err != nil {
				t.Errorf("frame %d: %v", i, err)
			}
			done[i]++
		})
	}
	k.Run()

	for i, n := range done {
		if n != 1 {
			t.Errorf("frame %d completed %d times, want 1", i, n)
		}
	}
	st := m.Stats()
	if st.Timeouts != 3 {
		t.Fatalf("timeouts = %d, want 3 (the scenario no longer makes timeout and reply coincide)", st.Timeouts)
	}
	if st.Frames != 3 || st.Transactions != 3 {
		t.Errorf("frames = %d, transactions = %d, want 3 and 3: a finished transaction was retransmitted", st.Frames, st.Transactions)
	}
	if !m.Idle() {
		t.Error("master not idle after the run")
	}
}
