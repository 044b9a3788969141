package tpwire

import (
	"testing"

	"tpspace/internal/sim"
)

// BenchmarkChainTransaction is one blocking driver operation — PING,
// READ and WRITE in turn, round-robin over four mailbox slaves — made
// the way the poller makes them: a process, a Session, the master's
// operation queue, and every frame's calendar events down the chain
// and back (SELECT and SETADDR frames included, watchdogs fed). It
// must report 0 allocs/op: in steady state a transaction costs its
// events and nothing else.
func BenchmarkChainTransaction(b *testing.B) {
	k := sim.NewKernel(1)
	defer k.Shutdown()
	c := NewChain(k, Config{BitRate: 1_000_000})
	ids := []uint8{1, 2, 3, 4}
	for _, id := range ids {
		c.AddSlave(id).SetDevice(NewMailboxDevice(nil))
	}
	ops := 0
	var failed error
	k.Spawn("bench.driver", 0, func(p *sim.Process) {
		sess := c.Master().NewSession(p)
		for i := 0; failed == nil; i++ {
			id := ids[i%len(ids)]
			var err error
			switch i % 3 {
			case 0:
				_, _, err = sess.Ping(id)
			case 1:
				_, err = sess.ReadReg(id, false, RegOutSeq)
			case 2:
				err = sess.WriteReg(id, false, RegInSrc, uint8(i))
			}
			if err != nil {
				failed = err
			}
			ops++
		}
	})
	runTo := func(target int) {
		for ops < target && failed == nil {
			k.Step()
		}
	}
	runTo(64) // rings and the kernel's event free list reach their depth
	b.ReportAllocs()
	b.ResetTimer()
	runTo(ops + b.N)
	b.StopTimer()
	if failed != nil {
		b.Fatal(failed)
	}
	b.ReportMetric(float64(c.Stats().TXFrames)/float64(ops), "frames/op")
}
