package wrapper

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"tpspace/internal/rmi"
	"tpspace/internal/sim"
	"tpspace/internal/space"
	"tpspace/internal/transport"
	"tpspace/internal/tuple"
)

// TestRetransmitCompletesExactlyOnce is the resilience regression for
// the contention-free completion plane: with a resender goroutine
// hammering Resend while concurrent writers issue requests over the
// binary path, every request's callback must fire exactly once and the
// space must execute each write exactly once — retransmits are
// absorbed by the server's dedup table and duplicate responses are
// dropped by the striped pending table. Run under -race this also
// checks the Resend snapshot against completion/recycling races.
func TestRetransmitCompletesExactlyOnce(t *testing.T) {
	sp := space.New(space.NewRealRuntime(), space.WithShards(4))
	a, st := tcpServerStack(t, sp, WithWorkers(2))
	cli := NewClient(a, WithBinaryCodec())
	// Real-clock resilience with no per-attempt deadline: requests are
	// only ever retransmitted by the explicit Resend hammer below.
	cli.SetResilience(&Resilience{Timer: rmi.RealTimer(), Attempts: 3})

	const goroutines = 4
	const opsPer = 200
	const total = goroutines * opsPer

	var fired [total]atomic.Int32
	var completed atomic.Int64

	stop := make(chan struct{})
	var hammer sync.WaitGroup
	hammer.Add(1)
	go func() {
		defer hammer.Done()
		for {
			select {
			case <-stop:
				return
			default:
				cli.Resend()
				runtime.Gosched()
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				idx := g*opsPer + i
				tup := tuple.New("xo",
					tuple.Int("g", int64(g)), tuple.Int("i", int64(i)))
				cli.Write(tup, space.NoLease, func(ok bool, errMsg string) {
					if !ok {
						t.Errorf("write %d failed: %s", idx, errMsg)
					}
					fired[idx].Add(1)
					completed.Add(1)
				})
			}
		}(g)
	}
	wg.Wait()
	waitFor(t, func() bool { return completed.Load() >= total })
	close(stop)
	hammer.Wait()

	for i := range fired {
		if n := fired[i].Load(); n != 1 {
			t.Fatalf("op %d completed %d times, want exactly once", i, n)
		}
	}
	if w := sp.Stats().Writes; w != total {
		t.Fatalf("space executed %d writes for %d unique requests — retransmits were not deduplicated", w, total)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	_ = st.Gateway.Close()
}

//
// Contention regression benches. Each pairs the current mechanism with
// an in-binary replica of the path it replaced, so a `go test -bench
// -benchmem` run shows the before/after on the same machine and
// check.sh can gate the new path's allocs/op.
//

// BenchmarkSyncClientOpCells is the closed-loop sync client op over a
// loopback binary stack — write/take pairs through the pooled
// completion cells. The check.sh alloc gate holds this at <=1
// alloc/op.
func BenchmarkSyncClientOpCells(b *testing.B) {
	sp := space.New(space.NewRealRuntime(), space.WithShards(4))
	a, bEnd := transport.NewLoopback()
	st := NewServerStack(bEnd, sp)
	cli := NewClient(a, WithBinaryCodec())

	tup := tuple.New("sc", tuple.Int("i", int64(0)))
	var got tuple.Tuple
	timeout := sim.DurationOf(5e9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tup.Fields[0].Int = int64(i / 2)
		if i%2 == 0 {
			if err := cli.WriteWait(tup, space.NoLease); err != nil {
				b.Fatal(err)
			}
		} else if !cli.TakeWaitInto(&got, tup, timeout) {
			b.Fatal("take missed its own write")
		}
	}
	b.StopTimer()
	_ = cli.Close()
	_ = st.Gateway.Close()
}

// BenchmarkSyncClientOpChannelBaseline replicates the pre-cell sync
// wrappers: a fresh buffered channel plus adapter closure per op over
// the same stack. The delta against BenchmarkSyncClientOpCells is the
// per-op cost the pooled cells removed.
func BenchmarkSyncClientOpChannelBaseline(b *testing.B) {
	sp := space.New(space.NewRealRuntime(), space.WithShards(4))
	a, bEnd := transport.NewLoopback()
	st := NewServerStack(bEnd, sp)
	cli := NewClient(a, WithBinaryCodec())

	tup := tuple.New("sc", tuple.Int("i", int64(0)))
	timeout := sim.DurationOf(5e9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tup.Fields[0].Int = int64(i / 2)
		if i%2 == 0 {
			done := make(chan error, 1)
			cli.Write(tup, space.NoLease, func(ok bool, msg string) {
				if ok {
					done <- nil
				} else {
					done <- errors.New(msg)
				}
			})
			if err := <-done; err != nil {
				b.Fatal(err)
			}
		} else {
			done := make(chan bool, 1)
			cli.Take(tup, timeout, func(_ tuple.Tuple, ok bool) { done <- ok })
			if !<-done {
				b.Fatal("take missed its own write")
			}
		}
	}
	b.StopTimer()
	_ = cli.Close()
	_ = st.Gateway.Close()
}

// singleLockPending replicates the pre-striping pending table: one
// mutex in front of one map, no freelist. Kept in the test binary as
// the contention baseline for BenchmarkPendingTableStriped.
type singleLockPending struct {
	mu sync.Mutex
	m  map[uint64]*pendingReq
}

func (t *singleLockPending) register(id uint64, pr *pendingReq) {
	t.mu.Lock()
	t.m[id] = pr
	t.mu.Unlock()
}

func (t *singleLockPending) take(id uint64) *pendingReq {
	t.mu.Lock()
	pr := t.m[id]
	if pr != nil {
		delete(t.m, id)
	}
	t.mu.Unlock()
	return pr
}

// BenchmarkPendingTableStriped measures one register/take cycle on the
// striped pending table under RunParallel — the request-bookkeeping
// hot path of every client op.
func BenchmarkPendingTableStriped(b *testing.B) {
	var t pendingTable
	t.init()
	var seq atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			id := seq.Add(1)
			pr := t.getPR(id)
			if !t.register(id, pr) {
				panic("register on open table failed")
			}
			if t.take(id) != pr {
				panic("take returned wrong request")
			}
			t.putPR(id, pr)
		}
	})
}

// BenchmarkPendingSingleLockBaseline is the same cycle on the old
// single-lock map (with a matching per-cycle pendingReq allocation,
// which the old path also paid).
func BenchmarkPendingSingleLockBaseline(b *testing.B) {
	t := singleLockPending{m: make(map[uint64]*pendingReq)}
	var seq atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			id := seq.Add(1)
			t.register(id, &pendingReq{})
			if t.take(id) == nil {
				panic("take returned nil")
			}
		}
	})
}
