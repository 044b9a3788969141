package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// runConfig is what one run of one workload is given. Everything a
// workload generates derives from seed; the program under test sees
// only the generated tuples.
type runConfig struct {
	seed    uint64
	clients int           // C: load-generating goroutines, and at most as many connections
	window  time.Duration // timed part
	warmup  time.Duration // untimed lead-in of the same loop
	outDir  string        // journal files and trace.jsonl go here

	wireResident  int // resident entries under the wire workloads
	spaceResident int // resident entries under space-mix-500k
	journalWrites int // fixed phase-A writes of journal-recover; takes are 3/4 of it
	setupReps     int // set-up repetitions where set-up is cheap; the median is reported
}

// A workload builds instances; one instance is one set-up of the
// system under test, driven once.
type workload struct {
	name string
	why  string
	// unit names the work unit behind ops_per_s.
	unit string
	// latency is "op" or "unit" where the workload reports latency
	// percentiles under that name, "" where it reports none.
	latency string
	// fixedWork marks a workload that performs a fixed count of ops
	// instead of filling the window; it has no warm-up.
	fixedWork bool
	// setupReps overrides runConfig.setupReps (0 = use it).
	setupReps int
	setup     func(cfg *runConfig) (instance, error)
}

type instance interface {
	// drive runs the load against a meter whose timed part starts
	// at m.t0, and returns once every goroutine it started has ended.
	drive(m *meter, tr *tracer) error
	// verify checks the final state (Size, delivery counts) and
	// returns one line per violated expectation.
	verify() []string
	// native returns the workload's own end-to-end metrics.
	native() map[string]float64
	close()
}

const (
	payloadLen = 64
	poolSize   = 1024
	depth32    = 32
)

// payloadPool is the seeded payload set of a run: every entry's bytes
// are one of these, picked by a function of its id, so any returned
// entry can be checked against what was written without keeping it.
type payloadPool [poolSize][]byte

func newPayloadPool(seed uint64, n int) *payloadPool {
	rng := splitmix(seed)
	var p payloadPool
	buf := make([]byte, poolSize*n)
	for i := 0; i < len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], rng.next())
	}
	for i := range p {
		p[i] = buf[i*n : (i+1)*n : (i+1)*n]
	}
	return &p
}

// of returns the payload of entry (id, seq).
func (p *payloadPool) of(id, seq int64) []byte {
	return p[mix64(uint64(id)*0x9E3779B1+uint64(seq))%poolSize]
}

func kindNames(prefix string, n int) []string {
	k := make([]string, n)
	for i := range k {
		k[i] = fmt.Sprintf("%s%02d", prefix, i)
	}
	return k
}

// preload writes n resident entries spread over the given kinds.
func preload(sp *Space, pool *payloadPool, kinds []string, n int) error {
	t := entry("", 0, 0, nil)
	for i := 0; i < n; i++ {
		id := int64(i)
		t.Type = kinds[i%len(kinds)]
		setEntry(&t, id, residentSeq(id), pool.of(id, residentSeq(id)))
		if _, err := sp.Write(t, noLease); err != nil {
			return fmt.Errorf("preload entry %d: %w", i, err)
		}
	}
	return nil
}

func residentSeq(id int64) int64 { return int64(mix64(uint64(id)) >> 40) }

// spawn runs body(0..n-1) on n goroutines and waits for them.
func spawn(n int, body func(g int)) {
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			body(g)
		}(g)
	}
	wg.Wait()
}

func sizeCheck(sp *Space, want int) []string {
	if got := sp.Size(); got != want {
		return []string{fmt.Sprintf("final Size() = %d, want %d", got, want)}
	}
	return nil
}

//
// tcp-rtt, tcp-window32, pipe-window32
//

type wireInst struct {
	cfg     *runConfig
	srv     *server
	clients []*Client
	pool    *payloadPool
	depth   int
	tcp     bool
	extra   map[string]float64
}

func setupWire(tcp bool, depth int) func(cfg *runConfig) (instance, error) {
	return func(cfg *runConfig) (instance, error) {
		w := &wireInst{cfg: cfg, pool: newPayloadPool(cfg.seed, payloadLen), depth: depth, tcp: tcp}
		sp := newSpace()
		if err := preload(sp, w.pool, kindNames("res", 16), cfg.wireResident); err != nil {
			return nil, err
		}
		w.srv = newServer(sp)
		for c := 0; c < cfg.clients; c++ {
			if !tcp {
				w.clients = append(w.clients, w.srv.dialPipe())
				continue
			}
			cli, err := w.srv.dialTCP()
			if err != nil {
				w.srv.close()
				return nil, err
			}
			w.clients = append(w.clients, cli)
		}
		return w, nil
	}
}

func (w *wireInst) drive(m *meter, tr *tracer) error {
	nmWrite, nmTake := tr.name("wrapper", "client.write"), tr.name("wrapper", "client.take")
	lanes := make([]*lane, len(w.clients))
	for c := range lanes {
		lanes[c] = m.lane(tr)
	}
	if w.depth == 1 {
		spawn(len(w.clients), func(c int) { w.rttLoop(w.clients[c], int64(c), lanes[c], nmWrite, nmTake) })
	} else {
		spawn(len(w.clients), func(c int) { w.windowLoop(w.clients[c], int64(c), lanes[c], nmWrite, nmTake) })
	}
	if w.tcp {
		if f, ok := w.srv.framesPerWriteBatch(); ok {
			w.extra = map[string]float64{"tcp_frames_per_write_batch": f}
		}
	}
	return nil
}

// rttLoop keeps one op in flight: write the client's own tuple, take
// it back, next seq. The loop only stops before a write, so every
// write is followed by its take and the space ends at its resident
// size.
func (w *wireInst) rttLoop(cli *Client, id int64, l *lane, nmWrite, nmTake spanName) {
	end := l.m.end()
	tup := entry("rtt", id, 0, nil)
	var got Tuple
	for seq := int64(0); ; seq++ {
		t0 := now()
		if t0 >= end {
			return
		}
		p := w.pool.of(id, seq)
		setEntry(&tup, id, seq, p)
		err := cli.WriteWait(tup, noLease)
		t1 := now()
		if err != nil {
			l.fail()
			continue
		}
		l.done(nmWrite, t0, t1)
		ok := cli.TakeWaitInto(&got, tup, opTimeout)
		t2 := now()
		if !ok || entrySeq(got) != seq || !bytes.Equal(entryPayload(got), p) {
			l.fail()
			continue
		}
		l.done(nmTake, t1, t2)
	}
}

// slot is one of the independent write→take chains a connection
// keeps in flight. Its callbacks are built once; a completion stamps
// the slot and hands it back to the connection's issuing goroutine,
// which is the only one that sends.
type slot struct {
	tup    Tuple
	seq    int64
	p      []byte
	take   bool
	ok     bool
	t0, t1 int64
	wcb    func(bool, string)
	tcb    func(Tuple, bool)
}

func (w *wireInst) windowLoop(cli *Client, conn int64, l *lane, nmWrite, nmTake spanName) {
	end := l.m.end()
	// One token per slot: a completion never blocks the goroutine it
	// runs on (a gateway worker over the pipe, the reader over TCP).
	done := make(chan *slot, w.depth)
	slots := make([]slot, w.depth)
	issue := func(s *slot) {
		s.t0 = now()
		if s.take {
			cli.Take(s.tup, opTimeout, s.tcb)
		} else {
			cli.Write(s.tup, noLease, s.wcb)
		}
	}
	for i := range slots {
		s := &slots[i]
		id := conn*int64(w.depth) + int64(i)
		s.p = w.pool.of(id, 0)
		s.tup = entry("win", id, 0, s.p)
		s.wcb = func(ok bool, _ string) {
			s.t1, s.ok = now(), ok
			done <- s
		}
		s.tcb = func(t Tuple, ok bool) {
			s.t1 = now()
			s.ok = ok && entrySeq(t) == s.seq && bytes.Equal(entryPayload(t), s.p)
			done <- s
		}
		issue(s)
	}
	for inflight := len(slots); inflight > 0; {
		s := <-done
		switch {
		case !s.ok:
			l.fail()
			// A failed write has nothing to take; a failed take leaves
			// nothing to retry. Either way the slot starts a new chain.
			s.take = true
		case s.take:
			l.done(nmTake, s.t0, s.t1)
		default:
			l.done(nmWrite, s.t0, s.t1)
		}
		if s.take {
			if s.t1 >= end {
				inflight--
				continue
			}
			s.seq++
			id := entryID(s.tup)
			s.p = w.pool.of(id, s.seq)
			setEntry(&s.tup, id, s.seq, s.p)
		}
		s.take = !s.take
		issue(s)
	}
}

func (w *wireInst) verify() []string           { return sizeCheck(w.srv.sp, w.cfg.wireResident) }
func (w *wireInst) native() map[string]float64 { return w.extra }
func (w *wireInst) close()                     { w.srv.close() }

//
// space-mix-500k
//

const (
	mixKinds    = 64
	mixQueueCap = 4096
	mixLease    = 60 * simSecond
)

type mixInst struct {
	cfg    *runConfig
	sp     *Space
	pool   *payloadPool
	kinds  []string
	extras []string
}

// own is an entry a goroutine wrote and will remove again.
type own struct {
	id, seq int64
	kind    uint8
	lease   *Lease // non-nil where the write carried a lease
}

func setupMix(cfg *runConfig) (instance, error) {
	x := &mixInst{
		cfg: cfg, sp: newSpace(), pool: newPayloadPool(cfg.seed, payloadLen),
		kinds: kindNames("mix", mixKinds), extras: kindNames("ext", mixKinds),
	}
	if err := preload(x.sp, x.pool, x.kinds, cfg.spaceResident); err != nil {
		return nil, err
	}
	return x, nil
}

func (x *mixInst) drive(m *meter, tr *tracer) error {
	var nm mixNames
	nm.write, nm.takeHit, nm.readHit = tr.name("space", "write"), tr.name("space", "take_hit"), tr.name("space", "read_hit")
	nm.takeWild, nm.takeMiss = tr.name("space", "take_wildcard"), tr.name("space", "take_miss")
	nm.leaseWrite, nm.leaseCancel = tr.name("space", "lease_write"), tr.name("space", "lease_cancel")
	lanes := make([]*lane, x.cfg.clients)
	for g := range lanes {
		lanes[g] = m.lane(tr)
	}
	spawn(x.cfg.clients, func(g int) { x.loop(g, lanes[g], nm) })
	return nil
}

type mixNames struct {
	write, takeHit, readHit, takeWild, takeMiss, leaseWrite, leaseCancel spanName
}

// loop is one goroutine's seeded op mix. Goroutine g reads and
// wildcard-takes only the resident kinds k with k % C == g, so a read
// never races the take-and-put-back of another goroutine and every
// read is a hit; the shards themselves are shared by all goroutines.
// When the window ends it removes what it still holds, so the space
// is back at its resident size with no lease timer armed.
func (x *mixInst) loop(g int, l *lane, nm mixNames) {
	end := l.m.end()
	rng := splitmix(x.cfg.seed ^ uint64(g+1)*0xA24BAED4963EE407)
	n, c := x.cfg.spaceResident, x.cfg.clients
	perKind := (n + mixKinds - 1) / mixKinds
	ownKinds := (mixKinds - g + c - 1) / c
	queue := make([]own, mixQueueCap)
	head, held := 0, 0
	nextID := int64(n) + int64(g)<<40
	tup := entry("", 0, 0, nil)
	wild := make([]Tuple, mixKinds)
	for k := range wild {
		wild[k] = anyOf(x.kinds[k])
	}
	write := func(leased bool) {
		o := own{id: nextID, seq: int64(rng.next() >> 40), kind: uint8(nextID % mixKinds)}
		nextID++
		tup.Type = x.extras[o.kind]
		setEntry(&tup, o.id, o.seq, x.pool.of(o.id, o.seq))
		name, d := nm.write, noLease
		if leased {
			name, d = nm.leaseWrite, mixLease
		}
		t0 := now()
		lease, err := x.sp.Write(tup, d)
		t1 := now()
		if err != nil {
			l.fail()
			return
		}
		l.done(name, t0, t1)
		if leased {
			o.lease = lease
		}
		queue[(head+held)%mixQueueCap] = o
		held++
	}
	remove := func() {
		o := queue[head]
		head, held = (head+1)%mixQueueCap, held-1
		if o.lease != nil {
			t0 := now()
			ok := o.lease.Cancel()
			t1 := now()
			if !ok {
				l.fail()
				return
			}
			l.done(nm.leaseCancel, t0, t1)
			return
		}
		p := x.pool.of(o.id, o.seq)
		tup.Type = x.extras[o.kind]
		setEntry(&tup, o.id, o.seq, p)
		t0 := now()
		got, ok := x.sp.TakeIfExists(tup)
		t1 := now()
		if !ok || !bytes.Equal(entryPayload(got), p) {
			l.fail()
			return
		}
		l.done(nm.takeHit, t0, t1)
	}
	for now() < end {
		r := rng.intn(200)
		switch {
		case r < 60 && held < mixQueueCap, r < 120 && held == 0: // 30 % write, a quarter leased
			write(r < 15)
		case r < 120: // 30 % take of an own entry, or cancel of its lease
			remove()
		case r < 170: // 25 % read of a resident entry
			k := g + c*rng.intn(ownKinds)
			id := int64(rng.intn(perKind)*mixKinds + k)
			if id >= int64(n) {
				id -= mixKinds
			}
			seq := residentSeq(id)
			p := x.pool.of(id, seq)
			tup.Type = x.kinds[k]
			setEntry(&tup, id, seq, p)
			t0 := now()
			got, ok := x.sp.ReadIfExists(tup)
			t1 := now()
			if !ok || !bytes.Equal(entryPayload(got), p) {
				l.fail()
				continue
			}
			l.done(nm.readHit, t0, t1)
		case r < 180: // 5 % wildcard take of the oldest entry of a kind, written back
			k := g + c*rng.intn(ownKinds)
			t0 := now()
			got, ok := x.sp.TakeIfExists(wild[k])
			t1 := now()
			if !ok || entrySeq(got) != residentSeq(entryID(got)) ||
				!bytes.Equal(entryPayload(got), x.pool.of(entryID(got), entrySeq(got))) {
				l.fail()
				continue
			}
			l.done(nm.takeWild, t0, t1)
			_, err := x.sp.Write(got, noLease)
			t2 := now()
			if err != nil {
				l.fail()
				continue
			}
			l.done(nm.write, t1, t2)
		default: // 10 % take of an id nobody wrote
			tup.Type = x.extras[0]
			setEntry(&tup, -1-int64(rng.next()>>1), 0, x.pool[0])
			t0 := now()
			_, ok := x.sp.TakeIfExists(tup)
			t1 := now()
			if ok {
				l.fail()
				continue
			}
			l.done(nm.takeMiss, t0, t1)
		}
	}
	for held > 0 {
		remove()
	}
}

func (x *mixInst) verify() []string           { return sizeCheck(x.sp, x.cfg.spaceResident) }
func (x *mixInst) native() map[string]float64 { return nil }
func (x *mixInst) close()                     {}

//
// taskbag-pipe
//

const notifyRegs = 8

type taskbagInst struct {
	cfg        *runConfig
	srv        *server
	masters    []*Client
	workers    []*Client
	pool       *payloadPool
	deliveries atomic.Int64
	tasks      atomic.Int64 // results written by workers
	problems   []string
}

func setupTaskbag(cfg *runConfig) (instance, error) {
	b := &taskbagInst{cfg: cfg, pool: newPayloadPool(cfg.seed, payloadLen)}
	sp := newSpace()
	if err := preload(sp, b.pool, kindNames("res", 16), cfg.wireResident); err != nil {
		return nil, err
	}
	b.srv = newServer(sp)
	pairs := cfg.clients / 2
	if pairs < 1 {
		pairs = 1
	}
	for i := 0; i < pairs; i++ {
		b.masters = append(b.masters, b.srv.dialPipe())
		b.workers = append(b.workers, b.srv.dialPipe())
	}
	watcher := b.srv.dialPipe()
	acks := make(chan bool, notifyRegs)
	for i := 0; i < notifyRegs; i++ {
		watcher.Notify(anyOf("result"), func(Tuple) { b.deliveries.Add(1) }, func(ok bool) { acks <- ok })
	}
	for i := 0; i < notifyRegs; i++ {
		if !<-acks {
			b.srv.close()
			return nil, fmt.Errorf("taskbag: notify registration %d refused", i)
		}
	}
	return b, nil
}

// resultPayload is what a worker makes of a task payload: its CRC-32
// in the first four bytes, the rest unchanged.
func resultPayload(dst, task []byte) []byte {
	dst = append(dst[:0], task...)
	binary.BigEndian.PutUint32(dst, crc32.ChecksumIEEE(task))
	return dst
}

func (b *taskbagInst) drive(m *meter, tr *tracer) error {
	nmUnit := tr.name("wrapper", "task.unit")
	end := m.end()
	mLanes, wLanes := make([]*lane, len(b.masters)), make([]*lane, len(b.workers))
	for i := range mLanes {
		mLanes[i], wLanes[i] = m.lane(tr), m.lane(nil)
	}
	var workersDone sync.WaitGroup
	for i, cli := range b.workers {
		workersDone.Add(1)
		go func(cli *Client, l *lane) {
			defer workersDone.Done()
			var task Tuple
			anyTask, res := anyOf("task"), entry("result", 0, 0, nil)
			var buf []byte
			for {
				if !cli.TakeWaitInto(&task, anyTask, opTimeout) {
					l.fail()
					return
				}
				if entryID(task) < 0 { // the stop marker a master leaves behind
					return
				}
				buf = resultPayload(buf, entryPayload(task))
				setEntry(&res, entryID(task), entrySeq(task), buf)
				if err := cli.WriteWait(res, noLease); err != nil {
					l.fail()
					continue
				}
				b.tasks.Add(1)
			}
		}(cli, wLanes[i])
	}
	spawn(len(b.masters), func(g int) {
		cli, l, id := b.masters[g], mLanes[g], int64(g)
		task, myResult := entry("task", id, 0, nil), withID("result", id)
		var got Tuple
		var want []byte
		for seq := int64(0); ; seq++ {
			t0 := now()
			if t0 >= end {
				return
			}
			p := b.pool.of(id, seq)
			setEntry(&task, id, seq, p)
			if err := cli.WriteWait(task, noLease); err != nil {
				l.fail()
				continue
			}
			ok := cli.TakeWaitInto(&got, myResult, opTimeout)
			t1 := now()
			want = resultPayload(want, p)
			if !ok || entrySeq(got) != seq || !bytes.Equal(entryPayload(got), want) {
				l.fail()
				continue
			}
			l.done(nmUnit, t0, t1)
		}
	})
	for range b.workers {
		if err := b.masters[0].WriteWait(entry("task", -1, 0, b.pool[0]), noLease); err != nil {
			return fmt.Errorf("taskbag: stop marker: %w", err)
		}
	}
	workersDone.Wait()
	// Notify events travel behind the replies; give the last ones a
	// bounded time to land before counting.
	want := notifyRegs * b.tasks.Load()
	for deadline := time.Now().Add(5 * time.Second); b.deliveries.Load() < want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := b.deliveries.Load(); got != want {
		b.problems = append(b.problems, fmt.Sprintf("notify deliveries = %d, want %d (8 x %d tasks)", got, want, b.tasks.Load()))
	}
	return nil
}

func (b *taskbagInst) verify() []string {
	return append(b.problems, sizeCheck(b.srv.sp, b.cfg.wireResident)...)
}
func (b *taskbagInst) native() map[string]float64 {
	return map[string]float64{"notify_deliveries": float64(b.deliveries.Load()), "tasks": float64(b.tasks.Load())}
}
func (b *taskbagInst) close() { b.srv.close() }

//
// journal-recover
//

// journalFlushEvery is the flush policy of `spaceserver -journal`.
const journalFlushEvery = time.Second

type journalInst struct {
	cfg      *runConfig
	dir      string
	path     string
	sp       *Space
	j        *Journal
	pool     *payloadPool
	nat      map[string]float64
	problems []string
}

func setupJournal(cfg *runConfig) (instance, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.outDir, "journal-")
	if err != nil {
		return nil, err
	}
	jr := &journalInst{cfg: cfg, dir: dir, path: filepath.Join(dir, "space.journal"),
		sp: newSpace(), pool: newPayloadPool(cfg.seed, payloadLen)}
	if jr.j, err = openJournal(jr.sp, jr.path); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := preload(jr.sp, jr.pool, kindNames("res", 16), cfg.wireResident); err != nil {
		jr.close()
		return nil, err
	}
	return jr, nil
}

// keeper reports whether a goroutine's i-th write stays in the
// space; the other three in four are taken back.
func keeper(i int) bool { return i%4 == 0 }

func (jr *journalInst) drive(m *meter, tr *tracer) error {
	nmWrite, nmTake := tr.name("space", "journal.write"), tr.name("space", "journal.take")
	c := jr.cfg.clients
	// The work is a fixed count, so that recovery replays the same
	// journal on every commit. A traced run needs both halves of a
	// window, so it writes until the window ends instead.
	perG, end := jr.cfg.journalWrites/c, m.end()
	if tr != nil {
		perG = math.MaxInt32
	}
	wrote := make([]int, c)
	lanes := make([]*lane, c)
	for g := range lanes {
		lanes[g] = m.lane(tr)
	}
	stopFlush, flushDone := make(chan struct{}), make(chan error, 1)
	go func() {
		tick := time.NewTicker(journalFlushEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopFlush:
				flushDone <- nil
				return
			case <-tick.C:
				if err := jr.j.Flush(); err != nil {
					flushDone <- err
					return
				}
			}
		}
	}()
	spawn(c, func(g int) {
		l := lanes[g]
		tup := entry("jrn", 0, 0, nil)
		take := func(i int) {
			id := int64(g)<<40 | int64(i)
			p := jr.pool.of(id, int64(i))
			setEntry(&tup, id, int64(i), p)
			t0 := now()
			got, ok := jr.sp.TakeIfExists(tup)
			t1 := now()
			if !ok || !bytes.Equal(entryPayload(got), p) {
				l.fail()
				return
			}
			l.done(nmTake, t0, t1)
		}
		n := 0
		for ; n < perG; n++ {
			i := n
			id := int64(g)<<40 | int64(i)
			setEntry(&tup, id, int64(i), jr.pool.of(id, int64(i)))
			t0 := now()
			if t0 >= end {
				break
			}
			_, err := jr.sp.Write(tup, noLease)
			t1 := now()
			if err != nil {
				l.fail()
			} else {
				l.done(nmWrite, t0, t1)
			}
			// Take the previous write once the next one is in, so the
			// journal interleaves writes and removals.
			if i > 0 && !keeper(i-1) {
				take(i - 1)
			}
		}
		if n > 0 && !keeper(n-1) {
			take(n - 1)
		}
		wrote[g] = n
	})
	close(stopFlush)
	if err := <-flushDone; err != nil {
		return fmt.Errorf("journal flush: %w", err)
	}
	if err := jr.j.Flush(); err != nil {
		return fmt.Errorf("journal flush: %w", err)
	}
	m.cut(now()) // phase A ends with its final flush
	return jr.recover(wrote)
}

// recover is phase B: replay the journal into a fresh space and
// compare it with the live one.
func (jr *journalInst) recover(wrote []int) error {
	live, writes := jr.cfg.wireResident, 0
	for _, n := range wrote {
		writes += n
		live += (n + 3) / 4 // the keepers among writes 0..n-1
	}
	fresh := newSpace()
	t0 := now()
	restored, err := fresh.ReplayFile(jr.path)
	recovery := float64(now()-t0) / 1e9
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if restored != live || fresh.Size() != live || jr.sp.Size() != live {
		jr.problems = append(jr.problems, fmt.Sprintf("replay restored %d, replayed Size() = %d, live Size() = %d, want %d",
			restored, fresh.Size(), jr.sp.Size(), live))
	}
	if a, b := jr.checksum(jr.sp), jr.checksum(fresh); a != b {
		jr.problems = append(jr.problems, fmt.Sprintf("id checksum: live %#x, replayed %#x", a, b))
	}
	st, err := os.Stat(jr.path)
	if err != nil {
		return err
	}
	user := jr.cfg.wireResident*userBytes(entry("res00", 0, 0, jr.pool[0])) + writes*userBytes(entry("jrn", 0, 0, jr.pool[0]))
	records := jr.cfg.wireResident + writes + (writes - (live - jr.cfg.wireResident))
	jr.nat = map[string]float64{
		"recovery_s":                  recovery,
		"journal_bytes_per_user_byte": float64(st.Size()) / float64(user),
		"journal_records":             float64(records),
		"journal_bytes":               float64(st.Size()),
		"live_entries":                float64(live),
	}
	return nil
}

// checksum folds every entry's id and seq, order-free, after checking
// its payload.
func (jr *journalInst) checksum(sp *Space) uint64 {
	var sum uint64
	for _, t := range sp.Scan(anyKind()) {
		if !bytes.Equal(entryPayload(t), jr.pool.of(entryID(t), entrySeq(t))) {
			return 0
		}
		sum += mix64(uint64(entryID(t))*31 + uint64(entrySeq(t)))
	}
	return sum
}

func (jr *journalInst) verify() []string           { return jr.problems }
func (jr *journalInst) native() map[string]float64 { return jr.nat }
func (jr *journalInst) close() {
	_ = jr.j.Close() // the run has its numbers; the file is removed next
	os.RemoveAll(jr.dir)
}

//
// sim-estimate
//

type simInst struct {
	cfg    *runConfig
	res    simResults
	passes []simPass
	nat    map[string]float64
}

type simPass struct {
	start, end int64
	cells      int
	simS       float64
}

// runPass makes the five calls once, checks each output against its
// golden and records one span per call.
func (s *simInst) runPass(l *lane, tr *tracer) simPass {
	p := simPass{start: now()}
	for _, call := range simCalls(&s.res) {
		t0 := now()
		c := call()
		t1 := now()
		p.cells += c.cells
		p.simS += c.simS
		if bad := goldenDiff(c.name, c.output); bad > 0 {
			if bad > c.cells {
				bad = c.cells
			}
			l.failN(c.cells, bad)
			continue
		}
		l.doneN(tr.name(c.layer, c.name), t0, t1, c.cells)
	}
	p.end = now()
	return p
}

func setupSim(cfg *runConfig) (instance, error) {
	s := &simInst{cfg: cfg}
	// One untimed pass: it loads the goldens, fills the allocator's
	// size classes and proves the outputs before anything is timed.
	m := newMeter(now(), time.Hour, false)
	l := m.lane(nil)
	s.runPass(l, nil)
	if l.failed > 0 {
		return nil, fmt.Errorf("sim-estimate: %d cells differ from benchmark/testdata/*.golden", l.failed)
	}
	return s, nil
}

func (s *simInst) drive(m *meter, tr *tracer) error {
	l := m.lane(tr)
	for end := m.end(); now() < end; {
		s.passes = append(s.passes, s.runPass(l, tr))
	}
	s.nat = map[string]float64{
		"table4_err_pct":          s.res.table4ErrPct,
		"failover_recover_sim_ms": s.res.failoverRecoverMs,
	}
	return nil
}

// passStats is the per-pass view of a window, over the passes that
// ended in [from, to): cells and simulated seconds per host second.
func (s *simInst) passStats(from, to int64) (cellsPerS, simPerS float64, passes int) {
	var cells, simS, hostS float64
	for _, p := range s.passes {
		if p.end >= from && p.end < to {
			passes++
			cells += float64(p.cells)
			simS += p.simS
			hostS += float64(p.end-p.start) / 1e9
		}
	}
	return cells / hostS, simS / hostS, passes
}

func (s *simInst) verify() []string           { return nil }
func (s *simInst) native() map[string]float64 { return s.nat }
func (s *simInst) close()                     {}

// goldenDiff counts the lines of got that differ from the golden
// stored under testdata/.
func goldenDiff(name, got string) int {
	want, err := goldens.ReadFile("testdata/" + name + ".golden")
	if err != nil {
		return 1 << 30
	}
	if string(want) == got {
		return 0
	}
	w, g := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	bad := 0
	for i := 0; i < len(w) || i < len(g); i++ {
		if i >= len(w) || i >= len(g) || w[i] != g[i] {
			bad++
		}
	}
	return bad
}

var workloads = []workload{
	{name: "tcp-rtt", unit: "client op", latency: "op", setup: setupWire(true, 1),
		why: "loopback TCP, one op in flight per client: transport hops and the completion cell are about 3/4 of an op, so a latency cost of batching or queueing shows here"},
	{name: "tcp-window32", unit: "client op", latency: "op", setup: setupWire(true, depth32),
		why: "same stack with 32 ops in flight per connection: writev coalescing, the send ring and the dispatch queues only engage with depth"},
	{name: "pipe-window32", unit: "client op", latency: "op", setup: setupWire(false, depth32),
		why: "tcp-window32 over the in-process pipe: transport does almost nothing, so codec, wrapper and space carry the whole cost"},
	{name: "space-mix-500k", unit: "space call", latency: "op", setupReps: 3, setup: setupMix,
		why: "no wire, 500 000 resident entries far beyond CPU cache: index, shard locks, entry freelists and the lease wheel do all the work"},
	{name: "taskbag-pipe", unit: "task round trip", latency: "unit", setup: setupTaskbag,
		why: "master/worker over the pipe: every take parks server-side and is woken by a write, with 8 notify registrations watching, paths the hit-only workloads never enter"},
	{name: "journal-recover", unit: "journaled space call", fixedWork: true, setup: setupJournal,
		why: "a fixed 2 000 000 writes and 1 500 000 takes against a file journal flushed once a second, then replay into a fresh space: the only workload where journal and recovery do the work"},
	{name: "sim-estimate", unit: "simulated grid cell", setupReps: 3, setup: setupSim,
		why: "the paper's own job in virtual time (Table 4, sweep, plan grid, Table 3, cluster chaos grid) checked against goldens: simulator and models do all the work, the serving plane none"},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
