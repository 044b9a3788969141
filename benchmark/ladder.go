package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// The ladder prices one client op from the outside in: each rung
// times calls into one layer's public functions on the tuples the
// workloads use, and short runs of the workloads themselves supply
// the counts only a running stack has. A traced set runs it once; the
// driver asks every traced run for every per-layer metric, so there it
// runs beside each workload.

// layerValues are the per-layer metrics of one traced run. A metric
// that could not be measured is absent from v and has a line in
// missing; it is never reported as 0.
type layerValues struct {
	v       map[string]float64
	missing map[string]string
}

func (lv *layerValues) set(name string, x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		lv.miss(name, fmt.Sprintf("not finite (%v)", x))
		return
	}
	lv.v[name] = x
}

func (lv *layerValues) miss(name, why string) { lv.missing[name] = why }

// warnResidual says so when the ledger does not add up.
func (lv *layerValues) warnResidual(w io.Writer) {
	if resid, ok := lv.v["ledger.tcp_rtt_residual_share"]; ok && resid > 0.15 {
		fmt.Fprintf(w, "warning: ledger.tcp_rtt_residual_share is %.2f: the outside-in ladder no longer explains a tcp-rtt op; spans inside the program are due\n", resid)
	}
}

// from copies src[key] when a run produced it.
func (lv *layerValues) from(name string, src map[string]float64, key string) {
	if x, ok := src[key]; ok {
		lv.set(name, x)
		return
	}
	lv.miss(name, "the run that yields it reported no "+key)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// ladderConfig scales the ladder: 1 is the reference size, the smoke
// test runs a fraction of it.
type ladderConfig struct {
	run   *runConfig
	scale float64
}

func (lc *ladderConfig) dur(d time.Duration) time.Duration {
	return time.Duration(float64(d) * lc.scale)
}

func (lc *ladderConfig) count(n int) int {
	if c := int(float64(n) * lc.scale); c > 1 {
		return c
	}
	return 1
}

// timeRung calls r.call in batches of about 100 µs for the budget and
// returns the median batch's time per call and the allocations per
// call over all of them. One span covers one batch.
func timeRung(tr *tracer, r rung, budget time.Duration) (ns, allocs float64) {
	name := tr.name(r.layer, r.name)
	sl := tr.lane()
	r.call() // first call pays lazy set-up
	t0 := now()
	r.call()
	batch := int(100_000 / (now() - t0 + 1))
	if batch < 1 {
		batch = 1
	}
	var per []float64
	calls := 0
	m0 := mallocs()
	for start := now(); now()-start < int64(budget) || len(per) < 5; {
		b0 := now()
		for i := 0; i < batch; i++ {
			r.call()
		}
		b1 := now()
		sl.add(name, b0, b1, batch)
		per = append(per, float64(b1-b0)/float64(batch))
		calls += batch
	}
	return median(per), float64(mallocs()-m0) / float64(calls)
}

func runLadder(lc *ladderConfig, tr *tracer) (*layerValues, error) {
	defer tr.root("benchmark", "ladder")()
	lv := &layerValues{v: map[string]float64{}, missing: map[string]string{}}
	cfg := lc.run
	pool := newPayloadPool(cfg.seed, payloadLen)
	e := entry("rtt", 1, 7, pool[0])
	e4k := entry("rtt", 1, 7, newPayloadPool(cfg.seed, 4096)[0])
	rungBudget := lc.dur(30 * time.Millisecond)

	for _, r := range append(tupleRungs(e), codecRungs(e, e4k)...) {
		ns, allocs := timeRung(tr, r, rungBudget)
		switch r.name {
		case "xml_roundtrip":
			lv.set("xmlcodec.xml_allocs_per_roundtrip", allocs)
			continue
		case "bin_request_encode_ns":
			lv.set("xmlcodec.bin_request_bytes", float64(r.bytes))
		case "xml_request_encode_ns":
			lv.set("xmlcodec.xml_request_bytes", float64(r.bytes))
		}
		lv.set(r.layer+"."+r.name, ns)
	}
	frame := bytes.Repeat([]byte{0xA5}, 100)
	ns, _ := timeRung(tr, pipeFrameRung(frame), rungBudget)
	lv.set("transport.pipe_frame_ns", ns)
	ns, _ = timeRung(tr, rmiCallRung(frame), rungBudget)
	lv.set("rmi.call_ns", ns)

	if err := ladderTCP(lc, tr, lv, frame); err != nil {
		return nil, err
	}
	if err := ladderWrapper(lc, tr, lv); err != nil {
		return nil, err
	}
	ladderSpace10k(lc, tr, lv, pool)
	rttP50Us, err := ladderMinis(lc, lv)
	if err != nil {
		return nil, err
	}
	if err := ladderSpace500k(lc, tr, lv); err != nil {
		return nil, err
	}
	if err := ladderJournal(lc, tr, lv, pool); err != nil {
		return nil, err
	}
	if err := ladderSim(lc, tr, lv); err != nil {
		return nil, err
	}

	// wrapper's self time: what is left of a pipe op after the codec
	// and space calls it contains. An op is a write or a take in turn,
	// each with a request and a response through the codec.
	if op, ok := lv.v["wrapper.pipe_op_ns"]; ok {
		inner := lv.v["xmlcodec.bin_request_encode_ns"] + lv.v["xmlcodec.bin_request_decode_ns"] +
			lv.v["xmlcodec.bin_response_encode_ns"] + lv.v["xmlcodec.bin_response_decode_ns"] +
			(lv.v["space.write_ns_10k"]+lv.v["space.take_hit_ns_10k"])/2
		lv.set("wrapper.self_ns", op-inner)
		lv.set("wrapper.self_share", (op-inner)/op)
	}
	// The outside-in ledger: one TCP frame round trip plus one pipe op
	// should add up to one tcp-rtt op.
	sum := lv.v["transport.tcp_frame_rtt_us"] + lv.v["wrapper.pipe_op_ns"]/1e3
	lv.set("ledger.tcp_rtt_residual_share", math.Abs(rttP50Us-sum)/rttP50Us)
	return lv, nil
}

// ladderTCP prices a 100 B frame to an echoing TCPConn peer and back
// at depth 1, then the echo at depth 32 with 100 B and 4 KiB frames.
func ladderTCP(lc *ladderConfig, tr *tracer, lv *layerValues, frame []byte) error {
	echo, err := newTCPEcho(depth32)
	if err != nil {
		return err
	}
	defer echo.close()
	// One deadline for the whole function, so that waiting for an echo
	// arms no timer per frame.
	stall := time.NewTimer(lc.dur(time.Second) + 20*time.Second)
	defer stall.Stop()
	roundTrip := func(f []byte) error {
		if err := echo.send(f); err != nil {
			return err
		}
		select {
		case n := <-echo.echoed:
			if n != len(f) {
				return fmt.Errorf("tcp echo: %d bytes back, sent %d", n, len(f))
			}
			return nil
		case <-stall.C:
			return fmt.Errorf("tcp echo: a frame did not come back")
		}
	}
	for i := 0; i < 100; i++ { // warm the connection and the buffer pools
		if err := roundTrip(frame); err != nil {
			return err
		}
	}
	name, sl := tr.name("transport", "tcp_frame_rtt_us"), tr.lane()
	h := new(hist)
	m0 := mallocs()
	for start := now(); now()-start < int64(lc.dur(300*time.Millisecond)) || h.n < 100; {
		t0 := now()
		if err := roundTrip(frame); err != nil {
			return err
		}
		t1 := now()
		sl.add(name, t0, t1, 1)
		h.add(t1 - t0)
	}
	lv.set("transport.tcp_allocs_per_frame", float64(mallocs()-m0)/float64(2*h.n))
	lv.set("transport.tcp_frame_rtt_us", h.quantile(0.5)/1e3)

	// stream keeps depth32 frames in flight for the budget and returns
	// frames per second, one way.
	stream := func(spanName string, f []byte, budget time.Duration) (float64, error) {
		name := tr.name("transport", spanName)
		t0 := now()
		sent, back := 0, 0
		for ; sent < depth32; sent++ {
			if err := echo.send(f); err != nil {
				return 0, err
			}
		}
		for back < sent {
			select {
			case <-echo.echoed:
				back++
			case <-stall.C:
				return 0, fmt.Errorf("tcp echo: stalled with %d frames out", sent-back)
			}
			if now()-t0 < int64(budget) {
				if err := echo.send(f); err != nil {
					return 0, err
				}
				sent++
			}
		}
		t1 := now()
		sl.add(name, t0, t1, back)
		return float64(back) / (float64(t1-t0) / 1e9), nil
	}
	fps, err := stream("tcp_frames_per_s", frame, lc.dur(300*time.Millisecond))
	if err != nil {
		return err
	}
	lv.set("transport.tcp_frames_per_s", fps)
	big := bytes.Repeat([]byte{0x5A}, 4096)
	fps, err = stream("tcp_mb_per_s_4k", big, lc.dur(300*time.Millisecond))
	if err != nil {
		return err
	}
	lv.set("transport.tcp_mb_per_s_4k", fps*float64(len(big))/1e6)
	return nil
}

// ladderWrapper prices a client op over the pipe at depth 1 from one
// goroutine, then the two paths the hit-only loop never enters: a
// parked take woken by another connection's write, and a write seen
// by eight notify registrations.
func ladderWrapper(lc *ladderConfig, tr *tracer, lv *layerValues) error {
	cfg := *lc.run
	cfg.clients = 1
	inst, err := setupWire(false, 1)(&cfg)
	if err != nil {
		return err
	}
	defer inst.close()
	w := inst.(*wireInst)
	m := newSpanMeter(now()+int64(lc.dur(50*time.Millisecond)), lc.dur(300*time.Millisecond))
	m0 := mallocs()
	if err := w.drive(m, tr); err != nil {
		return err
	}
	allocs := mallocs() - m0
	attempted, failed := m.totals()
	if failed > 0 {
		return fmt.Errorf("ladder: pipe op loop failed %d of %d ops", failed, attempted)
	}
	lv.set("wrapper.pipe_op_ns", 1e9/m.stats(1).OpsPerS)
	lv.set("wrapper.allocs_per_op", float64(allocs)/float64(attempted))

	writer, taker, watcher := w.clients[0], w.srv.dialPipe(), w.srv.dialPipe()
	ping := entry("ping", 1, 0, w.pool[0])
	// parked_take_wake_ns: the taker parks, the writer waits until it
	// must have, then writes; the time runs from the write's issue to
	// the take's return on the other connection.
	woke := make(chan int64, 1)
	nm, sl := tr.name("wrapper", "parked_take_wake_ns"), tr.lane()
	h := new(hist)
	var got Tuple
	for i := 0; i < lc.count(200); i++ {
		go func() {
			ok := taker.TakeWaitInto(&got, anyOf("ping"), opTimeout)
			t := now()
			if !ok {
				t = -1
			}
			woke <- t
		}()
		time.Sleep(200 * time.Microsecond)
		t0 := now()
		if err := writer.WriteWait(ping, noLease); err != nil {
			return fmt.Errorf("ladder: wake write: %w", err)
		}
		t1 := <-woke
		if t1 < 0 {
			return fmt.Errorf("ladder: parked take timed out")
		}
		sl.add(nm, t0, t1, 1)
		h.add(t1 - t0)
	}
	lv.set("wrapper.parked_take_wake_ns", h.quantile(0.5))

	acks := make(chan bool, notifyRegs)
	seen := make(chan int64, notifyRegs)
	for i := 0; i < notifyRegs; i++ {
		watcher.Notify(anyOf("ping"), func(Tuple) { seen <- now() }, func(ok bool) { acks <- ok })
	}
	for i := 0; i < notifyRegs; i++ {
		if !<-acks {
			return fmt.Errorf("ladder: notify registration refused")
		}
	}
	nm = tr.name("wrapper", "notify_deliver_ns")
	h = new(hist)
	for i := 0; i < lc.count(200); i++ {
		t0 := now()
		if err := writer.WriteWait(ping, noLease); err != nil {
			return fmt.Errorf("ladder: notify write: %w", err)
		}
		var last int64
		for j := 0; j < notifyRegs; j++ {
			select {
			case last = <-seen:
			case <-time.After(5 * time.Second):
				return fmt.Errorf("ladder: notify delivery %d of %d missing", j+1, notifyRegs)
			}
		}
		sl.add(nm, t0, last, 1)
		h.add(last - t0)
		if !writer.TakeWaitInto(&got, ping, opTimeout) {
			return fmt.Errorf("ladder: notify ping not taken back")
		}
	}
	lv.set("wrapper.notify_deliver_ns", h.quantile(0.5))
	return nil
}

// ladderSpace10k prices Write and a concrete TakeIfExists directly on
// a space the size the wire workloads use, and the wake of a parked
// take by the Write that satisfies it.
func ladderSpace10k(lc *ladderConfig, tr *tracer, lv *layerValues, pool *payloadPool) {
	sp := newSpace()
	if err := preload(sp, pool, kindNames("res", 16), lc.run.wireResident); err != nil {
		lv.miss("space.write_ns_10k", err.Error())
		return
	}
	tup := entry("rtt", 1, 0, pool[0])
	nmW, nmT, sl := tr.name("space", "write_ns_10k"), tr.name("space", "take_hit_ns_10k"), tr.lane()
	var wns, tns []float64
	seq := int64(0)
	for start := now(); now()-start < int64(lc.dur(60*time.Millisecond)) || len(wns) < 5; {
		const batch = 256
		t0 := now()
		for i := int64(0); i < batch; i++ {
			setEntry(&tup, 1, seq+i, pool[0])
			if _, err := sp.Write(tup, noLease); err != nil {
				lv.miss("space.write_ns_10k", err.Error())
				return
			}
		}
		t1 := now()
		for i := int64(0); i < batch; i++ {
			setEntry(&tup, 1, seq+i, pool[0])
			if _, ok := sp.TakeIfExists(tup); !ok {
				lv.miss("space.take_hit_ns_10k", "take missed its own write")
				return
			}
		}
		t2 := now()
		seq += batch
		sl.add(nmW, t0, t1, batch)
		sl.add(nmT, t1, t2, batch)
		wns, tns = append(wns, float64(t1-t0)/batch), append(tns, float64(t2-t1)/batch)
	}
	lv.set("space.write_ns_10k", median(wns))
	lv.set("space.take_hit_ns_10k", median(tns))

	nm := tr.name("space", "waiter_wake_ns")
	h := new(hist)
	wake := entry("wake", 1, 0, pool[0])
	var t1 int64
	for i := 0; i < lc.count(2000); i++ {
		sp.Take(wake, opTimeout, func(Tuple, bool) { t1 = now() }) // parks; the callback runs inside the Write below
		t0 := now()
		if _, err := sp.Write(wake, noLease); err != nil {
			lv.miss("space.waiter_wake_ns", err.Error())
			return
		}
		sl.add(nm, t0, t1, 1)
		h.add(t1 - t0)
	}
	lv.set("space.waiter_wake_ns", h.quantile(0.5))
}

// ladderMinis runs three workloads for a moment each, for the counts
// that only exist on a running stack, and returns the op_p50_us of the
// short tcp-rtt: the ledger's end-to-end side.
func ladderMinis(lc *ladderConfig, lv *layerValues) (rttP50Us float64, err error) {
	cfg := *lc.run
	cfg.window, cfg.warmup, cfg.setupReps = lc.dur(500*time.Millisecond), lc.dur(100*time.Millisecond), 1
	mini := func(name string) (*runResult, error) {
		res, err := runWorkload(findWorkload(name), &cfg, nil)
		if err == nil && !res.correct() {
			err = fmt.Errorf("ladder: %s failed %d ops: %v", name, res.Failed, res.Problems)
		}
		return res, err
	}
	rtt, err := mini("tcp-rtt")
	if err != nil {
		return 0, err
	}
	lv.from("transport.tcp_frames_per_write_batch_rtt", rtt.Info, "tcp_frames_per_write_batch")
	win, err := mini("tcp-window32")
	if err != nil {
		return 0, err
	}
	lv.from("transport.tcp_frames_per_write_batch", win.Info, "tcp_frames_per_write_batch")
	bag, err := mini("taskbag-pipe")
	if err != nil {
		return 0, err
	}
	lv.from("wrapper.notify_deliveries", bag.Info, "notify_deliveries")
	return rtt.Metrics["op_p50_us"], nil
}

// ladderSpace500k takes one span per op of a traced space-mix run at
// the full resident size, and weighs an entry.
func ladderSpace500k(lc *ladderConfig, tr *tracer, lv *layerValues) error {
	cfg := *lc.run
	before := heapInuseMB()
	inst, err := setupMix(&cfg)
	if err != nil {
		return err
	}
	defer inst.close()
	x := inst.(*mixInst)
	lv.set("space.bytes_per_entry", (heapInuseMB()-before)*(1<<20)/float64(cfg.spaceResident))

	// Allocations of a write, from one goroutine with nothing else
	// running.
	tup := entry(x.extras[0], -5, 0, x.pool[0])
	n := lc.count(20000)
	m0 := mallocs()
	for i := 0; i < n; i++ {
		setEntry(&tup, -5-int64(i), 0, x.pool[0])
		if _, err := x.sp.Write(tup, noLease); err != nil {
			return err
		}
	}
	lv.set("space.write_allocs", float64(mallocs()-m0)/float64(n))
	for i := 0; i < n; i++ {
		setEntry(&tup, -5-int64(i), 0, x.pool[0])
		if _, ok := x.sp.TakeIfExists(tup); !ok {
			return fmt.Errorf("ladder: space lost a write")
		}
	}

	// The traced workload may have been this same mix; only the spans
	// of the lanes this run adds count here.
	firstLane := len(tr.lanes)
	m := newSpanMeter(now()+int64(lc.dur(100*time.Millisecond)), lc.dur(500*time.Millisecond))
	if err := x.drive(m, tr); err != nil {
		return err
	}
	if _, failed := m.totals(); failed > 0 || len(x.verify()) > 0 {
		return fmt.Errorf("ladder: space mix failed %d ops: %v", failed, x.verify())
	}
	for _, name := range []string{"write", "take_hit", "read_hit", "take_wildcard", "take_miss", "lease_write", "lease_cancel"} {
		h := tr.perCall("space", name, firstLane)
		if h.n == 0 {
			lv.miss("space."+name+"_ns", "no span of this op in the traced mix")
			continue
		}
		lv.set("space."+name+"_ns", h.quantile(0.5))
	}
	return nil
}

// ladderJournal writes and takes against a file journal for one flush
// period, then prices the flush, the bytes and the replay.
func ladderJournal(lc *ladderConfig, tr *tracer, lv *layerValues, pool *payloadPool) error {
	dir, err := os.MkdirTemp(lc.run.outDir, "ladder-journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "space.journal")
	sp := newSpace()
	j, err := openJournal(sp, path)
	if err != nil {
		return err
	}
	if err := preload(sp, pool, kindNames("res", 16), lc.run.wireResident); err != nil {
		return err
	}
	tup := entry("jrn", 1, 0, pool[0])
	nmW, sl := tr.name("space", "journal.write"), tr.lane()
	var writes, takes int
	var writeNs int64
	for start := now(); now()-start < int64(lc.dur(journalFlushEvery)); {
		const batch = 256
		base := int64(writes)
		t0 := now()
		for i := int64(0); i < batch; i++ {
			setEntry(&tup, 1, base+i, pool[0])
			if _, err := sp.Write(tup, noLease); err != nil {
				return err
			}
		}
		t1 := now()
		sl.add(nmW, t0, t1, batch)
		writeNs += t1 - t0
		writes += batch
		for i := int64(0); i < batch; i++ {
			if keeper(int(base + i)) {
				continue
			}
			setEntry(&tup, 1, base+i, pool[0])
			if _, ok := sp.TakeIfExists(tup); !ok {
				return fmt.Errorf("ladder: journaled space lost a write")
			}
			takes++
		}
	}
	if plain, ok := lv.v["space.write_ns_10k"]; ok {
		lv.set("space.journal_append_ns", float64(writeNs)/float64(writes)-plain)
	} else {
		lv.miss("space.journal_append_ns", "no plain write time to subtract")
	}
	nmF := tr.name("space", "journal.flush")
	t0 := now()
	if err := j.Flush(); err != nil {
		return err
	}
	t1 := now()
	sl.add(nmF, t0, t1, 1)
	lv.set("space.flush_ms", float64(t1-t0)/1e6)
	if err := j.Close(); err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	records := lc.run.wireResident + writes + takes
	lv.set("space.journal_bytes_per_record", float64(st.Size())/float64(records))
	fresh := newSpace()
	nmR := tr.name("space", "journal.replay")
	t0 = now()
	restored, err := fresh.ReplayFile(path)
	t1 = now()
	if err != nil {
		return err
	}
	if restored != sp.Size() {
		return fmt.Errorf("ladder: replay restored %d entries, live space has %d", restored, sp.Size())
	}
	sl.add(nmR, t0, t1, records)
	lv.set("space.replay_ns_per_record", float64(t1-t0)/float64(records))
	return nil
}

// ladderSim prices the simulation side: the bare kernel, a TpWIRE
// chain, a netsim link, then one sim-estimate pass call by call.
func ladderSim(lc *ladderConfig, tr *tracer, lv *layerValues) error {
	sl := tr.lane()
	events := uint64(lc.count(2_000_000))
	m0 := mallocs()
	t0 := now()
	fired := simKernelRun(events, 64)
	t1 := now()
	sl.add(tr.name("sim", "kernel_run"), t0, t1, int(fired))
	lv.set("sim.events_per_host_s", float64(fired)/(float64(t1-t0)/1e9))
	lv.set("sim.allocs_per_event", float64(mallocs()-m0)/float64(fired))

	const wireBytes = 10_000
	t0 = now()
	frames, err := tpwireRun(wireBytes)
	t1 = now()
	if err != nil {
		return err
	}
	sl.add(tr.name("tpwire", "chain_10kB"), t0, t1, int(frames))
	lv.set("tpwire.frames_per_host_s", float64(frames)/(float64(t1-t0)/1e9))
	lv.set("tpwire.frames_per_payload_byte", float64(frames)/wireBytes)

	packets := lc.count(50_000)
	t0 = now()
	if err := netsimRun(packets); err != nil {
		return err
	}
	t1 = now()
	sl.add(tr.name("netsim", "cbr_link"), t0, t1, packets)
	lv.set("netsim.packets_per_host_s", float64(packets)/(float64(t1-t0)/1e9))

	var res simResults
	hostMs := map[string]string{"table4": "core.table4_host_ms", "sweep": "core.sweep_host_ms",
		"plan": "core.plan_grid_host_ms", "table3": "core.table3_host_ms", "cluster": "cluster.chaos_grid_host_ms"}
	for _, call := range simCalls(&res) {
		m0 := mallocs()
		t0 := now()
		c := call()
		t1 := now()
		if bad := goldenDiff(c.name, c.output); bad > 0 {
			return fmt.Errorf("ladder: %s differs from its golden in %d lines", c.name, bad)
		}
		sl.add(tr.name(c.layer, c.name), t0, t1, 1)
		lv.set(hostMs[c.name], float64(t1-t0)/1e6)
		if c.name == "plan" {
			lv.set("core.plan_grid_allocs", float64(mallocs()-m0))
		}
	}
	lv.set("core.table3_scale", res.table3Scale)
	lv.set("tpwire.payload_Bps_1mbit", res.payloadBps)
	lv.set("cluster.acked_per_sim_s", res.ackedPerSimS)
	lv.set("cluster.detect_sim_ms", res.detectMs)
	return nil
}
