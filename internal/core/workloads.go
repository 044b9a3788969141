// Classic tuplespace serving workloads: the -workload mode of
// cmd/tpbench. Four closed-loop coordination patterns from the Linda
// literature — master/worker task bag, multi-stage pipeline,
// notify-driven event stream, and the paper's FFT compute farm — each
// runnable deterministically on the simulation kernel (callback state
// machines, virtual time, byte-identical output for a given seed) and
// as a real load generator over the direct space, the in-process pipe
// transport, or loopback TCP with the binary codec.
//
// Every pattern leans on typed wildcard templates ("give me any
// task"), the traffic shape the partial-signature shard routing
// tentpole serves: under default kind routing those templates home to
// one shard; the in-binary baseline (space.WithValueRouting) reproduces
// the legacy all-shard locking so each pattern reports an honest
// before/after speedup.

package core

import (
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tpspace/internal/agents"
	"tpspace/internal/sim"
	"tpspace/internal/space"
	"tpspace/internal/transport"
	"tpspace/internal/tuple"
	"tpspace/internal/wrapper"
)

// WorkloadPatterns lists the serving patterns in report order.
var WorkloadPatterns = []string{"masterworker", "pipeline", "stream", "farm"}

// WorkloadConfig shapes one workload run.
type WorkloadConfig struct {
	Pattern  string // masterworker | pipeline | stream | farm
	Plane    string // sim | local (direct space) | pipe | tcp
	Clients  int    // workers / subscribers / consumers (default 8)
	Tasks    int    // work units (default 2000; farm 24)
	Stages   int    // pipeline depth (default 4)
	Shards   int    // space shards (default 8)
	Payload  int    // payload bytes per task (default 64)
	Seed     int64  // payload and sim determinism seed (default 1)
	Baseline bool   // legacy all-shard value routing (space.WithValueRouting)
}

func (c *WorkloadConfig) fill() {
	if c.Pattern == "" {
		c.Pattern = "masterworker"
	}
	if c.Plane == "" {
		c.Plane = "local"
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.Tasks <= 0 {
		if c.Pattern == "farm" {
			c.Tasks = 24
		} else {
			c.Tasks = 2000
		}
	}
	if c.Stages <= 0 {
		c.Stages = 4
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.Payload <= 0 {
		c.Payload = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Name labels the run in reports: pattern/plane, with a /baseline
// suffix for the all-shard routing mode.
func (c WorkloadConfig) Name() string {
	name := c.Pattern + "/" + c.Plane
	if c.Baseline {
		name += "/baseline"
	}
	return name
}

// WorkloadResult is one measured workload run. On the sim plane
// Elapsed is virtual kernel time — deterministic for a given config
// and seed; on the real planes it is wall clock.
type WorkloadResult struct {
	Config     WorkloadConfig
	Units      int           // completed work units (tasks, tokens, events, jobs)
	Elapsed    time.Duration // sim or wall time for the batch
	PerSec     float64       // Units / Elapsed
	MeanLat    time.Duration // per-unit round trip where the pattern measures one (farm)
	Deliveries int           // stream: notify events delivered across all subscribers
}

// workloadTimeout bounds every blocking take on the real planes; each
// take is matched by a preceding or concurrent write, so hitting it
// means the serving stack lost a tuple.
const workloadTimeout = 30 * time.Second

// simThink is the stream producer's simulated event period; the farm
// keeps the paper-flavoured 200ms FPU transform from
// examples/fftfarm.
const simThink = sim.Millisecond

// wlThink is the simulated per-unit compute cost for the masterworker
// and pipeline serving estimates — about what the checksum costs on
// the reference host, so the store (not worker compute) stays the
// bottleneck, as in the wall-clock runs.
const wlThink = 2 * sim.Microsecond

// farmThink is the simulated FFT transform cost per job.
const farmThink = 200 * sim.Millisecond

// newWorkloadSpace builds the store under test: sharded, with the
// tentpole kind routing by default and the legacy all-shard value
// routing when Baseline is set.
func newWorkloadSpace(rt space.Runtime, cfg WorkloadConfig) *space.Space {
	opts := []space.Option{space.WithShards(cfg.Shards)}
	if cfg.Baseline {
		opts = append(opts, space.WithValueRouting())
	}
	return space.New(rt, opts...)
}

// Tuple vocabulary shared by the sim and real planes. The masterworker
// pattern is multi-tenant: the server hosts several independent
// master/worker jobs, each with its own task and result kinds — the
// serving scenario where all-shard locking hurts most, because one
// job's wildcard takes serialize every other job's traffic while kind
// routing keeps each job on its own home shards.
func wlTask(group int, id int64, payload []byte) tuple.Tuple {
	return tuple.New(fmt.Sprintf("task%d", group),
		tuple.Int("id", id), tuple.Bytes("p", payload))
}

func wlAnyTask(group int) tuple.Tuple {
	return tuple.New(fmt.Sprintf("task%d", group),
		tuple.AnyInt("id"), tuple.AnyBytes("p"))
}

func wlResult(group int, id, sum int64) tuple.Tuple {
	return tuple.New(fmt.Sprintf("result%d", group),
		tuple.Int("id", id), tuple.Int("sum", sum))
}

func wlAnyResult(group int) tuple.Tuple {
	return tuple.New(fmt.Sprintf("result%d", group),
		tuple.AnyInt("id"), tuple.AnyInt("sum"))
}

// wlGroups is the number of independent master/worker jobs the
// masterworker pattern serves concurrently: half the worker count, so
// every job keeps at least two workers, and never more jobs than
// tasks.
func wlGroups(cfg WorkloadConfig) int {
	g := cfg.Clients / 2
	if g < 1 {
		g = 1
	}
	if g > cfg.Tasks {
		g = cfg.Tasks
	}
	return g
}

// wlSplit spreads total units over parts as evenly as possible (the
// first total%parts parts get one extra).
func wlSplit(total, parts int) []int {
	out := make([]int, parts)
	base, rem := total/parts, total%parts
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

func wlStage(i int, id int64, payload []byte) tuple.Tuple {
	return tuple.New(fmt.Sprintf("stage%d", i),
		tuple.Int("id", id), tuple.Bytes("p", payload))
}

func wlAnyStage(i int) tuple.Tuple {
	return tuple.New(fmt.Sprintf("stage%d", i),
		tuple.AnyInt("id"), tuple.AnyBytes("p"))
}

func wlEvent(seq int64, payload []byte) tuple.Tuple {
	return tuple.New("event", tuple.Int("seq", seq), tuple.Bytes("p", payload))
}

func wlAnyEvent() tuple.Tuple {
	return tuple.New("event", tuple.AnyInt("seq"), tuple.AnyBytes("p"))
}

// wlPayloads derives the per-task payloads from the seed — identical
// across planes and worker counts, so the sim plane's output is a
// pure function of the config.
func wlPayloads(cfg WorkloadConfig) [][]byte {
	out := make([][]byte, cfg.Tasks)
	state := uint64(cfg.Seed)
	for i := range out {
		p := make([]byte, cfg.Payload)
		for j := range p {
			// splitmix-style stream: cheap, deterministic, seedable.
			state += 0x9e3779b97f4a7c15
			z := state
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			p[j] = byte(z >> 56)
		}
		out[i] = p
	}
	return out
}

// wlChecksum is the worker's "computation" on the real planes: cheap
// on purpose, so the measurement stays on the serving stack.
func wlChecksum(p []byte) int64 {
	var s int64
	for _, b := range p {
		s = s*131 + int64(b)
	}
	return s
}

// wlSamples derives the farm's FFT input vectors from the seed.
func wlSamples(cfg WorkloadConfig, n int) [][]float64 {
	out := make([][]float64, cfg.Tasks)
	state := uint64(cfg.Seed) * 0x9e3779b97f4a7c15
	for i := range out {
		v := make([]float64, n)
		for j := range v {
			state += 0x9e3779b97f4a7c15
			z := (state ^ (state >> 31)) * 0xbf58476d1ce4e5b9
			v[j] = float64(int64(z>>32))/float64(1<<31) - 0.5
		}
		out[i] = v
	}
	return out
}

// farmSampleLen is the per-job FFT vector length (power of two).
const farmSampleLen = 64

// RunWorkload executes one workload run and returns its measures.
func RunWorkload(cfg WorkloadConfig) WorkloadResult {
	cfg.fill()
	if cfg.Plane == "sim" {
		return runWorkloadSim(cfg)
	}
	return runWorkloadReal(cfg)
}

// --- sim plane: deterministic callback state machines ----------------

// The sim plane is the paper's methodology applied to the store
// itself: estimate serving performance from measured per-operation
// service times plus an occupancy model of the shared resource —
// there the bus, here the shard locks. Space operations execute
// instantly in the simulated store; the model charges each one
// virtual service time on the shard(s) it locks, so operations queue
// exactly where the real store serializes. A kind-routed operation
// occupies its one home shard; an all-shard operation (wildcard
// template under the value-routing baseline) occupies every shard at
// once and admits nothing else until it completes — the serialization
// the routing tentpole removes. Unlike the wall-clock planes, whose
// single-host numbers flatten the concurrency effect, the estimate
// shows how the two routing modes scale with many concurrent clients,
// deterministically, on any host.

// wlSvcOp is the modeled service time of one space operation on its
// home shard, and wlSvcProbe the incremental cost of each additional
// shard an all-shard operation must lock and probe. Both come from
// the committed space microbenches (BenchmarkSpaceTakeKindHit100k
// ≈ 460ns single-shard vs ≈ 790ns for the value-routed all-shard take
// at 8 shards: ≈ 500ns base + ≈ 45ns per extra shard).
const (
	wlSvcOp    = 500 * sim.Nanosecond
	wlSvcProbe = 45 * sim.Nanosecond
)

// wlModel tracks per-shard busy-until times in virtual time.
type wlModel struct {
	k    *sim.Kernel
	sp   *space.Space
	busy []sim.Time
}

func newWLModel(k *sim.Kernel, sp *space.Space) *wlModel {
	return &wlModel{k: k, sp: sp, busy: make([]sim.Time, sp.Shards())}
}

// op charges the model for one space operation on tuple or template t
// and returns the virtual delay until the operation completes. The
// shard set mirrors the store's own routing rule: RouteSig at the
// space's route prefix names the home shard; a template it cannot
// route (wildcard under value routing, fully untyped otherwise) locks
// every shard for the base service plus a probe of each extra shard.
func (m *wlModel) op(t tuple.Tuple) sim.Duration {
	now := m.k.Now()
	if rh, ok := t.RouteSig(m.sp.RoutePrefix()); ok {
		sh := m.sp.ShardOf(rh)
		start := now
		if m.busy[sh] > start {
			start = m.busy[sh]
		}
		end := start.Add(wlSvcOp)
		m.busy[sh] = end
		return end.Sub(now)
	}
	start := now
	for _, b := range m.busy {
		if b > start {
			start = b
		}
	}
	end := start.Add(wlSvcOp + sim.Duration(len(m.busy)-1)*wlSvcProbe)
	for i := range m.busy {
		m.busy[i] = end
	}
	return end.Sub(now)
}

func runWorkloadSim(cfg WorkloadConfig) WorkloadResult {
	k := sim.NewKernel(cfg.Seed)
	defer k.Shutdown()
	s := newWorkloadSpace(space.SimRuntime{K: k}, cfg)
	res := WorkloadResult{Config: cfg}

	switch cfg.Pattern {
	case "masterworker":
		payloads := wlPayloads(cfg)
		model := newWLModel(k, s)
		groups := wlGroups(cfg)
		gTasks := wlSplit(cfg.Tasks, groups)
		gWorkers := wlSplit(cfg.Clients, groups)
		collected := 0
		offset := 0
		for g := 0; g < groups; g++ {
			g, base, n := g, offset, gTasks[g]
			offset += n
			// Each job's master keeps a bounded window of tasks
			// outstanding — one per worker — and injects the next task
			// as each result returns, the classic flow-controlled
			// master loop.
			window := gWorkers[g]
			if window > n {
				window = n
			}
			written, got := 0, 0
			var writeNext func(then func())
			writeNext = func(then func()) {
				id := base + written
				t := wlTask(g, int64(id), payloads[id])
				k.Schedule(model.op(t), func() {
					s.Write(t, space.NoLease)
					written++
					then()
				})
			}
			var collect func()
			collect = func() {
				tmpl := wlAnyResult(g)
				k.Schedule(model.op(tmpl), func() {
					s.Take(tmpl, sim.Forever, func(tuple.Tuple, bool) {
						got++
						collected++
						switch {
						case written < n:
							writeNext(collect)
						case got < n:
							collect()
						}
					})
				})
			}
			var worker func()
			worker = func() {
				tmpl := wlAnyTask(g)
				k.Schedule(model.op(tmpl), func() {
					s.Take(tmpl, sim.Forever, func(tp tuple.Tuple, ok bool) {
						if !ok {
							return
						}
						id, sum := tp.Fields[0].Int, wlChecksum(tp.Fields[1].Bytes)
						k.Schedule(wlThink, func() {
							t := wlResult(g, id, sum)
							k.Schedule(model.op(t), func() {
								s.Write(t, space.NoLease)
								worker()
							})
						})
					})
				})
			}
			for w := 0; w < gWorkers[g]; w++ {
				worker()
			}
			var prime func()
			prime = func() {
				if written < window {
					writeNext(prime)
					return
				}
				collect()
			}
			prime()
		}
		k.Run()
		res.Units = collected

	case "pipeline":
		payloads := wlPayloads(cfg)
		model := newWLModel(k, s)
		collected := 0
		var collect func()
		collect = func() {
			tmpl := wlAnyStage(cfg.Stages)
			k.Schedule(model.op(tmpl), func() {
				s.Take(tmpl, sim.Forever, func(tuple.Tuple, bool) {
					collected++
					if collected < cfg.Tasks {
						collect()
					}
				})
			})
		}
		var stageWorker func(stage int)
		stageWorker = func(stage int) {
			tmpl := wlAnyStage(stage)
			k.Schedule(model.op(tmpl), func() {
				s.Take(tmpl, sim.Forever, func(tp tuple.Tuple, ok bool) {
					if !ok {
						return
					}
					id, p := tp.Fields[0].Int, tp.Fields[1].Bytes
					k.Schedule(wlThink, func() {
						t := wlStage(stage+1, id, p)
						k.Schedule(model.op(t), func() {
							s.Write(t, space.NoLease)
							stageWorker(stage)
						})
					})
				})
			})
		}
		perStage := cfg.Clients / cfg.Stages
		if perStage < 1 {
			perStage = 1
		}
		collect()
		for st := 0; st < cfg.Stages; st++ {
			for w := 0; w < perStage; w++ {
				stageWorker(st)
			}
		}
		// The source feeds the first stage as fast as the store admits
		// its writes.
		feed := 0
		var source func()
		source = func() {
			if feed >= cfg.Tasks {
				return
			}
			t := wlStage(0, int64(feed), payloads[feed])
			feed++
			k.Schedule(model.op(t), func() {
				s.Write(t, space.NoLease)
				source()
			})
		}
		source()
		k.Run()
		res.Units = collected

	case "stream":
		payloads := wlPayloads(cfg)
		model := newWLModel(k, s)
		delivered := 0
		for sub := 0; sub < cfg.Clients; sub++ {
			s.Notify(wlAnyEvent(), func(tuple.Tuple) { delivered++ })
		}
		var produce func(i int)
		produce = func(i int) {
			if i >= cfg.Tasks {
				return
			}
			k.Schedule(simThink, func() {
				t := wlEvent(int64(i), payloads[i])
				k.Schedule(model.op(t), func() {
					s.Write(t, space.NoLease)
					produce(i + 1)
				})
			})
		}
		produce(0)
		k.Run()
		// Drain the published events (untimed housekeeping).
		for {
			if _, ok := s.TakeIfExists(wlAnyEvent()); !ok {
				break
			}
		}
		res.Units = cfg.Tasks
		res.Deliveries = delivered

	case "farm":
		api := agents.LocalSpace{S: s}
		samples := wlSamples(cfg, farmSampleLen)
		var consumers []*agents.FFTConsumer
		for cNum := 0; cNum < cfg.Clients; cNum++ {
			c := agents.NewFFTConsumer(k, api, fmt.Sprintf("hp-%d", cNum), farmThink)
			c.Start()
			consumers = append(consumers, c)
		}
		prod := agents.NewFFTProducer(k, api, "lp-0")
		for _, v := range samples {
			prod.Submit(v, nil)
		}
		k.Run()
		for _, c := range consumers {
			c.Stop()
		}
		res.Units = int(prod.Completed)
		res.MeanLat = prod.MeanLatency().Std()

	default:
		panic("workload: unknown pattern " + cfg.Pattern)
	}

	res.Elapsed = sim.Duration(k.Now()).Std()
	if res.Elapsed > 0 {
		res.PerSec = float64(res.Units) / res.Elapsed.Seconds()
	}
	return res
}

// --- real planes: closed-loop goroutines over a blocking facade ------

// wlConn is the narrow blocking surface a workload participant needs;
// one per participant so the pipe/tcp planes give every worker its own
// connection, as distributed clients would have.
type wlConn struct {
	write  func(t tuple.Tuple)
	take   func(tmpl tuple.Tuple) (tuple.Tuple, bool)
	notify func(tmpl tuple.Tuple, fn func(tuple.Tuple))
}

// wlStack is the serving stack under test plus its teardown.
type wlStack struct {
	conns []wlConn
	close func()
}

func newWorkloadStack(cfg WorkloadConfig, participants int) wlStack {
	sp := newWorkloadSpace(space.NewRealRuntime(), cfg)
	timeout := sim.DurationOf(workloadTimeout)

	if cfg.Plane == "local" {
		conn := wlConn{
			write: func(t tuple.Tuple) {
				// Put is the serving plane's freelisted write path: same
				// store machinery as Write, no lease materialization.
				if err := sp.Put(t, space.NoLease); err != nil {
					panic("workload: write: " + err.Error())
				}
			},
			take: func(tmpl tuple.Tuple) (tuple.Tuple, bool) {
				return sp.TakeWait(tmpl, timeout)
			},
			notify: func(tmpl tuple.Tuple, fn func(tuple.Tuple)) {
				sp.Notify(tmpl, fn)
			},
		}
		conns := make([]wlConn, participants)
		for i := range conns {
			conns[i] = conn
		}
		return wlStack{conns: conns, close: func() {}}
	}

	// pipe / tcp: the full Figure 4 stack with the binary codec and
	// shard-affinity gateway dispatch, one connection per participant.
	gwOpts := []wrapper.GatewayOption{wrapper.WithWorkers(4)}
	cliOpts := []wrapper.ClientOption{wrapper.WithBinaryCodec()}
	hub := wrapper.NewNotifyHub()
	gwOpts = append(gwOpts, wrapper.WithNotifyHub(hub))

	clients := make([]*wrapper.Client, participants)
	var stacks []*wrapper.ServerStack
	var ln net.Listener
	switch cfg.Plane {
	case "pipe":
		for i := range clients {
			a, b := transport.NewLoopback()
			stacks = append(stacks, wrapper.NewServerStack(b, sp, gwOpts...))
			clients[i] = wrapper.NewClient(a, cliOpts...)
		}
	case "tcp":
		var err error
		ln, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			panic("workload: listen: " + err.Error())
		}
		accepted := make(chan *wrapper.ServerStack, participants)
		go func() {
			for {
				nc, err := ln.Accept()
				if err != nil {
					return
				}
				accepted <- wrapper.NewServerStack(transport.NewTCPConn(nc), sp, gwOpts...)
			}
		}()
		for i := range clients {
			nc, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				panic("workload: dial: " + err.Error())
			}
			clients[i] = wrapper.NewClient(transport.NewTCPConn(nc), cliOpts...)
			stacks = append(stacks, <-accepted)
		}
	default:
		panic("workload: unknown plane " + cfg.Plane)
	}

	conns := make([]wlConn, participants)
	for i := range conns {
		cli := clients[i]
		conns[i] = wlConn{
			write: func(t tuple.Tuple) {
				if err := cli.WriteWait(t, space.NoLease); err != nil {
					panic("workload: write: " + err.Error())
				}
			},
			take: func(tmpl tuple.Tuple) (tuple.Tuple, bool) {
				return cli.TakeWait(tmpl, timeout)
			},
			notify: func(tmpl tuple.Tuple, fn func(tuple.Tuple)) {
				ok := make(chan bool, 1)
				cli.Notify(tmpl, fn, func(k bool) { ok <- k })
				if !<-ok {
					panic("workload: notify registration refused")
				}
			},
		}
	}
	return wlStack{conns: conns, close: func() {
		for _, cli := range clients {
			_ = cli.Close()
		}
		for _, st := range stacks {
			_ = st.Gateway.Close()
		}
		if ln != nil {
			_ = ln.Close()
		}
	}}
}

func runWorkloadReal(cfg WorkloadConfig) WorkloadResult {
	res := WorkloadResult{Config: cfg}
	switch cfg.Pattern {
	case "masterworker":
		groups := wlGroups(cfg)
		gTasks := wlSplit(cfg.Tasks, groups)
		gWorkers := wlSplit(cfg.Clients, groups)
		st := newWorkloadStack(cfg, groups+cfg.Clients)
		defer st.close()
		masters := st.conns[:groups]
		payloads := wlPayloads(cfg)
		var wwg, mwg sync.WaitGroup
		next := groups
		for g := 0; g < groups; g++ {
			for w := 0; w < gWorkers[g]; w++ {
				conn, g := st.conns[next], g
				next++
				wwg.Add(1)
				go func() {
					defer wwg.Done()
					tmpl := wlAnyTask(g)
					for {
						tp, ok := conn.take(tmpl)
						if !ok {
							panic("workload: task take timed out")
						}
						id := tp.Fields[0].Int
						if id < 0 {
							return
						}
						conn.write(wlResult(g, id, wlChecksum(tp.Fields[1].Bytes)))
					}
				}()
			}
		}
		offset := 0
		offsets := make([]int, groups)
		for g := 0; g < groups; g++ {
			offsets[g] = offset
			offset += gTasks[g]
		}
		start := time.Now()
		for g := 0; g < groups; g++ {
			master, g := masters[g], g
			mwg.Add(1)
			go func() {
				defer mwg.Done()
				base, n := offsets[g], gTasks[g]
				// Flow-controlled task bag: each job's master keeps one
				// task per worker outstanding and injects the next as
				// each result returns.
				window := gWorkers[g]
				if window > n {
					window = n
				}
				for i := 0; i < window; i++ {
					master.write(wlTask(g, int64(base+i), payloads[base+i]))
				}
				tmpl := wlAnyResult(g)
				for i := 0; i < n; i++ {
					if _, ok := master.take(tmpl); !ok {
						panic("workload: result take timed out")
					}
					if next := base + window + i; next < base+n {
						master.write(wlTask(g, int64(next), payloads[next]))
					}
				}
			}()
		}
		mwg.Wait()
		res.Elapsed = time.Since(start)
		for g := 0; g < groups; g++ {
			for w := 0; w < gWorkers[g]; w++ {
				masters[g].write(wlTask(g, -1, nil))
			}
		}
		wwg.Wait()
		res.Units = cfg.Tasks

	case "pipeline":
		perStage := cfg.Clients / cfg.Stages
		if perStage < 1 {
			perStage = 1
		}
		st := newWorkloadStack(cfg, cfg.Stages*perStage+1)
		defer st.close()
		master := st.conns[0]
		payloads := wlPayloads(cfg)
		var wg sync.WaitGroup
		for stage := 0; stage < cfg.Stages; stage++ {
			for w := 0; w < perStage; w++ {
				conn := st.conns[1+stage*perStage+w]
				stage := stage
				wg.Add(1)
				go func() {
					defer wg.Done()
					tmpl := wlAnyStage(stage)
					for {
						tp, ok := conn.take(tmpl)
						if !ok {
							panic("workload: stage take timed out")
						}
						id := tp.Fields[0].Int
						if id < 0 {
							return
						}
						conn.write(wlStage(stage+1, id, tp.Fields[1].Bytes))
					}
				}()
			}
		}
		start := time.Now()
		for i := 0; i < cfg.Tasks; i++ {
			master.write(wlStage(0, int64(i), payloads[i]))
		}
		tmpl := wlAnyStage(cfg.Stages)
		for i := 0; i < cfg.Tasks; i++ {
			if _, ok := master.take(tmpl); !ok {
				panic("workload: pipeline sink take timed out")
			}
		}
		res.Elapsed = time.Since(start)
		for stage := 0; stage < cfg.Stages; stage++ {
			for w := 0; w < perStage; w++ {
				master.write(wlStage(stage, -1, nil))
			}
		}
		wg.Wait()
		res.Units = cfg.Tasks

	case "stream":
		st := newWorkloadStack(cfg, cfg.Clients+1)
		defer st.close()
		producer, subs := st.conns[0], st.conns[1:]
		payloads := wlPayloads(cfg)
		var delivered atomic.Int64
		var wg sync.WaitGroup
		target := int64(cfg.Tasks)
		for _, sub := range subs {
			wg.Add(1)
			var seen int64
			var once sync.Once
			sub.notify(wlAnyEvent(), func(tuple.Tuple) {
				delivered.Add(1)
				seen++
				if seen >= target {
					once.Do(wg.Done)
				}
			})
		}
		start := time.Now()
		for i := 0; i < cfg.Tasks; i++ {
			producer.write(wlEvent(int64(i), payloads[i]))
		}
		wg.Wait()
		res.Elapsed = time.Since(start)
		// Drain the published events (untimed housekeeping).
		for i := 0; i < cfg.Tasks; i++ {
			if _, ok := producer.take(wlAnyEvent()); !ok {
				panic("workload: event drain take timed out")
			}
		}
		res.Units = cfg.Tasks
		res.Deliveries = int(delivered.Load())

	case "farm":
		st := newWorkloadStack(cfg, cfg.Clients+1)
		defer st.close()
		producer, workers := st.conns[0], st.conns[1:]
		samples := wlSamples(cfg, farmSampleLen)
		var wg sync.WaitGroup
		for _, w := range workers {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				tmpl := agents.AnyFFTRequest()
				for {
					req, ok := w.take(tmpl)
					if !ok {
						panic("workload: fft request take timed out")
					}
					if req.Fields[0].Int < 0 {
						return
					}
					w.write(agents.ComputeFFTResult(req))
				}
			}()
		}
		writtenAt := make([]time.Time, cfg.Tasks)
		start := time.Now()
		for i := 0; i < cfg.Tasks; i++ {
			writtenAt[i] = time.Now()
			producer.write(agents.NewFFTRequest(int64(i+1), samples[i]))
		}
		var totalLat time.Duration
		for i := 0; i < cfg.Tasks; i++ {
			if _, ok := producer.take(agents.FFTResultTemplate(int64(i + 1))); !ok {
				panic("workload: fft result take timed out")
			}
			totalLat += time.Since(writtenAt[i])
		}
		res.Elapsed = time.Since(start)
		for range workers {
			producer.write(agents.NewFFTRequest(-1, nil))
		}
		wg.Wait()
		res.Units = cfg.Tasks
		res.MeanLat = totalLat / time.Duration(cfg.Tasks)

	default:
		panic("workload: unknown pattern " + cfg.Pattern)
	}

	if res.Elapsed > 0 {
		res.PerSec = float64(res.Units) / res.Elapsed.Seconds()
	}
	return res
}

// --- suite, report, JSON ---------------------------------------------

// WorkloadSuite is the -workload report: per pattern, the
// deterministic sim row and the kind-routed vs all-shard-baseline
// pair on the serving plane.
type WorkloadSuite struct {
	Results []WorkloadResult
}

// RunWorkloadSuite measures the requested patterns ("all" or one
// name). Each pattern contributes a kind/baseline pair of
// deterministic sim rows (the serving estimate) plus a kind/baseline
// pair on cfg.Plane (wall clock; sim-only planes skip it).
func RunWorkloadSuite(cfg WorkloadConfig, pattern string) WorkloadSuite {
	patterns := WorkloadPatterns
	if pattern != "" && pattern != "all" {
		patterns = []string{pattern}
	}
	var s WorkloadSuite
	for _, p := range patterns {
		simCfg := cfg
		simCfg.Pattern = p
		simCfg.Plane = "sim"
		simCfg.Baseline = false
		s.Results = append(s.Results, RunWorkload(simCfg))
		simBase := simCfg
		simBase.Baseline = true
		s.Results = append(s.Results, RunWorkload(simBase))
		if cfg.Plane == "sim" {
			continue
		}
		real := cfg
		real.Pattern = p
		real.Baseline = false
		s.Results = append(s.Results, RunWorkload(real))
		base := real
		base.Baseline = true
		s.Results = append(s.Results, RunWorkload(base))
	}
	return s
}

// baselineFor returns the all-shard baseline throughput paired with r
// (same pattern and plane), or 0.
func (s WorkloadSuite) baselineFor(r WorkloadResult) float64 {
	for _, b := range s.Results {
		if b.Config.Baseline && b.Config.Pattern == r.Config.Pattern &&
			b.Config.Plane == r.Config.Plane {
			return b.PerSec
		}
	}
	return 0
}

// Format renders the suite as the -workload report.
func (s WorkloadSuite) Format() string {
	var b strings.Builder
	if len(s.Results) == 0 {
		return "workload: no results\n"
	}
	c := s.Results[len(s.Results)-1].Config
	fmt.Fprintf(&b, "Classic serving workloads: %d workers, %d shard(s)\n",
		c.Clients, c.Shards)
	fmt.Fprintf(&b, "%-28s %8s %12s %12s %10s %9s\n",
		"workload", "units", "elapsed", "units/sec", "mean-lat", "speedup")
	for _, r := range s.Results {
		lat := "-"
		if r.MeanLat > 0 {
			lat = r.MeanLat.Round(time.Microsecond).String()
		}
		speedup := "-"
		if base := s.baselineFor(r); base > 0 && !r.Config.Baseline {
			speedup = fmt.Sprintf("%.2fx", r.PerSec/base)
		}
		fmt.Fprintf(&b, "%-28s %8d %12s %12.0f %10s %9s\n",
			r.Config.Name(), r.Units, r.Elapsed.Round(time.Microsecond),
			r.PerSec, lat, speedup)
	}
	return b.String()
}

// workloadRecord is the BENCH_workloads.json schema. Sim rows carry
// only fields that are a pure function of (config, seed), so their
// bytes are reproducible anywhere.
type workloadRecord struct {
	Name              string  `json:"name"`
	Pattern           string  `json:"pattern"`
	Plane             string  `json:"plane"`
	Clients           int     `json:"clients"`
	Shards            int     `json:"shards"`
	Tasks             int     `json:"tasks"`
	Units             int     `json:"units"`
	ElapsedNs         int64   `json:"elapsed_ns"`
	UnitsPerSec       float64 `json:"units_per_sec"`
	MeanLatNs         int64   `json:"mean_lat_ns,omitempty"`
	Deliveries        int     `json:"deliveries,omitempty"`
	SpeedupVsBaseline float64 `json:"speedup_vs_baseline,omitempty"`
}

// JSON renders the suite as the BENCH_workloads.json records.
func (s WorkloadSuite) JSON() (string, error) {
	recs := make([]workloadRecord, 0, len(s.Results))
	for _, r := range s.Results {
		rec := workloadRecord{
			Name:        "workload/" + r.Config.Name(),
			Pattern:     r.Config.Pattern,
			Plane:       r.Config.Plane,
			Clients:     r.Config.Clients,
			Shards:      r.Config.Shards,
			Tasks:       r.Config.Tasks,
			Units:       r.Units,
			ElapsedNs:   r.Elapsed.Nanoseconds(),
			UnitsPerSec: r.PerSec,
			MeanLatNs:   r.MeanLat.Nanoseconds(),
			Deliveries:  r.Deliveries,
		}
		if base := s.baselineFor(r); base > 0 && !r.Config.Baseline {
			rec.SpeedupVsBaseline = r.PerSec / base
		}
		recs = append(recs, rec)
	}
	out, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}
