// Network serving-plane load generator: the -netbench mode of
// cmd/tpbench. Closed-loop clients drive the full Figure 4 stack —
// wrapper.Client → framed transport → gateway → RMI → Space — over
// real loopback TCP and over the in-process pipe, and report
// throughput, latency percentiles, and allocations per operation.

package core

import (
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"tpspace/internal/sim"
	"tpspace/internal/space"
	"tpspace/internal/transport"
	"tpspace/internal/tuple"
	"tpspace/internal/wrapper"
)

// NetBenchConfig shapes one netbench run.
type NetBenchConfig struct {
	Clients    int    // closed-loop client goroutines (default 64)
	Conns      int    // connections the clients share (default 4)
	Ops        int    // total timed requests across all clients (default 20000)
	Codec      string // "xml" (default) or "binary"
	Transport  string // "tcp" (loopback TCP, default) or "pipe" (in-proc)
	Workers    int    // gateway dispatch workers per connection (default 4; <=1 sequential)
	Shards     int    // space shards (default 4)
	BatchOps   int    // client-side multi-op coalescing, binary codec only (<=1 off)
	NoAffinity bool   // shared dispatch queue instead of per-shard worker queues
}

// DefaultNetBenchConfig is the acceptance-scenario shape: 64 closed-loop
// clients multiplexed over 4 loopback TCP connections (16 in-flight
// requests per connection — enough concurrency for the writer to form
// real writev batches, as a multiplexing client library would).
func DefaultNetBenchConfig() NetBenchConfig {
	return NetBenchConfig{
		Clients: 64, Conns: 4, Ops: 20_000,
		Codec: "xml", Transport: "tcp", Workers: 4, Shards: 4,
	}
}

func (c *NetBenchConfig) fill() {
	def := DefaultNetBenchConfig()
	if c.Clients <= 0 {
		c.Clients = def.Clients
	}
	if c.Conns <= 0 {
		c.Conns = def.Conns
	}
	if c.Conns > c.Clients {
		c.Conns = c.Clients
	}
	if c.Ops <= 0 {
		c.Ops = def.Ops
	}
	if c.Codec == "" {
		c.Codec = def.Codec
	}
	if c.Transport == "" {
		c.Transport = def.Transport
	}
	if c.Workers == 0 {
		c.Workers = def.Workers
	}
	if c.Shards <= 0 {
		c.Shards = def.Shards
	}
}

// Name labels the run in reports: transport/batched/codec (the middle
// token is fixed; BENCH_net.json rows are keyed by it), with suffixes
// for multi-op coalescing (/bK) and shared-queue dispatch (/noaff).
func (c NetBenchConfig) Name() string {
	name := c.Transport + "/batched/" + c.Codec
	if c.BatchOps > 1 {
		name += fmt.Sprintf("/b%d", c.BatchOps)
	}
	if c.NoAffinity {
		name += "/noaff"
	}
	return name
}

// NetBenchResult is one measured netbench run.
type NetBenchResult struct {
	Config      NetBenchConfig
	Ops         int
	Elapsed     time.Duration
	OpsPerSec   float64
	P50         time.Duration
	P99         time.Duration
	AllocsPerOp float64
}

// netBenchTimeout bounds each blocking take; every take follows its
// own write, so hitting it means the stack lost a request.
const netBenchTimeout = 30 * time.Second

// RunNetBench executes one closed-loop run and returns its measures.
func RunNetBench(cfg NetBenchConfig) NetBenchResult {
	cfg.fill()
	sp := space.New(space.NewRealRuntime(), space.WithShards(cfg.Shards))

	var gwOpts []wrapper.GatewayOption
	if cfg.Workers > 1 {
		gwOpts = append(gwOpts, wrapper.WithWorkers(cfg.Workers))
	}
	if cfg.NoAffinity {
		gwOpts = append(gwOpts, wrapper.WithoutAffinity())
	}
	var cliOpts []wrapper.ClientOption
	if cfg.Codec == "binary" {
		cliOpts = append(cliOpts, wrapper.WithBinaryCodec())
		if cfg.BatchOps > 1 {
			cliOpts = append(cliOpts, wrapper.WithBatchOps(cfg.BatchOps))
		}
	}

	clients := make([]*wrapper.Client, cfg.Conns)
	var stacks []*wrapper.ServerStack
	var ln net.Listener
	switch cfg.Transport {
	case "pipe":
		for i := range clients {
			a, b := transport.NewLoopback()
			stacks = append(stacks, wrapper.NewServerStack(b, sp, gwOpts...))
			clients[i] = wrapper.NewClient(a, cliOpts...)
		}
	default: // tcp
		var err error
		ln, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			panic(fmt.Sprintf("netbench: listen: %v", err))
		}
		accepted := make(chan *wrapper.ServerStack, cfg.Conns)
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
				panic(fmt.Sprintf("netbench: dial: %v", err))
			}
			clients[i] = wrapper.NewClient(transport.NewTCPConn(nc), cliOpts...)
			stacks = append(stacks, <-accepted)
		}
	}

	// Each client goroutine alternates write and take of its own
	// concrete tuple — every request is one full round trip, every
	// take is a hit, and the space returns to (near) its initial size.
	opsPer := cfg.Ops / cfg.Clients
	if opsPer < 2 {
		opsPer = 2
	}
	totalOps := opsPer * cfg.Clients
	lat := make([]time.Duration, totalOps)
	timeout := sim.DurationOf(netBenchTimeout)

	// Warm the stack before the measured window opens: fills the
	// buffer/request pools and dispatch queues, and absorbs scheduler
	// noise from a previous run's teardown — suite rows otherwise
	// inherit the prior row's dying goroutines as startup jitter.
	for _, cli := range clients {
		w := tuple.New("netwarm", tuple.Int("c", 0))
		for i := 0; i < 8; i++ {
			if err := cli.WriteWait(w, space.NoLease); err != nil {
				panic("netbench: warmup write: " + err.Error())
			}
			if _, ok := cli.TakeWait(w, timeout); !ok {
				panic("netbench: warmup take missed its write")
			}
		}
	}

	var memBefore, memAfter runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&memBefore)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cli := clients[c%cfg.Conns]
			base := c * opsPer
			// The loop itself is frugal — one reused request tuple, one
			// reused result tuple (TakeWaitInto recycles its storage),
			// and the blocking conveniences, whose pooled completion
			// cells park and wake without allocating — so allocs/op
			// measures the serving stack, not the load generator.
			tup := tuple.New("net",
				tuple.Int("c", int64(c)), tuple.Int("seq", 0))
			var got tuple.Tuple
			for j := 0; j < opsPer; j++ {
				tup.Fields[1].Int = int64(j / 2)
				t0 := time.Now()
				if j%2 == 0 {
					if err := cli.WriteWait(tup, space.NoLease); err != nil {
						panic("netbench: write: " + err.Error())
					}
				} else if !cli.TakeWaitInto(&got, tup, timeout) {
					panic("netbench: take missed its own write")
				}
				lat[base+j] = time.Since(t0)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&memAfter)

	for _, cli := range clients {
		_ = cli.Close()
	}
	for _, st := range stacks {
		_ = st.Gateway.Close()
	}
	if ln != nil {
		_ = ln.Close()
	}

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	res := NetBenchResult{
		Config:      cfg,
		Ops:         totalOps,
		Elapsed:     elapsed,
		OpsPerSec:   float64(totalOps) / elapsed.Seconds(),
		P50:         lat[totalOps/2],
		P99:         lat[totalOps*99/100],
		AllocsPerOp: float64(memAfter.Mallocs-memBefore.Mallocs) / float64(totalOps),
	}
	return res
}

// NetBenchSuite is the -netbench report: the serving plane across
// transports and codecs, on one workload shape.
type NetBenchSuite struct {
	Results []NetBenchResult
}

// RunNetBenchSuite measures the serving-plane matrix. codec restricts
// the rows to one codec ("" = both).
func RunNetBenchSuite(cfg NetBenchConfig, codec string) NetBenchSuite {
	cfg.fill()
	var runs []NetBenchConfig
	add := func(transportName string, c string, batchOps int, noAffinity bool) {
		r := cfg
		r.Transport = transportName
		r.Codec = c
		r.BatchOps = batchOps
		r.NoAffinity = noAffinity
		runs = append(runs, r)
	}
	if codec == "" || codec == "xml" {
		add("tcp", "xml", 0, false)
		add("pipe", "xml", 0, false)
	}
	if codec == "" || codec == "binary" {
		add("tcp", "binary", 0, false)
		add("pipe", "binary", 0, false)
		// The tentpole A/B rows: multi-op coalescing (cfg.BatchOps, or 8
		// by default), and shared-queue dispatch with affinity routing
		// disabled.
		bk := 8
		if cfg.BatchOps > 1 {
			bk = cfg.BatchOps
		}
		add("tcp", "binary", bk, false)
		add("pipe", "binary", bk, false)
		add("pipe", "binary", 0, true)
	}
	var s NetBenchSuite
	for _, r := range runs {
		s.Results = append(s.Results, RunNetBench(r))
	}
	return s
}

// Format renders the suite as the -netbench report.
func (s NetBenchSuite) Format() string {
	var b strings.Builder
	if len(s.Results) == 0 {
		return "netbench: no results\n"
	}
	c := s.Results[0].Config
	fmt.Fprintf(&b, "Network serving-plane workload: %d clients over %d conns, %d ops/run, %d gateway workers, %d shard(s)\n",
		c.Clients, c.Conns, s.Results[0].Ops, c.Workers, c.Shards)
	fmt.Fprintf(&b, "%-22s %12s %10s %10s %12s\n",
		"plane", "ops/sec", "p50", "p99", "allocs/op")
	for _, r := range s.Results {
		fmt.Fprintf(&b, "%-22s %12.0f %10s %10s %12.1f\n",
			r.Config.Name(), r.OpsPerSec,
			r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond),
			r.AllocsPerOp)
	}
	return b.String()
}

// netBenchRecord is the BENCH_net.json schema.
type netBenchRecord struct {
	Name        string  `json:"name"`
	Clients     int     `json:"clients"`
	Conns       int     `json:"conns"`
	Ops         int     `json:"ops"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	P50Ns       int64   `json:"p50_ns"`
	P99Ns       int64   `json:"p99_ns"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// JSON renders the suite as the BENCH_net.json records.
func (s NetBenchSuite) JSON() (string, error) {
	recs := make([]netBenchRecord, 0, len(s.Results))
	for _, r := range s.Results {
		recs = append(recs, netBenchRecord{
			Name:        "netbench/" + r.Config.Name(),
			Clients:     r.Config.Clients,
			Conns:       r.Config.Conns,
			Ops:         r.Ops,
			GoMaxProcs:  runtime.GOMAXPROCS(0),
			OpsPerSec:   r.OpsPerSec,
			P50Ns:       r.P50.Nanoseconds(),
			P99Ns:       r.P99.Nanoseconds(),
			AllocsPerOp: r.AllocsPerOp,
		})
	}
	out, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}
