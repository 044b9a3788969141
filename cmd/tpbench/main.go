// Command tpbench regenerates every table and figure of the paper's
// evaluation (Section 5) from the simulation substrate:
//
//	tpbench                  # everything
//	tpbench -table 3         # Table 3 (NS2-TpWIRE validation)
//	tpbench -table 4         # Table 4 (tuplespace impact, full sweep)
//	tpbench -table frames    # Tables 1-2 (frame formats)
//	tpbench -fig 6           # Figure 6 scenario summary
//	tpbench -fig 7           # Figure 7 single case-study run
//	tpbench -chaos           # Table 4 scenario under injected faults
//	tpbench -cluster -chaos  # replicated multi-node cluster under the
//	                         # chaos harness: fault-rate x cluster-size
//	                         # degradation grid with a forced primary
//	                         # crash per cell (-json for the
//	                         # BENCH_cluster.json records)
//	tpbench -spacebench      # tuplespace serving-plane throughput
//	                         # (-shards n compares sharded stores)
//	tpbench -netbench        # network serving-plane load generator:
//	                         # closed-loop clients over loopback TCP and
//	                         # the in-proc pipe, both codecs
//	                         # (-clients n -netops n -codec xml|binary,
//	                         # -json for the BENCH_net.json records)
//	tpbench -netbench -scaling
//	                         # multi-core scaling sweep: the
//	                         # pipe/batched/binary closed loop under
//	                         # GOMAXPROCS 1,2,4,8 (points above NumCPU
//	                         # skipped; -json for BENCH_scaling.json)
//	tpbench -leasebench      # lease-engine churn: renew storm over the
//	                         # timing wheel, then a batched-expiry drain
//	                         # (-leases n; -json for BENCH_lease.json)
//	tpbench -notifybench     # durable notify sessions under write
//	                         # fan-out with a mid-run reconnect
//	                         # (-sessions n; combinable with -leasebench,
//	                         # -json folds both into BENCH_lease.json)
//	tpbench -workload masterworker|pipeline|stream|farm|all
//	                         # classic tuplespace serving workloads: a
//	                         # deterministic sim row plus kind-routed vs
//	                         # all-shard-baseline rows on the serving
//	                         # plane (-plane sim|local|pipe|tcp,
//	                         # -clients n -wtasks n -shards n -seed n;
//	                         # -json for BENCH_workloads.json)
//
// Independent co-simulations (Table 3 rows, Table 4 cells, sweep
// samples, planner grid points) fan out across all CPUs by default;
// -parallel 1 forces the sequential reference behaviour and any
// worker count produces byte-identical output. -cpuprofile writes a
// pprof profile of the run for hunting harness hot spots;
// -mutexprofile and -blockprofile capture lock contention and
// park/channel waits on the serving plane (the completion-path
// profiles the scaling sweep is tuned against).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"tpspace/internal/core"
	"tpspace/internal/frame"
	"tpspace/internal/sim"
)

// writeProfile dumps one named runtime profile on exit (deferred, so
// it captures the whole run).
func writeProfile(name, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tpbench: %v\n", err)
		return
	}
	defer f.Close()
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "tpbench: %v\n", err)
	}
}

func main() {
	table := flag.String("table", "", "regenerate one table: 3, 4 or frames")
	fig := flag.Int("fig", 0, "regenerate one figure scenario: 6 or 7")
	realtime := flag.Bool("realtime", false, "pace validation against the wall clock (Table 3)")
	speedup := flag.Float64("speedup", 100, "real-time speedup factor")
	sweep := flag.Bool("sweep", false, "sweep CBR load and print the completion-time curve (CSV)")
	compare := flag.Bool("compare", false, "compare Ethernet/TCP and TpWIRE substrates (Section 4.3)")
	plan := flag.Bool("plan", false, "search the design space for the cheapest bus meeting the Table 4 requirements")
	chaos := flag.Bool("chaos", false, "replay the Table 4 scenario under injected faults and print the degradation table")
	clusterFlag := flag.Bool("cluster", false, "run the replicated multi-node cluster under the chaos harness (fault-rate x cluster-size grid, forced primary crash; combine with -json for BENCH_cluster.json)")
	spacebench := flag.Bool("spacebench", false, "drive the tuplespace serving plane through the mixed write/take/read/wake workload and print per-op latency")
	netbench := flag.Bool("netbench", false, "drive the network serving plane with closed-loop clients over loopback TCP and the in-proc pipe")
	scaling := flag.Bool("scaling", false, "with -netbench: sweep the pipe/batched/binary closed loop over GOMAXPROCS 1,2,4,8 (points above NumCPU are skipped; -json for BENCH_scaling.json)")
	leasebench := flag.Bool("leasebench", false, "churn lease renewals through the timing-wheel engine (-leases n, -json for BENCH_lease.json)")
	notifybench := flag.Bool("notifybench", false, "drive durable notify sessions under write fan-out with a mid-run reconnect (-sessions n; -json folds into BENCH_lease.json)")
	leases := flag.Int("leases", 0, "total leases churned by -leasebench (0 = default 10M)")
	sessions := flag.Int("sessions", 0, "live sessions for -notifybench (0 = default 100k)")
	clients := flag.Int("clients", 0, "closed-loop client goroutines for -netbench (0 = default 64)")
	netops := flag.Int("netops", 0, "total requests per -netbench run (0 = default 20000)")
	codec := flag.String("codec", "", "restrict -netbench rows to one codec: xml or binary (default both)")
	batchops := flag.Int("batchops", 0, "ops per multi-op batch frame for the -netbench coalescing rows (0 = default 8)")
	workload := flag.String("workload", "", "run a classic serving workload: masterworker, pipeline, stream, farm, or all (sim row plus kind-routed vs all-shard baseline on -plane; -json for BENCH_workloads.json)")
	plane := flag.String("plane", "", "serving plane for -workload: sim, local (direct space, default), pipe, or tcp")
	wtasks := flag.Int("wtasks", 0, "work units per -workload run (0 = pattern default)")
	seed := flag.Int64("seed", 0, "payload/determinism seed for -workload (0 = default 1)")
	jsonOut := flag.Bool("json", false, "emit -netbench results as JSON records (BENCH_net.json schema)")
	shards := flag.Int("shards", 0, "space shards for -spacebench (default 1) and -workload (default 8)")
	parallel := flag.Int("parallel", 0, "worker goroutines for independent simulations (0 = all CPUs, 1 = sequential)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	mutexprofile := flag.String("mutexprofile", "", "write a mutex-contention profile to this file (hunting serving-plane lock contention)")
	blockprofile := flag.String("blockprofile", "", "write a blocking profile to this file (channel/park waits on the completion path)")
	flag.Parse()
	workers := *parallel

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tpbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "tpbench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *mutexprofile != "" {
		runtime.SetMutexProfileFraction(1)
		defer writeProfile("mutex", *mutexprofile)
	}
	if *blockprofile != "" {
		runtime.SetBlockProfileRate(1)
		defer writeProfile("block", *blockprofile)
	}

	if *workload != "" {
		valid := *workload == "all"
		for _, p := range core.WorkloadPatterns {
			if *workload == p {
				valid = true
			}
		}
		if !valid {
			fmt.Fprintf(os.Stderr, "tpbench: -workload must be one of masterworker, pipeline, stream, farm, all; got %q\n", *workload)
			os.Exit(2)
		}
		cfg := core.WorkloadConfig{
			Plane:   *plane,
			Clients: *clients,
			Tasks:   *wtasks,
			Shards:  *shards,
			Seed:    *seed,
		}
		suite := core.RunWorkloadSuite(cfg, *workload)
		if *jsonOut {
			js, err := suite.JSON()
			if err != nil {
				fmt.Fprintf(os.Stderr, "tpbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Print(js)
			return
		}
		fmt.Print(suite.Format())
		return
	}
	if *spacebench {
		cfg := core.DefaultSpaceBenchConfig()
		cfg.Shards = *shards
		fmt.Print(core.RunSpaceBench(cfg).Format())
		return
	}
	if *leasebench || *notifybench {
		var leaseRes *core.LeaseBenchResult
		var notifyRes *core.NotifyBenchResult
		if *leasebench {
			cfg := core.LeaseBenchConfig{Leases: *leases}
			r := core.RunLeaseBench(cfg)
			leaseRes = &r
		}
		if *notifybench {
			cfg := core.NotifyBenchConfig{Sessions: *sessions}
			r := core.RunNotifyBench(cfg)
			notifyRes = &r
		}
		if *jsonOut {
			js, err := core.LeaseBenchJSON(leaseRes, notifyRes)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tpbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Print(js)
		} else {
			if leaseRes != nil {
				fmt.Print(leaseRes.Format())
			}
			if notifyRes != nil {
				fmt.Print(notifyRes.Format())
			}
		}
		if notifyRes != nil && notifyRes.Failed() {
			os.Exit(1)
		}
		return
	}
	if *netbench && *scaling {
		cfg := core.DefaultScalingConfig()
		if *clients > 0 {
			cfg.Base.Clients = *clients
		}
		if *netops > 0 {
			cfg.Base.Ops = *netops
		}
		res := core.RunScalingBench(cfg)
		if *jsonOut {
			js, err := res.JSON()
			if err != nil {
				fmt.Fprintf(os.Stderr, "tpbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Print(js)
			return
		}
		fmt.Print(res.Format())
		return
	}
	if *netbench {
		cfg := core.DefaultNetBenchConfig()
		if *clients > 0 {
			cfg.Clients = *clients
		}
		if *netops > 0 {
			cfg.Ops = *netops
		}
		if *batchops > 1 {
			cfg.BatchOps = *batchops
		}
		if *codec != "" && *codec != "xml" && *codec != "binary" {
			fmt.Fprintf(os.Stderr, "tpbench: -codec must be xml or binary, got %q\n", *codec)
			os.Exit(2)
		}
		suite := core.RunNetBenchSuite(cfg, *codec)
		if *jsonOut {
			js, err := suite.JSON()
			if err != nil {
				fmt.Fprintf(os.Stderr, "tpbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Print(js)
			return
		}
		fmt.Print(suite.Format())
		return
	}
	if *plan {
		fmt.Print(core.RunPlan(core.PlanConfig{
			Requirements: core.DefaultRequirements(),
			Workers:      workers,
		}).Format())
		return
	}
	if *clusterFlag {
		cfg := core.DefaultClusterChaosGridConfig()
		cfg.Workers = workers
		grid := core.RunClusterChaosGrid(cfg)
		if *jsonOut {
			js, err := grid.JSON()
			if err != nil {
				fmt.Fprintf(os.Stderr, "tpbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Print(js)
		} else {
			fmt.Print(grid.Format())
		}
		if len(grid.Violations()) > 0 {
			os.Exit(1)
		}
		return
	}
	if *chaos {
		cfg := core.DefaultChaosGridConfig()
		cfg.Workers = workers
		grid := core.RunChaosGrid(cfg)
		fmt.Print(grid.Format())
		if len(grid.Violations()) > 0 {
			os.Exit(1)
		}
		return
	}

	if *sweep {
		printSweep(workers)
		return
	}
	if *compare {
		fmt.Print(core.FormatComparison(core.CompareSubstrates(core.DefaultCompareConfig())))
		return
	}
	all := *table == "" && *fig == 0
	switch {
	case all:
		printFrames()
		fmt.Println()
		printTable3(*realtime, *speedup, workers)
		fmt.Println()
		printTable4(workers)
	case *table == "frames":
		printFrames()
	case *table == "3":
		printTable3(*realtime, *speedup, workers)
	case *table == "4":
		printTable4(workers)
	case *fig == 6:
		printFig6()
	case *fig == 7:
		printFig7()
	default:
		fmt.Fprintf(os.Stderr, "tpbench: unknown selection (-table %q -fig %d)\n", *table, *fig)
		os.Exit(2)
	}
}

func printFrames() {
	fmt.Println("Table 1: TX frame format")
	fmt.Println("| 0 | CMD[2:0] | DATA[7:0] | CRC[3:0] |")
	tx := frame.TX{Cmd: frame.CmdWrite, Data: 0xA5}
	fmt.Printf("example: %v  wire image %016b\n", tx, tx.Pack())
	fmt.Println()
	fmt.Println("Table 2: RX frame format")
	fmt.Println("| 0 | INT | TYPE[1:0] | DATA[7:0] | CRC[3:0] |")
	rx := frame.RX{Int: true, Type: frame.TypeData, Data: 0x3C}
	fmt.Printf("example: %v  wire image %016b\n", rx, rx.Pack())
}

func printTable3(realtime bool, speedup float64, workers int) {
	cfg := core.DefaultValidationConfig()
	cfg.Realtime = realtime
	cfg.Speedup = speedup
	cfg.Workers = workers
	res := core.RunValidation(cfg)
	fmt.Print(core.FormatTable3(res))
	if realtime {
		for _, r := range res.Rows {
			fmt.Printf("  frames=%d wall=%v maxlag=%v\n", r.Frames, r.Realtime.Wall, r.Realtime.MaxLag)
		}
	}
}

func printTable4(workers int) {
	cfg := core.DefaultTable4Config()
	cfg.Workers = workers
	t4 := core.RunTable4(cfg)
	fmt.Print(t4.Format())
}

func printFig6() {
	fmt.Println("Figure 6: NS-2 scheme for TpWIRE model validation")
	fmt.Println("  Master -- Slave1 [CBR] -- Slave2 [Receiver]")
	cfg := core.DefaultValidationConfig()
	cfg.FrameCounts = []int{10_000}
	res := core.RunValidation(cfg)
	fmt.Printf("  10k frames in %v simulated, throughput %.1f B/s, scaling %.3f\n",
		res.Rows[0].Simulated, res.ThroughputBps, res.Rows[0].Scaling)
}

// printSweep extends Table 4 into a curve: exchange completion time
// against background CBR load for both bus widths, CSV to stdout.
// "Out of Time" cells print as empty values.
func printSweep(workers int) {
	cfg := core.DefaultSweepConfig()
	cfg.Workers = workers
	fmt.Print(core.RunSweep(cfg).CSV())
}

func printFig7() {
	fmt.Println("Figure 7: TpWIRE case-study configuration")
	fmt.Println("  Master -- Slave1 [C++ client] -- Slave2 [CBR] -- Slave3 [JavaSpace server] -- Slave4 [Receiver]")
	cfg := core.DefaultImpactConfig()
	cfg.CBRRate = 0.3
	res := core.RunImpact(cfg)
	fmt.Printf("  CBR 0.3 B/s, 1-wire: write ack %.1fs, take issued %.1fs, completion %s\n",
		res.WriteDone.Seconds(), res.TakeIssued.Seconds(), core.ImpactCell(res))
	fmt.Printf("  bus: %d frames, busy %v; background packets delivered: %d\n",
		res.BusFrames, sim.Duration(res.BusBusy), res.CBRDelivered)
}
