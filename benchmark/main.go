// Command benchmark is the repo's benchmark: seven workloads, the
// end-to-end metrics a user of the tuplespace or of the bus estimator
// would see, and a per-layer cost ladder taken from outside the
// program. README.md in this directory is the manual.
//
//	go run ./benchmark                       # a set: every workload 3 times, medians
//	go run ./benchmark -trace                # the same plus a traced run each and the ladder
//	go run ./benchmark -compare a.json b.json
//	go run ./benchmark --workload tcp-rtt --seed 3 --seconds 6 --trace 0
//
// The last form is the driver's: one run of one workload, its result
// as one JSON object on the last line of standard output.
package main

import (
	"embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

//go:embed testdata/*.golden
var goldens embed.FS

// The load shape is fixed: a result can only have come from one
// configuration.
const (
	warmup     = 2 * time.Second // untimed lead-in of every time-boxed run
	runsPerSet = 3
	// journalWrites is journal-recover's fixed phase-A work, about 8 s on
	// the reference host; takes are 3/4 of it. BENCHMARK.json states it.
	journalWrites = 2_000_000
)

// clientCount is C, the number of load-generating goroutines.
func clientCount() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

func newRunConfig(seed uint64, window time.Duration, outDir string) *runConfig {
	return &runConfig{
		seed:          seed,
		clients:       clientCount(),
		window:        window,
		warmup:        warmup,
		outDir:        outDir,
		wireResident:  10_000,
		spaceResident: 500_000,
		journalWrites: journalWrites,
		setupReps:     21,
	}
}

// traceArgs lets -trace stand alone, as the manual writes it, and take
// a value, as the driver passes it: "-trace 1" becomes "-trace=1".
func traceArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			a += "=" + args[i+1]
			i++
		}
		out = append(out, a)
	}
	return out
}

func main() {
	workloadName := flag.String("workload", "", "run this one workload once and print the driver's JSON line (default: a set of every workload)")
	seed := flag.Uint64("seed", 1, "seed of every generated payload and op mix")
	seconds := flag.Float64("seconds", 10, "timed part of a time-boxed run, in seconds")
	trace := flag.Bool("trace", false, "record spans around every call into a layer, run the ladder, print the per-layer metrics and write trace.jsonl")
	outDir := flag.String("out", ".bench_out", "directory for results.json, trace.jsonl and journal files")
	record := flag.String("record", "", "with -workload: also write the run in full to this file (a set reads its runs back this way, and runs the ladder itself)")
	compare := flag.Bool("compare", false, "compare two results.json files given as arguments, with the bounds of ./BENCHMARK.json")
	_ = flag.CommandLine.Parse(traceArgs(os.Args[1:])) // the command line exits on error, it does not return one

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two results.json files"))
		}
		if err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("need -seconds > 0"))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	cfg := newRunConfig(*seed, time.Duration(*seconds*float64(time.Second)), *outDir)
	var err error
	if *workloadName != "" {
		err = driverRun(cfg, *workloadName, *trace, *record)
	} else {
		err = runSet(cfg, *trace)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// driverLine is the last line of a driver run.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverRun is one run of one workload. With tracing off it prints
// every end_to_end metric of BENCHMARK.json; with tracing on it runs
// the ladder beside the workload and prints every per_layer metric. A
// run that a set started (record is set) writes itself out in full and
// leaves the ladder to the set.
func driverRun(cfg *runConfig, name string, traced bool, record string) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	res, err := runWorkload(w, cfg, tr)
	if err != nil {
		return err
	}
	for _, p := range res.Problems {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", res.Workload, p)
	}
	line := driverLine{Correct: res.correct(), Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverValue{}}
	switch {
	case !traced:
		for _, d := range universalMetrics {
			line.Metrics[d.Name] = driverValue{Value: res.Metrics[d.Name], Unit: d.Unit}
		}
	case record == "":
		lv, err := runLadder(&ladderConfig{run: cfg, scale: 1}, tr)
		if err != nil {
			return err
		}
		lv.set("trace.overhead_share", res.TraceOverhead)
		lv.warnResidual(os.Stderr)
		for _, d := range perLayerMetrics {
			v, ok := lv.v[d.Name]
			if !ok {
				return fmt.Errorf("%s could not be measured: %s", d.Name, lv.missing[d.Name])
			}
			line.Metrics[d.Name] = driverValue{Value: v, Unit: d.Unit}
		}
	}
	if traced {
		if err := tr.writeJSONL(filepath.Join(cfg.outDir, "trace.jsonl")); err != nil {
			return err
		}
	}
	if record != "" {
		b, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if err := os.WriteFile(record, b, 0o644); err != nil {
			return err
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}
