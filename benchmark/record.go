package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// setRecord is results.json: everything needed to read a set of runs
// later, on another host, against another commit.
type setRecord struct {
	Host        hostInfo            `json:"host"`
	Started     string              `json:"started"`
	Seed        uint64              `json:"seed"`
	Clients     int                 `json:"clients"`
	Loop        string              `json:"loop"`
	FlushPolicy string              `json:"flush_policy"`
	SecondsEach float64             `json:"seconds"`
	WarmupS     float64             `json:"warmup_s"`
	RunsEach    int                 `json:"runs"`
	Rows        []rowRecord         `json:"rows"`
	Runs        []*runResult        `json:"run_details"`
	PerLayer    map[string]float64  `json:"per_layer,omitempty"`
	Unmeasured  map[string]string   `json:"per_layer_unmeasured,omitempty"`
	Overhead    map[string]float64  `json:"trace_overhead_share,omitempty"`
	Workloads   []map[string]string `json:"workloads"`
}

type hostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	GitCommit  string `json:"git_commit"`
}

// rowRecord is one (workload, metric) row: every run's value and
// their minimum, median and maximum.
type rowRecord struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Min      nullable  `json:"min"`
	Median   nullable  `json:"median"`
	Max      nullable  `json:"max"`
	// Samples are the latency sample counts behind a percentile row.
	Samples []uint64 `json:"latency_samples,omitempty"`
	// Unmeasured is why the row has no values; it is then null, not 0.
	Unmeasured string `json:"unmeasured,omitempty"`
}

// nullable is a float that is written as null when it was not
// measured (NaN), so that an unmeasured row never reads as 0.
type nullable float64

func (n nullable) MarshalJSON() ([]byte, error) {
	if math.IsNaN(float64(n)) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(n))
}

func (n *nullable) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*n = nullable(math.NaN())
		return nil
	}
	return json.Unmarshal(b, (*float64)(n))
}

func (r *rowRecord) setValues(v []float64) {
	lo, hi := minMax(v)
	r.Values, r.Min, r.Median, r.Max = v, nullable(lo), nullable(median(v)), nullable(hi)
}

func fingerprint() hostInfo {
	h := hostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: "unknown", GitCommit: "unknown"}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.GitCommit = strings.TrimSpace(string(b))
	}
	return h
}

// childRun runs one workload once in a process of its own and reads
// back its record. Runs share nothing that way: not the heap one
// leaves behind, not the goroutines the simulator never stops, not
// the allocator's state.
func childRun(cfg *runConfig, w *workload, traced bool, dir string) (*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	record := filepath.Join(dir, "run.json")
	cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.window.Seconds()), fmt.Sprintf("-trace=%t", traced), "-out", dir, "-record", record)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	b, err := os.ReadFile(record)
	if err != nil {
		return nil, err
	}
	res := new(runResult)
	if err := json.Unmarshal(b, res); err != nil {
		return nil, fmt.Errorf("%s: %w", record, err)
	}
	return res, os.Remove(record)
}

// runSet runs every workload runsPerSet times with tracing off, each
// run in its own process and the workloads in turn, so that the runs
// of one workload are spread over the whole set and see the host in
// more than one mood. It prints each end-to-end metric's median with
// minimum and maximum; with traced it adds one traced run per workload
// and the ladder.
func runSet(cfg *runConfig, traced bool) error {
	rec := &setRecord{
		Host: fingerprint(), Started: time.Now().UTC().Format(time.RFC3339), Seed: cfg.seed, Clients: cfg.clients,
		Loop:        "closed: every load-generating goroutine waits for its op's reply before the next",
		FlushPolicy: fmt.Sprintf("journal-recover flushes (write + fsync) every %v, as spaceserver -journal does", journalFlushEvery),
		SecondsEach: cfg.window.Seconds(), WarmupS: cfg.warmup.Seconds(), RunsEach: runsPerSet,
	}
	fmt.Printf("host: %d CPU, GOMAXPROCS %d, %s, kernel %s, commit %s\n",
		rec.Host.NumCPU, rec.Host.GOMAXPROCS, rec.Host.GoVersion, rec.Host.Kernel, rec.Host.GitCommit)
	fmt.Printf("load: closed loop, C = %d goroutines, seed %d, %gs warm-up + %gs timed, %d runs per workload, one process per run\n",
		cfg.clients, cfg.seed, rec.WarmupS, rec.SecondsEach, runsPerSet)
	fmt.Println(rec.FlushPolicy)
	results := make([][]*runResult, len(workloads))
	for r := 0; r < runsPerSet; r++ {
		for i := range workloads {
			res, err := childRun(cfg, &workloads[i], false, filepath.Join(cfg.outDir, workloads[i].name))
			if err != nil {
				return err
			}
			results[i] = append(results[i], res)
		}
	}
	defs := endToEndDefs()
	for i := range workloads {
		w := &workloads[i]
		rec.Workloads = append(rec.Workloads, map[string]string{"name": w.name, "unit": w.unit, "why": w.why})
		rec.Runs = append(rec.Runs, results[i]...)
		fmt.Printf("\n%s (op = %s)\n", w.name, w.unit)
		for _, d := range defs {
			if !d.on(w.name) {
				continue
			}
			row := rowRecord{Workload: w.name, Metric: d.Name, Unit: d.Unit}
			for _, res := range results[i] {
				v, ok := res.Metrics[d.Name]
				if !ok {
					row.Unmeasured = res.Unmeasured[d.Name]
					break
				}
				row.Values = append(row.Values, v)
				if strings.Contains(d.Name, "_p50_") || strings.Contains(d.Name, "_p99_") {
					row.Samples = append(row.Samples, res.Samples)
				}
			}
			if row.Unmeasured != "" {
				row.Values, row.Samples = nil, nil
				row.Min, row.Median, row.Max = nullable(math.NaN()), nullable(math.NaN()), nullable(math.NaN())
				rec.Rows = append(rec.Rows, row)
				fmt.Printf("  %-28s %14s %-8s (%s)\n", d.Name, "null", d.Unit, row.Unmeasured)
				continue
			}
			row.setValues(row.Values)
			rec.Rows = append(rec.Rows, row)
			note := ""
			if len(row.Samples) > 0 {
				note = fmt.Sprintf("  samples %v", row.Samples)
			}
			fmt.Printf("  %-28s %14.6g %-8s min %.6g max %.6g%s\n", d.Name, float64(row.Median), d.Unit, float64(row.Min), float64(row.Max), note)
		}
	}
	if traced {
		if err := tracedSet(cfg, rec); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, "results.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", path)
	for _, res := range rec.Runs {
		if !res.correct() {
			return fmt.Errorf("%s: %d of %d ops failed, %d checks violated", res.Workload, res.Failed, res.Attempted, len(res.Problems))
		}
	}
	return nil
}

// tracedSet is the traced part of a set: one traced run per workload,
// each in its own process, then the ladder once, in this process, which
// has run no workload itself.
func tracedSet(cfg *runConfig, rec *setRecord) error {
	rec.Overhead = map[string]float64{}
	fmt.Printf("\ntraced runs (first half of the timed part untraced, second half with spans)\n")
	for i := range workloads {
		w := &workloads[i]
		dir := filepath.Join(cfg.outDir, w.name)
		res, err := childRun(cfg, w, true, dir)
		if err != nil {
			return err
		}
		if !res.correct() {
			return fmt.Errorf("traced %s: %d of %d ops failed, %d checks violated", w.name, res.Failed, res.Attempted, len(res.Problems))
		}
		rec.Overhead[w.name] = res.TraceOverhead
		fmt.Printf("  %-28s %14.4f share    %s (spans in %s)\n", "trace.overhead_share", res.TraceOverhead, w.name, filepath.Join(dir, "trace.jsonl"))
	}
	tr := newTracer()
	lv, err := runLadder(&ladderConfig{run: cfg, scale: 1}, tr)
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, "trace.jsonl")
	if err := tr.writeJSONL(path); err != nil {
		return err
	}
	rec.PerLayer, rec.Unmeasured = lv.v, lv.missing
	fmt.Printf("\nper-layer metrics (spans in %s)\n", path)
	for _, d := range perLayerMetrics {
		if d.Name == "trace.overhead_share" {
			continue // per workload, above
		}
		if v, ok := lv.v[d.Name]; ok {
			fmt.Printf("  %-44s %14.6g %s\n", d.Name, v, d.Unit)
		} else {
			fmt.Printf("  %-44s %14s %s  (%s)\n", d.Name, "null", d.Unit, lv.missing[d.Name])
		}
	}
	lv.warnResidual(os.Stdout)
	return nil
}

// verdict compares one row of two sets. Worsening is relative to the
// first median and signed so that positive is worse. A metric whose
// run-to-run spread exceeds its bound is unresolved rather than
// unchanged, unless every run of one side beats every run of the
// other.
func verdict(d metricDef, ra, rb rowRecord) (string, float64) {
	type mmm struct{ Min, Median, Max float64 }
	a := mmm{float64(ra.Min), float64(ra.Median), float64(ra.Max)}
	b := mmm{float64(rb.Min), float64(rb.Median), float64(rb.Max)}
	if a == b {
		return "unchanged", 0
	}
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	worse := sign * (b.Median - a.Median)
	rel := worse / math.Abs(a.Median)
	if a.Median == 0 {
		rel = math.Copysign(math.Inf(1), worse)
		if worse == 0 {
			rel = 0
		}
	}
	if d.Bound == 0 { // exact
		switch {
		case worse > 0:
			return "worse", rel
		case worse < 0:
			return "improved", rel
		}
		return "unchanged", 0
	}
	allWorse, allBetter := b.Min > a.Max, b.Max < a.Min
	if d.Better == "higher" {
		allWorse, allBetter = b.Max < a.Min, b.Min > a.Max
	}
	spread := math.Max(a.Max-a.Min, b.Max-b.Min) / math.Abs(a.Median)
	beyond := rel > d.Bound && worse > d.AbsFloor
	switch {
	case beyond && (spread <= d.Bound || allWorse):
		return "worse", rel
	case allBetter && -rel > spread/2:
		return "improved", rel
	case beyond || spread > d.Bound:
		return "unresolved", rel
	}
	return "unchanged", rel
}

func loadSet(path string) (*setRecord, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec setRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints improved / unchanged / worse / unresolved for
// every (workload, metric) row the two sets share. The bound of a
// metric is the one BENCHMARK.json gives it; the metrics that file
// cannot hold keep the bound of the table in metrics.go.
func compareFiles(out io.Writer, benchmarkPath, pathA, pathB string) error {
	f, err := loadBenchmarkFile(benchmarkPath)
	if err != nil {
		return fmt.Errorf("%w (run -compare from the root of the repo)", err)
	}
	a, err := loadSet(pathA)
	if err != nil {
		return err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return err
	}
	if a.Host != b.Host {
		fmt.Fprintf(out, "note: the sets differ in host or commit: %+v vs %+v\n", a.Host, b.Host)
	}
	defs := map[string]metricDef{}
	for _, d := range endToEndDefs() {
		defs[d.Name] = d
	}
	for _, e := range f.EndToEnd {
		d := defs[e.Name]
		d.Name, d.Better, d.Bound = e.Name, e.Better, e.Bound
		defs[e.Name] = d
	}
	counts := map[string]int{}
	fmt.Fprintf(out, "%-16s %-28s %14s %14s %9s  %s\n", "workload", "metric", "a median", "b median", "worse by", "verdict")
	for _, ra := range a.Rows {
		for _, rb := range b.Rows {
			if ra.Workload != rb.Workload || ra.Metric != rb.Metric {
				continue
			}
			if ra.Unmeasured != "" || rb.Unmeasured != "" {
				fmt.Fprintf(out, "%-16s %-28s %14s %14s %9s  not measured: %s%s\n", ra.Workload, ra.Metric, "null", "null", "", ra.Unmeasured, rb.Unmeasured)
				continue
			}
			d, ok := defs[ra.Metric]
			if !ok {
				return fmt.Errorf("%s: metric %s is not in the benchmark's vocabulary", pathA, ra.Metric)
			}
			v, rel := verdict(d, ra, rb)
			counts[v]++
			fmt.Fprintf(out, "%-16s %-28s %14.6g %14.6g %+8.1f%%  %s\n", ra.Workload, ra.Metric, float64(ra.Median), float64(rb.Median), 100*rel, v)
		}
	}
	fmt.Fprintf(out, "improved %d, unchanged %d, worse %d, unresolved %d\n",
		counts["improved"], counts["unchanged"], counts["worse"], counts["unresolved"])
	return nil
}
