// Lease-engine and notify-session load generators: the -leasebench
// and -notifybench modes of cmd/tpbench.
//
// -leasebench churns lease renewals through a Space on the simulated
// runtime holding a large live-lease population, and reports
// wall-clock throughput and allocations per renewal for the
// timing-wheel engine. A renewal is the canonical churn op: it
// exercises exactly the disarm+re-arm path every lease-bearing write
// and take shares — two O(1) intrusive list moves — with no
// store/index work diluting the number. After the storm the
// population is drained through both removal paths (early cancel and
// batched sweep expiry) and the books are checked. The simulated
// clock makes the run deterministic: time advances by RunUntil, not
// by sleeping through lease terms.
//
// -notifybench opens a fleet of durable notify sessions over loopback
// connections sharing one hub, drives matching writes through them,
// and kills + resumes one session's connection mid-run — the
// acceptance check is that the resumed session receives every event
// exactly once (zero lost, zero gaps) while the fleet's total
// delivered count matches the fan-out exactly.

package core

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"tpspace/internal/sim"
	"tpspace/internal/space"
	"tpspace/internal/transport"
	"tpspace/internal/tuple"
	"tpspace/internal/wrapper"
)

// LeaseBenchConfig sizes one -leasebench run.
type LeaseBenchConfig struct {
	Leases    int // live-lease population AND renew-op count (default 10M)
	Live      int // live leases held while churning (default Leases, capped at 10M)
	Shards    int // space shards (default 4)
	TakeEvery int // during the drain, every n-th entry is cancelled early instead of expiring (default 4)
}

// DefaultLeaseBenchConfig is the acceptance-scenario shape: 10^7
// renewals over a 10^7 live-lease population on 4 shards.
func DefaultLeaseBenchConfig() LeaseBenchConfig {
	return LeaseBenchConfig{Leases: 10_000_000, Shards: 4, TakeEvery: 4}
}

func (c *LeaseBenchConfig) fill() {
	def := DefaultLeaseBenchConfig()
	if c.Leases <= 0 {
		c.Leases = def.Leases
	}
	if c.Live <= 0 {
		c.Live = c.Leases
		if c.Live > 10_000_000 {
			c.Live = 10_000_000
		}
	}
	if c.Shards <= 0 {
		c.Shards = def.Shards
	}
	if c.TakeEvery <= 0 {
		c.TakeEvery = def.TakeEvery
	}
}

// LeaseBenchResult is one measured -leasebench run.
type LeaseBenchResult struct {
	Config       LeaseBenchConfig
	Elapsed      time.Duration
	LeasesPerSec float64
	AllocsPerOp  float64
	Expired      uint64 // drain-phase sweep expirations (books check)
	Cancelled    uint64 // drain-phase early cancels (books check)
}

// RunLeaseBench arms cfg.Live leases, storms cfg.Leases renewals
// through them (the measured phase), then drains the population
// through both removal paths and checks the books. Entries spread over
// 1024 distinct tuple values so a sharded space exercises every shard.
func RunLeaseBench(cfg LeaseBenchConfig) LeaseBenchResult {
	cfg.fill()
	k := sim.NewKernel(1)
	sp := space.New(space.SimRuntime{K: k}, space.WithShards(cfg.Shards))

	// A fixed palette of tuples keeps the workload's own allocations
	// out of the per-renewal number: the churn measures the lease
	// engine, not tuple construction.
	tups := make([]tuple.Tuple, 1024)
	for i := range tups {
		tups[i] = tuple.New("lease", tuple.Int("k", int64(i)))
	}
	// A term long enough that nothing expires mid-storm: the measured
	// phase is pure engine work against a full pending set.
	term := sim.Hour

	// Arm the live population (not measured): after this loop the
	// wheels hold one linked timer per lease.
	leases := make([]*space.Lease, cfg.Live)
	for i := range leases {
		l, err := sp.Write(tups[i&1023], term)
		if err != nil {
			panic("leasebench: write: " + err.Error())
		}
		leases[i] = l
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < cfg.Leases; i++ {
		if !leases[i%cfg.Live].Renew(term) {
			panic("leasebench: renewed a dead lease")
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	// Drain: every TakeEvery-th lease is cancelled early, the rest
	// lapse together — one batched sweep per shard unlinks them all.
	for i := 0; i < cfg.Live; i += cfg.TakeEvery {
		if !leases[i].Cancel() {
			panic("leasebench: cancel missed a live entry")
		}
	}
	k.RunUntil(k.Now().Add(2 * term))

	st := sp.Stats()
	if st.Expired+st.Cancelled != uint64(cfg.Live) {
		panic(fmt.Sprintf("leasebench: books: expired %d + cancelled %d != live %d",
			st.Expired, st.Cancelled, cfg.Live))
	}
	res := LeaseBenchResult{
		Config:      cfg,
		Elapsed:     elapsed,
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(cfg.Leases),
		Expired:     st.Expired,
		Cancelled:   st.Cancelled,
	}
	if elapsed > 0 {
		res.LeasesPerSec = float64(cfg.Leases) / elapsed.Seconds()
	}
	return res
}

// Format renders the -leasebench report.
func (r LeaseBenchResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Lease churn: %d live leases, %d renewals, %d shard(s), cancel every %d on drain\n",
		r.Config.Live, r.Config.Leases, r.Config.Shards, r.Config.TakeEvery)
	fmt.Fprintf(&b, "%-10s %12s %12s %12s %12s %12s %12s\n",
		"engine", "live", "renews", "renews/sec", "allocs/op", "expired", "cancelled")
	fmt.Fprintf(&b, "%-10s %12d %12d %12.0f %12.2f %12d %12d\n",
		"wheel", r.Config.Live, r.Config.Leases, r.LeasesPerSec, r.AllocsPerOp, r.Expired, r.Cancelled)
	return b.String()
}

// NotifyBenchConfig sizes one -notifybench run.
type NotifyBenchConfig struct {
	Sessions  int // durable sessions held live (default 100k)
	Conns     int // connections the sessions spread over (default 8)
	Writes    int // tuples written through the fan-out (default 2000)
	GroupSize int // sessions subscribed to each write's template (default 100)
	Shards    int // space shards (default 4)
}

// DefaultNotifyBenchConfig is the acceptance-scenario shape: 100k
// live subscriptions, each write fanning out to 100 of them, with a
// mid-run reconnect of one session.
func DefaultNotifyBenchConfig() NotifyBenchConfig {
	return NotifyBenchConfig{Sessions: 100_000, Conns: 8, Writes: 2000, GroupSize: 100, Shards: 4}
}

func (c *NotifyBenchConfig) fill() {
	def := DefaultNotifyBenchConfig()
	if c.Sessions <= 0 {
		c.Sessions = def.Sessions
	}
	if c.Conns <= 0 {
		c.Conns = def.Conns
	}
	if c.Writes <= 0 {
		c.Writes = def.Writes
	}
	if c.GroupSize <= 0 {
		c.GroupSize = def.GroupSize
	}
	if c.GroupSize > c.Sessions {
		c.GroupSize = c.Sessions
	}
	if c.Shards <= 0 {
		c.Shards = def.Shards
	}
}

// NotifyBenchResult is a full -notifybench run.
type NotifyBenchResult struct {
	Config        NotifyBenchConfig
	Delivered     uint64 // events received across all sessions
	Expected      uint64 // exact fan-out: every write times its group size
	Elapsed       time.Duration
	EventsPerSec  float64
	VictimGot     uint64 // events the reconnected session received (both attachments)
	VictimWant    uint64 // events addressed to it
	ReconnectLost uint64 // VictimWant - VictimGot: MUST be 0
	VictimGaps    uint64 // replay-window overruns observed by the victim: MUST be 0
	Drained       bool   // all expected events arrived before the drain deadline
}

// RunNotifyBench opens the session fleet, drives the write fan-out
// with a mid-run kill+resume of one session's connection, and
// verifies exactly-once delivery.
func RunNotifyBench(cfg NotifyBenchConfig) NotifyBenchResult {
	cfg.fill()
	groups := cfg.Sessions / cfg.GroupSize
	if groups == 0 {
		groups = 1
	}
	sp := space.New(space.NewRealRuntime(), space.WithShards(cfg.Shards))
	hub := wrapper.NewNotifyHub()
	defer hub.Close()

	// Session-holding clients share the hub; the victim session gets
	// its own connection so its mid-run kill touches nothing else.
	clients := make([]*wrapper.Client, cfg.Conns)
	for i := range clients {
		cliEnd, gwEnd := transport.NewLoopback()
		wrapper.NewServerStack(gwEnd, sp, wrapper.WithNotifyHub(hub))
		clients[i] = wrapper.NewClient(cliEnd, wrapper.WithBinaryCodec())
	}
	victimEnd, victimGw := transport.NewLoopback()
	wrapper.NewServerStack(victimGw, sp, wrapper.WithNotifyHub(hub))
	victimCli := wrapper.NewClient(victimEnd, wrapper.WithBinaryCodec())
	writerEnd, writerGw := transport.NewLoopback()
	wrapper.NewServerStack(writerGw, sp, wrapper.WithNotifyHub(hub))
	writer := wrapper.NewClient(writerEnd, wrapper.WithBinaryCodec())
	defer writer.Close()

	groupTmpl := func(g int) tuple.Tuple {
		return tuple.New("ev", tuple.Int("g", int64(g)), tuple.AnyInt("n"))
	}
	var delivered, victimGot atomic.Uint64
	count := func(tuple.Tuple) { delivered.Add(1) }
	victimCount := func(tuple.Tuple) { delivered.Add(1); victimGot.Add(1) }

	// The victim subscribes to group 0; the rest of the fleet spreads
	// round-robin over all groups.
	openOn := func(c *wrapper.Client, g int, fn func(tuple.Tuple)) uint64 {
		ch := make(chan uint64, 1)
		c.NotifySession(groupTmpl(g), fn, func(sess uint64, ok bool) {
			if !ok {
				panic("notifybench: session open failed")
			}
			ch <- sess
		})
		return <-ch
	}
	victimSess := openOn(victimCli, 0, victimCount)
	for s := 1; s < cfg.Sessions; s++ {
		openOn(clients[s%cfg.Conns], s%groups, count)
	}

	// perGroup[g] counts writes addressed to group g; fan-out expected
	// counts accumulate exactly.
	perGroup := make([]uint64, groups)
	membership := make([]uint64, groups) // live sessions per group
	membership[0]++                      // victim
	for s := 1; s < cfg.Sessions; s++ {
		membership[s%groups]++
	}
	write := func(n int) {
		g := n % groups
		if err := writer.WriteWait(
			tuple.New("ev", tuple.Int("g", int64(g)), tuple.Int("n", int64(n))),
			space.NoLease); err != nil {
			panic("notifybench: write: " + err.Error())
		}
		perGroup[g]++
	}

	start := time.Now()
	half := cfg.Writes / 2
	for n := 0; n < half; n++ {
		write(n)
	}
	// Kill the victim's connection mid-run, write through the outage
	// (its events accumulate in the hub's replay ring), then resume on
	// a brand-new connection from the applied-sequence cursor.
	cursor := victimCli.NotifyLastSeq(victimSess)
	_ = victimCli.Close()
	outage := half + (cfg.Writes-half)/2
	for n := half; n < outage; n++ {
		write(n)
	}
	v2End, v2Gw := transport.NewLoopback()
	wrapper.NewServerStack(v2Gw, sp, wrapper.WithNotifyHub(hub))
	victimCli2 := wrapper.NewClient(v2End, wrapper.WithBinaryCodec())
	defer victimCli2.Close()
	resumed := make(chan bool, 1)
	victimCli2.ResumeNotifySession(victimSess, cursor, victimCount, func(ok bool) { resumed <- ok })
	if !<-resumed {
		panic("notifybench: resume rejected")
	}
	for n := outage; n < cfg.Writes; n++ {
		write(n)
	}

	var expected uint64
	for g := range perGroup {
		expected += perGroup[g] * membership[g]
	}
	res := NotifyBenchResult{
		Config:     cfg,
		Expected:   expected,
		VictimWant: perGroup[0],
	}
	deadline := time.Now().Add(60 * time.Second)
	for delivered.Load() < expected && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	res.Elapsed = time.Since(start)
	res.Delivered = delivered.Load()
	res.Drained = res.Delivered == expected
	res.VictimGot = victimGot.Load()
	if res.VictimGot < res.VictimWant {
		res.ReconnectLost = res.VictimWant - res.VictimGot
	}
	res.VictimGaps = victimCli2.NotifyGaps(victimSess)
	if res.Elapsed > 0 {
		res.EventsPerSec = float64(res.Delivered) / res.Elapsed.Seconds()
	}
	for _, c := range clients {
		_ = c.Close()
	}
	return res
}

// Format renders the -notifybench report.
func (r NotifyBenchResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Notify sessions: %d live over %d conns, %d writes fanning to %d sessions each\n",
		r.Config.Sessions, r.Config.Conns, r.Config.Writes, r.Config.GroupSize)
	fmt.Fprintf(&b, "delivered %d/%d events in %s (%.0f events/sec)\n",
		r.Delivered, r.Expected, r.Elapsed.Round(time.Millisecond), r.EventsPerSec)
	fmt.Fprintf(&b, "mid-run reconnect: victim received %d/%d, lost %d, gaps %d\n",
		r.VictimGot, r.VictimWant, r.ReconnectLost, r.VictimGaps)
	if !r.Drained || r.ReconnectLost != 0 || r.VictimGaps != 0 {
		fmt.Fprintf(&b, "FAIL: events lost across reconnect\n")
	} else {
		fmt.Fprintf(&b, "OK: exactly-once delivery across reconnect\n")
	}
	return b.String()
}

// Failed reports whether the run violated exactly-once delivery.
func (r NotifyBenchResult) Failed() bool {
	return !r.Drained || r.ReconnectLost != 0 || r.VictimGaps != 0
}

// leaseBenchRecord is the BENCH_lease.json schema.
type leaseBenchRecord struct {
	Name         string  `json:"name"`
	Live         int     `json:"live_leases,omitempty"`
	Leases       int     `json:"renews,omitempty"`
	LeasesPerSec float64 `json:"leases_per_sec,omitempty"`
	AllocsPerOp  float64 `json:"allocs_per_op,omitempty"`
	Sessions     int     `json:"sessions,omitempty"`
	Events       uint64  `json:"events,omitempty"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	LostEvents   uint64  `json:"lost_events"`
	Gaps         uint64  `json:"gaps"`
}

// LeaseBenchJSON renders the lease and/or notify results as the
// BENCH_lease.json records. Either argument may be nil.
func LeaseBenchJSON(lease *LeaseBenchResult, notify *NotifyBenchResult) (string, error) {
	var recs []leaseBenchRecord
	if lease != nil {
		recs = append(recs, leaseBenchRecord{
			Name:         "leasebench/wheel",
			Live:         lease.Config.Live,
			Leases:       lease.Config.Leases,
			LeasesPerSec: lease.LeasesPerSec,
			AllocsPerOp:  lease.AllocsPerOp,
		})
	}
	if notify != nil {
		recs = append(recs, leaseBenchRecord{
			Name:         "notifybench",
			Sessions:     notify.Config.Sessions,
			Events:       notify.Delivered,
			EventsPerSec: notify.EventsPerSec,
			LostEvents:   notify.ReconnectLost,
			Gaps:         notify.VictimGaps,
		})
	}
	out, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}
