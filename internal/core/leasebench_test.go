package core

import (
	"encoding/json"
	"testing"
)

func TestLeaseBenchSmall(t *testing.T) {
	// Tiny churn: exercises arm, renew, the drain's cancel+sweep paths
	// and the books check (RunLeaseBench panics if expired+cancelled !=
	// live).
	res := RunLeaseBench(LeaseBenchConfig{Leases: 3000, Shards: 2})
	if res.Config.Live != 3000 {
		t.Fatalf("live = %d, want 3000", res.Config.Live)
	}
	if res.Expired+res.Cancelled != 3000 {
		t.Fatalf("books: expired %d + cancelled %d != 3000", res.Expired, res.Cancelled)
	}
	if res.Expired == 0 || res.Cancelled == 0 {
		t.Fatalf("drain skipped a removal path: expired %d, cancelled %d", res.Expired, res.Cancelled)
	}
	if res.LeasesPerSec <= 0 {
		t.Fatalf("leases/sec = %v", res.LeasesPerSec)
	}
}

func TestNotifyBenchSmall(t *testing.T) {
	res := RunNotifyBench(NotifyBenchConfig{Sessions: 60, Conns: 2, Writes: 40, GroupSize: 10})
	if res.Failed() {
		t.Fatalf("exactly-once violated: %+v", res)
	}
	if res.Delivered != res.Expected || res.Expected == 0 {
		t.Fatalf("delivered %d/%d", res.Delivered, res.Expected)
	}
	if res.VictimGot != res.VictimWant {
		t.Fatalf("victim %d/%d across reconnect", res.VictimGot, res.VictimWant)
	}
}

func TestLeaseBenchJSON(t *testing.T) {
	lease := &LeaseBenchResult{
		Config:       LeaseBenchConfig{Live: 10, Leases: 10},
		LeasesPerSec: 100,
	}
	notify := &NotifyBenchResult{Delivered: 7, EventsPerSec: 3}
	notify.Config.Sessions = 4
	out, err := LeaseBenchJSON(lease, notify)
	if err != nil {
		t.Fatal(err)
	}
	var recs []map[string]any
	if err := json.Unmarshal([]byte(out), &recs); err != nil {
		t.Fatalf("BENCH_lease.json is not valid JSON: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
	if recs[0]["name"] != "leasebench/wheel" || recs[0]["live_leases"] != 10.0 || recs[0]["leases_per_sec"] != 100.0 {
		t.Fatalf("wheel record = %v", recs[0])
	}
	if recs[1]["name"] != "notifybench" || recs[1]["sessions"] != 4.0 {
		t.Fatalf("notify record = %v", recs[1])
	}
}
