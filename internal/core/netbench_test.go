package core

import (
	"strings"
	"testing"
)

// Tiny configs: the smoke tests prove the harness plumbs end to end
// on every transport/plane/codec combination, not that it is fast.
func TestRunNetBenchSmoke(t *testing.T) {
	cases := []NetBenchConfig{
		{Clients: 4, Conns: 2, Ops: 40, Transport: "tcp"},
		{Clients: 4, Conns: 2, Ops: 40, Transport: "tcp", Codec: "binary"},
		{Clients: 4, Conns: 2, Ops: 40, Transport: "pipe"},
		{Clients: 4, Conns: 2, Ops: 40, Transport: "pipe", Codec: "binary"},
		{Clients: 4, Conns: 2, Ops: 40, Transport: "pipe", Codec: "binary", BatchOps: 4},
		{Clients: 4, Conns: 2, Ops: 40, Transport: "tcp", Codec: "binary", BatchOps: 4},
		{Clients: 4, Conns: 2, Ops: 40, Transport: "pipe", Codec: "binary", NoAffinity: true},
	}
	for _, cfg := range cases {
		res := RunNetBench(cfg)
		name := res.Config.Name()
		if res.Ops != 40 {
			t.Fatalf("%s: ops = %d, want 40", name, res.Ops)
		}
		if res.OpsPerSec <= 0 {
			t.Fatalf("%s: ops/sec = %v", name, res.OpsPerSec)
		}
		if res.P99 < res.P50 {
			t.Fatalf("%s: p99 %v < p50 %v", name, res.P99, res.P50)
		}
	}
}

func TestNetBenchSuiteReport(t *testing.T) {
	s := RunNetBenchSuite(NetBenchConfig{Clients: 4, Conns: 2, Ops: 40}, "binary")
	// tcp/binary + pipe/binary + tcp/b8 + pipe/b8 + pipe/noaff
	if len(s.Results) != 5 {
		t.Fatalf("got %d results", len(s.Results))
	}
	text := s.Format()
	for _, want := range []string{
		"tcp/batched/binary", "pipe/batched/binary",
		"tcp/batched/binary/b8", "pipe/batched/binary/b8",
		"pipe/batched/binary/noaff", "allocs/op",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("report missing %q:\n%s", want, text)
		}
	}
	js, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"netbench/tcp/batched/binary"`, `"ops_per_sec"`, `"allocs_per_op"`} {
		if !strings.Contains(js, want) {
			t.Fatalf("json missing %q:\n%s", want, js)
		}
	}
}

// BenchmarkNetPipeBinary profiles one full pipe/binary netbench run
// (go test -bench NetPipeBinary -benchtime 1x -cpuprofile ...).
func BenchmarkNetPipeBinary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		RunNetBench(NetBenchConfig{Transport: "pipe", Codec: "binary", Ops: 200_000})
	}
}
