#!/bin/sh
# bench.sh — machine-readable bench baseline (make bench).
#
# Runs the kernel micro-benches and the full -plan grid benchmark and
# writes the results as JSON:
#
#   BENCH_kernel.json  kernel calendar and timing-wheel micro-benches
#                      (incl. the in-binary container/heap baselines)
#   BENCH_plan.json    one full planner grid pass: wall ns/op,
#                      allocs/op and the simulated seconds modelled
#   BENCH_space.json   tuplespace serving-plane benches — write,
#                      take-hit, take-miss, waiter-wake and waiter
#                      cancellation at 10^5/10^6 entries and 10^4
#                      parked waiters, incl. the in-binary linear
#                      baselines, the lease-churn bench and the
#                      lock-free RealRuntime.Now reads vs the mutex
#                      baseline
#   BENCH_net.json     network serving-plane load generator: 64
#                      closed-loop clients over loopback TCP and the
#                      in-proc pipe, XML and binary codecs, plus the
#                      binary variants — multi-op coalescing (/b8, 8
#                      ops per batch frame) and shard-affinity
#                      dispatch disabled (/noaff); records {name,
#                      clients, conns, ops, ops_per_sec, p50_ns,
#                      p99_ns, allocs_per_op}
#   BENCH_scaling.json multi-core scaling sweep: the pipe/batched/
#                      binary closed loop re-run under GOMAXPROCS 1,
#                      2, 4, 8 (filtered to what the machine has; P=1
#                      always present as the cross-machine reference);
#                      records {name, gomaxprocs, num_cpu, ops,
#                      ops_per_sec, p50_ns, p99_ns, allocs_per_op,
#                      speedup_vs_p1}
#   BENCH_cluster.json replicated-cluster chaos grid: acked
#                      throughput and failover-recovery time against
#                      cluster size per fault rate, every cell with a
#                      forced primary crash; records {name, nodes,
#                      fault_rate, writes_acked, takes_delivered,
#                      kills, acked_per_sec, detect_ms, recover_ms,
#                      violations} — all in simulated time, so the
#                      records are deterministic
#   BENCH_workloads.json
#                      classic serving workloads (masterworker,
#                      pipeline, stream, farm) at 8 shards: for each
#                      pattern a deterministic sim-plane occupancy
#                      estimate and a measured local-plane run, each
#                      paired with its in-binary all-shard value-routed
#                      baseline; records {name, pattern, plane,
#                      baseline, clients, tasks, shards, units,
#                      elapsed_ns, units_per_sec, mean_latency_ns,
#                      deliveries, speedup_vs_baseline}
#   BENCH_lease.json   lease-engine churn at 10^7 live leases (renew
#                      storm through the timing wheel) plus the
#                      100k-session durable-notify run with a mid-run
#                      reconnect; records {name, live_leases, renews,
#                      leases_per_sec, allocs_per_op} and {name,
#                      sessions, events, events_per_sec, lost_events,
#                      gaps}
#
# Every record carries {name, ns_per_op, allocs_per_op,
# simulated_seconds}; benches without a simulated-time dimension
# record 0. Downstream tooling (scripts/check.sh, CI trend lines)
# parses these files instead of scraping bench text.
# Usage: scripts/bench.sh   (or: make bench)
set -eu

cd "$(dirname "$0")/.."

# bench_to_json parses `go test -bench` output on stdin into a JSON
# array: one object per bench line, ranks found by their unit suffix.
bench_to_json() {
    awk '
    BEGIN { print "["; n = 0 }
    /^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)
        ns = "0"; allocs = "0"; sims = "0"
        for (i = 2; i < NF; i++) {
            if ($(i + 1) == "ns/op") ns = $i
            else if ($(i + 1) == "allocs/op") allocs = $i
            else if ($(i + 1) == "sim-s") sims = $i
        }
        if (n++) printf ",\n"
        printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"allocs_per_op\": %s, \"simulated_seconds\": %s}", \
            name, ns, allocs, sims
    }
    END { if (n) printf "\n"; print "]" }
    '
}

echo "==> kernel calendar + timing-wheel benches -> BENCH_kernel.json"
go test -run '^$' -bench '^Benchmark(Kernel|Wheel)' -benchmem ./internal/sim/ \
    | tee /dev/stderr | bench_to_json > BENCH_kernel.json

echo "==> planner grid bench -> BENCH_plan.json"
go test -run '^$' -bench '^BenchmarkPlanGrid$' -benchmem -benchtime=1x . \
    | tee /dev/stderr | bench_to_json > BENCH_plan.json

echo "==> space serving-plane benches -> BENCH_space.json"
go test -run '^$' -bench '^Benchmark(Space|Linear|RealRuntime)' -benchmem \
    -benchtime=200ms ./internal/space/ \
    | tee /dev/stderr | bench_to_json > BENCH_space.json

echo "==> network serving-plane load generator -> BENCH_net.json"
go run ./cmd/tpbench -netbench -json | tee /dev/stderr > BENCH_net.json

echo "==> multi-core scaling sweep -> BENCH_scaling.json"
go run ./cmd/tpbench -netbench -scaling -json | tee /dev/stderr > BENCH_scaling.json

echo "==> replicated-cluster chaos grid -> BENCH_cluster.json"
go run ./cmd/tpbench -cluster -json | tee /dev/stderr > BENCH_cluster.json

echo "==> classic serving workloads -> BENCH_workloads.json"
go run ./cmd/tpbench -workload all -shards 8 -json | tee /dev/stderr > BENCH_workloads.json

echo "==> lease-engine churn + durable-notify fleet -> BENCH_lease.json"
go run ./cmd/tpbench -leasebench -notifybench -json | tee /dev/stderr > BENCH_lease.json

echo "OK: wrote BENCH_kernel.json BENCH_plan.json BENCH_space.json BENCH_net.json BENCH_scaling.json BENCH_cluster.json BENCH_workloads.json BENCH_lease.json"
