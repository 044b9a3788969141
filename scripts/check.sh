#!/bin/sh
# check.sh — the repo's one-stop verification gate:
#   gofmt gate over the whole module, vet, build, full tests under the
#   race detector (which also covers the parallel experiment runner's
#   and chaos harness's guard tests, the fast-path equivalence of every
#   paper output, the codec-parity table of the wrapper client and the
#   lease property test against the refSpace oracle), a fuzz smoke over
#   every fuzz target, kernel/tpwire/space/transport/wrapper bench
#   regression smokes that fail if the calendar's schedule/churn
#   paths, a process Block/wake cycle, a steady-state TpWIRE
#   transaction (master, four slaves, a blocking session), the space's
#   take hot paths, the steady-state TCP receive path, or the
#   gateway's binary decode->space->respond path allocate (the plan
#   grid's allocation budget is a core test), a sync-client-op alloc gate (the pooled completion-cell
#   path must stay <=1 alloc/op end to end), a tiny -netbench run of
#   the network serving plane (both transports, both codecs) including
#   the multi-op batch rows (-batchops 8), a -scaling smoke (the
#   GOMAXPROCS sweep must emit its P=1 reference row), a
#   classic-workload smoke (every pattern of
#   tpbench -workload must emit its sim estimate pair and its
#   kind-routed vs all-shard baseline pair over the pipe plane; the
#   space gate above also pins the kind-routed wildcard take at 0
#   allocs/op), and a
#   cluster-chaos smoke: the replicated 3-node cluster tests under
#   -race plus a full tpbench -cluster -chaos grid asserting the
#   invariants (no acked write lost, at-most-once take), a
#   timing-wheel 0-alloc gate (insert/cancel/expire), a lease-churn
#   smoke (-leasebench: the books must balance and the wheel row must
#   report 0 allocs/op), a durable-notify
#   resume smoke (-notifybench, exactly-once across a mid-run
#   reconnect) with its Close fence and the inline loopback gateway
#   repeated 50 times under -race, a dead-code gate (scripts/deadcode.sh: no internal/
#   function may newly drop out of every binary against the committed
#   scripts/unreached.txt), and a byte-identity diff of every paper CLI output
#   (-table 4, -sweep, -fig 7, -chaos, -plan) against the committed
#   goldens in internal/core/testdata/golden_cli/.
# Usage: scripts/check.sh   (or: make check)
#   FUZZTIME=2s scripts/check.sh   # shorten/lengthen the fuzz smoke
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> fuzz smoke (FUZZTIME=${FUZZTIME:=10s} per target)"
# Go runs one -fuzz target per invocation.
go test -run '^$' -fuzz '^FuzzUnpackTX$' -fuzztime "$FUZZTIME" ./internal/frame/
go test -run '^$' -fuzz '^FuzzUnpackRX$' -fuzztime "$FUZZTIME" ./internal/frame/
go test -run '^$' -fuzz '^FuzzDecodeTupleBinary$' -fuzztime "$FUZZTIME" ./internal/xmlcodec/
go test -run '^$' -fuzz '^FuzzUnmarshalRequest$' -fuzztime "$FUZZTIME" ./internal/xmlcodec/
go test -run '^$' -fuzz '^FuzzBatchFrame$' -fuzztime "$FUZZTIME" ./internal/xmlcodec/
go test -run '^$' -fuzz '^FuzzRSPDecode$' -fuzztime "$FUZZTIME" ./internal/cosim/
go test -run '^$' -fuzz '^FuzzRSPStubHandle$' -fuzztime "$FUZZTIME" ./internal/cosim/

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/tpbench" ./cmd/tpbench

echo "==> dead-code gate (no function newly unreached from every binary)"
# scripts/unreached.txt lists the internal/ functions no main links;
# a function that joins that set fails the gate, one that leaves it
# never does.
sh scripts/deadcode.sh > "$tmp/unreached.txt"
added=$(LC_ALL=C comm -13 scripts/unreached.txt "$tmp/unreached.txt")
if [ -n "$added" ]; then
    echo "functions linked into no binary (call them from a binary or delete them):" >&2
    echo "$added" >&2
    exit 1
fi

echo "==> kernel bench regression smoke (schedule/churn and a process Block/wake cycle must not allocate)"
go test -run '^$' -bench '^Benchmark(Kernel(Schedule|Churn)|ProcessBlock)$' -benchmem \
    -benchtime=10000x ./internal/sim/ | tee "$tmp/kernelbench.txt"
if awk '/^Benchmark(Kernel(Schedule|Churn)|ProcessBlock)-/ {
        seen++
        for (i = 2; i < NF; i++)
            if ($(i + 1) == "allocs/op" && $i + 0 > 0) { bad = 1; print $1, $i, "allocs/op" }
    } END { exit bad || seen != 3 }' "$tmp/kernelbench.txt"; then
    :
else
    echo "kernel regression: schedule/churn or Process.Block allocates" >&2
    exit 1
fi

echo "==> TpWIRE frame-path regression smoke (a steady-state transaction must not allocate)"
go test -run '^$' -bench '^BenchmarkChainTransaction$' -benchmem \
    -benchtime=10000x ./internal/tpwire/ | tee "$tmp/chainbench.txt"
if awk '/^BenchmarkChainTransaction-/ {
        seen++
        for (i = 2; i < NF; i++)
            if ($(i + 1) == "allocs/op" && $i + 0 > 0) { bad = 1; print $1, $i, "allocs/op" }
    } END { exit bad || seen != 1 }' "$tmp/chainbench.txt"; then
    :
else
    echo "tpwire regression: the steady-state frame path allocates" >&2
    exit 1
fi

echo "==> wheel bench regression smoke (insert/cancel/expire must not allocate)"
go test -run '^$' -bench '^BenchmarkWheel(Insert|Cancel|Expire)$' -benchmem \
    -benchtime=10000x ./internal/sim/ | tee "$tmp/wheelbench.txt"
if awk '/^BenchmarkWheel(Insert|Cancel|Expire)-/ {
        for (i = 2; i < NF; i++)
            if ($(i + 1) == "allocs/op" && $i + 0 > 0) { bad = 1; print $1, $i, "allocs/op" }
    } END { exit bad }' "$tmp/wheelbench.txt"; then
    :
else
    echo "timing-wheel regression: insert/cancel/expire allocates" >&2
    exit 1
fi

echo "==> space bench regression smoke (take paths must not allocate)"
go test -run '^$' -bench '^BenchmarkSpaceTake(Hit|Miss|KindHit)100k$' -benchmem \
    -benchtime=2000x ./internal/space/ | tee "$tmp/spacebench.txt"
if awk '/^BenchmarkSpaceTake(Hit|Miss|KindHit)100k-/ {
        for (i = 2; i < NF; i++)
            if ($(i + 1) == "allocs/op" && $i + 0 > 0) { bad = 1; print $1, $i, "allocs/op" }
    } END { exit bad }' "$tmp/spacebench.txt"; then
    :
else
    echo "space serving-plane regression: take hot path allocates" >&2
    exit 1
fi

echo "==> transport bench regression smoke (steady-state TCP receive must not allocate)"
go test -run '^$' -bench '^BenchmarkTCPReceiveSteady$' -benchmem \
    -benchtime=20000x ./internal/transport/ | tee "$tmp/tcpbench.txt"
if awk '/^BenchmarkTCPReceiveSteady-/ {
        for (i = 2; i < NF; i++)
            if ($(i + 1) == "allocs/op" && $i + 0 > 0) { bad = 1; print $1, $i, "allocs/op" }
    } END { exit bad }' "$tmp/tcpbench.txt"; then
    :
else
    echo "transport regression: steady-state TCP receive allocates" >&2
    exit 1
fi

echo "==> wrapper bench regression smoke (binary decode->space->respond must not allocate)"
go test -run '^$' -bench '^BenchmarkBinServeTakeHit$' -benchmem \
    -benchtime=20000x ./internal/wrapper/ | tee "$tmp/wrapbench.txt"
if awk '/^BenchmarkBinServeTakeHit-/ {
        for (i = 2; i < NF; i++)
            if ($(i + 1) == "allocs/op" && $i + 0 > 0) { bad = 1; print $1, $i, "allocs/op" }
    } END { exit bad }' "$tmp/wrapbench.txt"; then
    :
else
    echo "wrapper regression: binary serve path allocates" >&2
    exit 1
fi

echo "==> sync client op gate (pooled completion cells, <=1 alloc/op end to end)"
go test -run '^$' -bench '^BenchmarkSyncClientOpCells$' -benchmem \
    -benchtime=20000x ./internal/wrapper/ | tee "$tmp/syncbench.txt"
if awk '/^BenchmarkSyncClientOpCells-/ {
        for (i = 2; i < NF; i++)
            if ($(i + 1) == "allocs/op" && $i + 0 > 1) { bad = 1; print $1, $i, "allocs/op" }
    } END { exit bad }' "$tmp/syncbench.txt"; then
    :
else
    echo "completion-plane regression: sync client op exceeds 1 alloc/op" >&2
    exit 1
fi

echo "==> network serving-plane smoke (tpbench -netbench, tiny run, batchops 8)"
"$tmp/tpbench" -netbench -clients 4 -netops 80 -batchops 8 > "$tmp/netbench.txt"
grep -q "tcp/batched/xml" "$tmp/netbench.txt"
grep -q "pipe/batched/xml" "$tmp/netbench.txt"
grep -q "tcp/batched/binary" "$tmp/netbench.txt"
grep -q "pipe/batched/binary/b8" "$tmp/netbench.txt"
grep -q "pipe/batched/binary/noaff" "$tmp/netbench.txt"

echo "==> multi-core scaling smoke (tpbench -netbench -scaling, tiny run)"
"$tmp/tpbench" -netbench -scaling -clients 4 -netops 80 > "$tmp/scaling.txt"
grep -q "Multi-core scaling" "$tmp/scaling.txt"
# The P=1 reference row must always be present, whatever NumCPU is.
awk '$1 == "1" { found = 1 } END { exit !found }' "$tmp/scaling.txt"

echo "==> classic workload smoke (every pattern, sim estimate + pipe plane)"
# Each suite run emits the deterministic sim estimate pair plus the
# kind-routed vs all-shard baseline pair on the requested plane.
"$tmp/tpbench" -workload all -plane pipe -clients 3 -wtasks 24 > "$tmp/workloads.txt"
for p in masterworker pipeline stream farm; do
    grep -q "^$p/sim " "$tmp/workloads.txt"
    grep -q "^$p/sim/baseline " "$tmp/workloads.txt"
    grep -q "^$p/pipe " "$tmp/workloads.txt"
    grep -q "^$p/pipe/baseline " "$tmp/workloads.txt"
done

echo "==> cluster-chaos smoke (3 nodes, forced primary crash, invariants, -race)"
go test -race -run '^TestClusterChaos' ./internal/core/
"$tmp/tpbench" -cluster -chaos > "$tmp/cluster.txt"
grep -q "invariants: no acked write lost" "$tmp/cluster.txt"
if grep -q "VIOLATION" "$tmp/cluster.txt"; then
    echo "cluster chaos invariant violations:" >&2
    cat "$tmp/cluster.txt" >&2
    exit 1
fi

echo "==> lease-engine churn smoke (tpbench -leasebench, tiny run, books must balance)"
# The run panics if the expiry books don't balance; the wheel row must
# be present and report 0 allocs/op.
"$tmp/tpbench" -leasebench -leases 20000 > "$tmp/leasebench.txt"
if awk '$1 == "wheel" { found = 1; if ($5 + 0 > 0) bad = 1 } END { exit bad || !found }' "$tmp/leasebench.txt"; then
    :
else
    echo "lease engine regression: wheel renew path allocates" >&2
    cat "$tmp/leasebench.txt" >&2
    exit 1
fi

echo "==> durable-notify resume smoke (tpbench -notifybench, tiny fleet, exactly-once)"
# tpbench exits 1 itself if any event is lost or gapped across the
# mid-run reconnect.
"$tmp/tpbench" -notifybench -sessions 400 > "$tmp/notifybench.txt"
grep -q "OK: exactly-once delivery across reconnect" "$tmp/notifybench.txt"

echo "==> notify Close fence and inline loopback serving (-race, 50 runs each)"
# TestNotifyBenchSmall resumes a durable session from the cursor read
# after Client.Close; TestLoopbackWorkersServeInline holds a loopback
# gateway built WithWorkers to inline serving with no goroutine.
go test -race -count=50 -run 'TestNotifyBenchSmall|TestLoopbackWorkersServeInline' \
    ./internal/core/ ./internal/wrapper/

echo "==> golden paper outputs (byte-identical to the committed goldens)"
golden=internal/core/testdata/golden_cli
for spec in "table4.txt:-table 4" "sweep.csv:-sweep" "fig7.txt:-fig 7" \
            "chaos.txt:-chaos" "plan.txt:-plan"; do
    file=${spec%%:*}
    flags=${spec#*:}
    # shellcheck disable=SC2086
    "$tmp/tpbench" $flags > "$tmp/golden_out.txt"
    if ! cmp -s "$golden/$file" "$tmp/golden_out.txt"; then
        echo "paper CLI output diverged from golden: tpbench $flags vs $golden/$file" >&2
        diff "$golden/$file" "$tmp/golden_out.txt" >&2 || true
        exit 1
    fi
done

echo "OK"
