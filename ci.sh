#!/bin/sh
# CI gate: format, vet, lint, build, the whole suite once under the race
# detector, the allocation budgets three times without it, ten seconds of
# fuzzing, every layer benchmark once, each example once, then the tools end
# to end (traced run -> both exports -> analyzer -> bench report -> regression
# gates against the committed BENCH_*.json baselines).
set -eux

test -z "$(gofmt -l .)"
# Vet the groups separately so the first failing one stops the gate with
# its own diagnostics instead of interleaving all three.
for pkgs in ./internal/... ./cmd/... .; do
    go vet "$pkgs"
done
# The benchmark is a module of its own, outside ./...: it implements
# propagation.Program and calls what it measures, so a change that breaks
# its build or its checks fails here, not when the benchmark next runs.
(cd benchmark && go vet ./... && go test ./...)
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT

# Determinism-contract static gate (docs/LINTS.md), before the tests that
# would (sometimes) catch the same violations dynamically: any finding
# fails the build, and a clean tree prints nothing.
go run ./cmd/surfer-lint ./...
# The words other tools parse, held to docs/METRICS.md where the program
# makes them (the retired SL004's place): event kinds, blame categories,
# and the schema and keys of every bench report. Seconds, not the raced
# suite's minutes, before a missing word fails.
go test -run '^(TestKindsDocumented|TestCategoriesDocumented|TestExperimentTable)$' ./internal/trace ./internal/analyze ./internal/bench
go build ./...
# No fused multiply-add (DESIGN.md's determinism contract): arm64 fuses a
# product into the sum it meets, even across statements, where amd64 rounds
# it first, so the gate reads the arm64 assembly, not the source. It fails
# on any fused instruction and prints its source line.
GOARCH=arm64 go build -gcflags=-S ./internal/... . 2> "$smoke/arm64.s"
grep -q 'TEXT' "$smoke/arm64.s"
if grep -E '\bF(N?MADD|N?MSUB)[DS]\b' "$smoke/arm64.s"; then
    echo "fused multiply-add on arm64: round the product with float64()" >&2
    exit 1
fi
# The whole suite, once, raced. No subset runs first: under set -e a subset
# buys ordering, not coverage, at twice the race time. What needs the race
# detector: the fault model (failover, retry/backoff, speculation, checkpoint
# rollback, chaos soaks) and elastic membership (join/drain/migration,
# autoscale) drive worker pools of 4 and 8; the job service plans on the pool
# and shares the engine's one event loop (service digests, engine == service
# differential); the metrics collector observes live inside those runs; the
# partition and plan digests pin every bit the pool phases produce at 1, 2
# and 8 workers; the stream codec is held to encoding/json and its digests;
# and the lint engine gets the scrutiny it imposes.
go test -race ./...
# The allocation budgets (ROADMAP item 15), which skip or fall back to a coarse
# ceiling under the race detector: three times each without it, so a count
# that moves between runs fails here rather than on a later change.
go test -count 3 -run 'AllocBudget|Allocations|AllocsPerMessage|AllocatesNothing|AllocatesOnce|AllocatesTheStream|BisectBytes' ./internal/...
# Fresh inputs through the stream reader's differential against encoding/json
# (stricter than the reference is allowed, different is not); the committed
# seeds already ran above.
go test -run '^$' -fuzz FuzzReadEvents -fuzztime 10s ./internal/trace
# And the Chrome export against the encoding/json writer it replaced: the
# same bytes, and an error exactly where that one errs.
go test -run '^$' -fuzz FuzzWriteChrome -fuzztime 10s ./internal/trace
# And through every fold of what that reader accepts: the analyzer's report,
# Summarize, WriteChrome and the job windows return or refuse, never panic.
go test -run '^$' -fuzz FuzzAnalyze -fuzztime 10s ./internal/analyze
# And through the emission plan's differential against the transfer path it
# replaced: the fuzzer picks where an iteration leaves the previous one's plan.
go test -run '^$' -fuzz FuzzPlanReuse -fuzztime 10s ./internal/propagation
# And through MapReduce's reducer-owned shuffle against the serial shuffle it
# replaced: edge bytes plus a key-width and combiner selector, 1 and 4 workers.
go test -run '^$' -fuzz FuzzShuffle -fuzztime 10s ./internal/mapreduce
# And the exchange kernel under both against a comparison-sort reference:
# equal groups, value order, offsets and landing places, at every key width.
go test -run '^$' -fuzz FuzzExchange -fuzztime 10s ./internal/exchange
# And through the jobs-file reader behind surfer-submit -jobs: never a panic,
# and what it accepts writes back and re-reads to the same bytes.
go test -run '^$' -fuzz FuzzReadWorkload -fuzztime 10s ./internal/jobsvc
# And through the fault-file reader behind -fail and -faults: never a panic,
# nor from what the tools do next with an accepted schedule, and what it
# accepts writes back and re-reads to the same bytes.
go test -run '^$' -fuzz FuzzLoad -fuzztime 10s ./internal/fault
# And the index the engine looks faults up through against the linear scans
# it replaced: equal bits on all three queries, at every window edge.
go test -run '^$' -fuzz FuzzFaultIndex -fuzztime 10s ./internal/fault
# And through the series-file reader behind surfer-metrics -series: never a
# panic, nor from the three renderers on an accepted set, and what it accepts
# writes back and re-reads to the same bytes.
go test -run '^$' -fuzz FuzzReadSet -fuzztime 10s ./internal/metrics
# And through the alert-rule reader behind -rules: never a panic, and an
# accepted rule set marshals and re-parses to an equal set.
go test -run '^$' -fuzz FuzzParseRules -fuzztime 10s ./internal/metrics
# And through the partition-file reader behind LoadDir: never a panic, never
# an allocation its input cannot back, and what it accepts writes back to the
# bytes it read.
go test -run '^$' -fuzz FuzzReadPartition -fuzztime 10s ./internal/storage
# And the bisection kernel's contraction against the sort-based reference it
# replaced: equal coarse graphs, with parallel edges and weights near the top
# of the 32-bit range a work graph can reach.
go test -run '^$' -fuzz FuzzContract -fuzztime 10s ./internal/partition
# And through the bench-report reader behind surfer-analyze -compare: an
# accepted report writes and re-loads equal.
go test -run '^$' -fuzz FuzzLoadReport -fuzztime 10s ./internal/bench
# Layer benchmarks, once each, so they cannot rot (-short skips the
# 1M-vertex partitioner size and plans propagation and MapReduce at 16k
# vertices), with the worker pool's ForEach and the root package's paper
# benchmarks (one per table and figure).
go test -short -run '^$' -bench . -benchtime 1x ./internal/partition ./internal/graph \
    ./internal/storage ./internal/propagation ./internal/mapreduce ./internal/exchange ./internal/apps ./internal/engine \
    ./internal/jobsvc ./internal/trace ./internal/metrics ./internal/analyze ./internal/pool .
# The examples, run once each so they cannot rot; the fault-tolerance demo
# must end with ranks bit-identical to its failure-free run.
for ex in examples/*/; do
    go run "./$ex" > "$smoke/$(basename "$ex").txt"
done
grep -q "^max rank difference vs baseline: 0.00e+00 " "$smoke/faulttolerance.txt"
go run ./cmd/surfer-gen -kind social -vertices 4096 -seed 42 -out "$smoke/g.srfg"
go run ./cmd/surfer-run -graph "$smoke/g.srfg" -app nr -topology t3 \
    -machines 8 -levels 2 -trace "$smoke/trace.json" -events "$smoke/run.events"
go run ./cmd/surfer-trace -in "$smoke/trace.json"
go run ./cmd/surfer-trace -in "$smoke/run.events" -breakdown
# The one Prometheus exposition writer, on the capture above.
go run ./cmd/surfer-metrics -trace "$smoke/run.events" -prom | grep -q surfer_series_last
# Critical-path analysis gate: the analyzer must accept its own capture
# (nonzero exit on a malformed or acausal stream) and emit the blame table.
go run ./cmd/surfer-analyze -trace "$smoke/run.events" > "$smoke/report.txt"
grep -q "blame attribution" "$smoke/report.txt"
# And it refuses the Chrome export in the scan itself, as the other format
# rather than a damaged stream.
if go run ./cmd/surfer-analyze -trace "$smoke/trace.json" 2> "$smoke/chrome-refused.txt"; then
    echo "surfer-analyze accepted a Chrome export" >&2
    exit 1
fi
grep -q "not a raw event trace" "$smoke/chrome-refused.txt"
# A window far shorter than the run is refused in one line, not grown until
# memory runs out; the address-space limit makes a regression fail fast.
go build -o "$smoke/surfer-metrics" ./cmd/surfer-metrics
if (ulimit -v 4000000 && "$smoke/surfer-metrics" -trace "$smoke/run.events" -window 1e-12) 2> "$smoke/window-refused.txt"; then
    echo "surfer-metrics accepted a 1e-12 s window" >&2
    exit 1
fi
grep -q "windows a series may hold" "$smoke/window-refused.txt"
# Bench report schema + regression gate: a small table1 run must emit a
# valid surfer-bench/v1 report, and comparing it against itself must pass.
go run ./cmd/surfer-bench -experiment table1 -vertices 8192 -machines 8 \
    -levels 3 -json "$smoke/bench.json" > /dev/null
go run ./cmd/surfer-analyze -compare "$smoke/bench.json" "$smoke/bench.json" -threshold 5%
# And a tampered copy (parmetis_seconds inflated ~10x) must fail the gate.
sed 's/"parmetis_seconds": \([0-9]\)/"parmetis_seconds": 9\1/' \
    "$smoke/bench.json" > "$smoke/bench-bad.json"
if go run ./cmd/surfer-analyze -compare "$smoke/bench.json" "$smoke/bench-bad.json" -threshold 5%; then
    echo "compare gate failed to catch a regression" >&2
    exit 1
fi
# The whole experiment suite, whose runs replay plans shared through each
# bisection's memo, at one and at two workers: the two event streams must be
# the same bytes.
go build -o "$smoke/surfer-bench" ./cmd/surfer-bench
for w in 1 2; do
    "$smoke/surfer-bench" -experiment all -vertices 4096 -machines 8 -levels 3 \
        -workers "$w" -events "$smoke/all-w$w.events" > /dev/null
done
cmp "$smoke/all-w1.events" "$smoke/all-w2.events"
# Elastic membership smoke: a fault file with a spot-instance join (outside
# the topology, so surfer-run must expand the cluster) and a drain runs end
# to end, and the autoscaler turns the capture into a replayable plan.
cat > "$smoke/elastic.json" <<'EOF'
{
  "joins":  [{"machine": 8, "at": 0.0005, "nics": 62.5e6}],
  "drains": [{"machine": 3, "at": 0.001, "deadline": 1.0}]
}
EOF
go run ./cmd/surfer-run -graph "$smoke/g.srfg" -app nr -topology t1 \
    -machines 8 -levels 3 -fail "$smoke/elastic.json" \
    -events "$smoke/elastic.events" -metrics "$smoke/live.series" > "$smoke/elastic.txt"
grep -q "elasticity:.*1 join(s), 1 drain(s)" "$smoke/elastic.txt"
# Series sampled live during the run above must be byte-identical to series
# derived offline from its capture (EXPERIMENTS.md's two-path contract), here
# on a seeded fault+elastic schedule.
go run ./cmd/surfer-metrics -trace "$smoke/elastic.events" -window 0.25 -json \
    > "$smoke/derived.series"
cmp "$smoke/live.series" "$smoke/derived.series"
# "migration=" appears only when the critical path spent time on the eviction.
go run ./cmd/surfer-analyze -trace "$smoke/elastic.events" | grep -q "migration="
go run ./cmd/surfer-analyze -autoscale "$smoke/elastic.events" -json > "$smoke/plan.json"
go run ./cmd/surfer-run -graph "$smoke/g.srfg" -app nr -topology t1 \
    -machines 8 -levels 3 -fail "$smoke/plan.json" > /dev/null
# Chaos smoke: one fault file with all six keys (the join names a machine of
# the topology, so surfer-bench takes it as it stands) through a traced run,
# the breakdown, and Figure 10, which drops the file's kill for its own.
cat > "$smoke/chaos.json" <<'EOF'
{
  "kills":     [{"machine": 5, "at": 0.0015}],
  "links":     [{"src": 0, "dst": 3, "from": 0.0005, "until": 0.002, "factor": 4}],
  "drops":     [{"src": 1, "dst": 2, "from": 0.0002, "until": 0.0008}],
  "slowdowns": [{"machine": 6, "from": 0, "until": 0.002, "factor": 3}],
  "joins":     [{"machine": 7, "at": 0.0005, "nics": 62.5e6}],
  "drains":    [{"machine": 3, "at": 0.001, "deadline": 1.0}]
}
EOF
go run ./cmd/surfer-run -graph "$smoke/g.srfg" -app nr -topology t1 \
    -machines 8 -levels 3 -fail "$smoke/chaos.json" \
    -events "$smoke/chaos.events" > "$smoke/chaos.txt"
grep -q "elasticity:.*1 join(s), 1 drain(s)" "$smoke/chaos.txt"
go run ./cmd/surfer-trace -in "$smoke/chaos.events" -breakdown > "$smoke/chaos-breakdown.txt"
grep -q "drops=1" "$smoke/chaos-breakdown.txt"
grep -q "FAILED" "$smoke/chaos-breakdown.txt"
go run ./cmd/surfer-bench -experiment fig10 -vertices 4096 -machines 8 \
    -levels 3 -faults "$smoke/chaos.json" > "$smoke/chaos-fig10.txt"
grep -q "task recoveries" "$smoke/chaos-fig10.txt"
# Multi-tenant smoke + regression gate: replay a generated workload through
# the job service, find the scheduler's queued-preempted category in the blame
# table, then gate the multitenant bench against BENCH_multitenant.json.
go run ./cmd/surfer-submit -gen 6 -tenants 3 -seed 7 -out "$smoke/jobs.json"
go run ./cmd/surfer-submit -jobs "$smoke/jobs.json" -policy fair \
    -events "$smoke/jobs.events" > "$smoke/submit.txt"
grep -q "Jain fairness" "$smoke/submit.txt"
# The breakdown files each event under its own job and stage, so on this
# two-slot run every stage line has a machine row under it and no stage is
# "(untracked)".
go run ./cmd/surfer-trace -in "$smoke/jobs.events" -breakdown > "$smoke/jobs-breakdown.txt"
awk '/^  stage /{if (open || /\(untracked\)/) bad = 1; open = 1; next}
     /^    m/{open = 0} END{exit bad || open}' "$smoke/jobs-breakdown.txt"
go run ./cmd/surfer-analyze -trace "$smoke/jobs.events" | grep -q "queued-preempted"
go run ./cmd/surfer-bench -experiment multitenant -vertices 4096 -levels 4 \
    -machines 8 -json "$smoke/mt.json" > /dev/null
go run ./cmd/surfer-analyze -compare BENCH_multitenant.json "$smoke/mt.json" -threshold 5%
# Auto-tuner smoke: a tiny deterministic search (virtual objective, fixed
# seed) must find a winner and print the trace.
go run ./cmd/surfer-tune -app nr -vertices 4096 -machines 8 -levels 3 \
    -seed 42 > "$smoke/tune.txt"
grep -q '^best:' "$smoke/tune.txt"
# Scale gate: the 65k row at the committed baseline's exact parameters
# against BENCH_scale.json (-compare checks only the entries the new report
# has, so the baseline's 1M rows ride along as reference).
go run ./cmd/surfer-bench -experiment scale -sizes 65536 -vertices 65536 \
    -machines 32 -levels 6 -seed 42 -json "$smoke/scale.json" > /dev/null
go run ./cmd/surfer-analyze -compare BENCH_scale.json "$smoke/scale.json" -threshold 5%
