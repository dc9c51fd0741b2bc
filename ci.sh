#!/bin/sh
# CI gate: vet, build, full test suite, race detector over the packages with
# real cross-goroutine traffic, a benchmark smoke pass, and a smoke batch run
# through the experiment harness. Exits non-zero on the first failure.
#
# `./ci.sh bench` instead runs the full benchmark suites with -benchmem and
# writes a benchstat-comparable baseline to results/bench.json (tune with
# BENCH_COUNT / BENCH_TIME / BENCH_PATTERN). Compare a working tree against
# the committed baseline with:
#
#	go run ./cmd/benchjson -print results/bench.json > /tmp/old.txt
#	go test -run '^$' -bench . -benchmem -count 5 ./... > /tmp/new.txt
#	benchstat /tmp/old.txt /tmp/new.txt
set -eu

cd "$(dirname "$0")"

if [ "${1:-}" = "obs" ]; then
    # Observability-focused slice of the gate: the determinism contract
    # (artifact snapshots byte-identical across worker counts and both
    # schedulers) and the golden trace/artifact schemas, all under -race.
    echo "== obs: determinism + golden schema (-race) =="
    go test -race -run 'Metrics|GoldenSchema|ChromeTrace|Observability' \
        ./internal/obs ./internal/exp ./internal/platform
    echo "== obs passed =="
    exit 0
fi

if [ "${1:-}" = "bench-compare" ]; then
    # Soft performance gate: re-run the headline channel benchmarks (fig6b
    # single transmission, fig7 window sweep) and diff them against the
    # committed baseline. Smoke timings are single-shot and noisy, so
    # benchjson's default advisory mode is used — a regression past the
    # threshold prints a loud warning instead of failing the build; run
    # `./ci.sh bench` for a statistically sound baseline before acting on
    # one, and `./ci.sh bench-gate` for the hard-gated epoch-kernel check.
    base="${BENCH_BASELINE:-results/bench.json}"
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    echo "== bench-compare: fig6b/fig7 smoke vs $base (soft) =="
    go test -run '^$' -bench 'Fig6bCovertChannel|Fig7WindowSweep' -benchmem \
        -benchtime 1x -count "${BENCH_COUNT:-3}" . > "$tmp/new.txt"
    go run ./cmd/benchjson -o "$tmp/new.json" < "$tmp/new.txt"
    if go run ./cmd/benchjson diff -subset -threshold "${BENCH_THRESHOLD:-25}" "$base" "$tmp/new.json"; then
        echo "== bench-compare done (advisory) =="
    else
        echo "== bench-compare: WARNING: diff failed (see above) ==" >&2
    fi
    exit 0
fi

if [ "${1:-}" = "bench-gate" ]; then
    # Hard performance gate for the epoch-kernel transmission hot path: the
    # fig6b and fig7 benchmarks run through the compiled window kernel, and
    # losing that speedup (falling back to the general engine, or a kernel
    # slowdown) shows up as a multi-x regression that no noise excuse
    # covers. The generous threshold tolerates smoke-run noise while still
    # catching a lost 2x.
    base="${BENCH_BASELINE:-results/bench.json}"
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    echo "== bench-gate: epoch-kernel fig6b/fig7 vs $base (hard) =="
    go test -run '^$' -bench 'Fig6bCovertChannel$|Fig7WindowSweep$' -benchmem \
        -benchtime 1x -count "${BENCH_COUNT:-3}" . > "$tmp/new.txt"
    go run ./cmd/benchjson -o "$tmp/new.json" < "$tmp/new.txt"
    go run ./cmd/benchjson diff -subset -fail-on-regress \
        -threshold "${BENCH_GATE_THRESHOLD:-60}" "$base" "$tmp/new.json"
    echo "== bench-gate passed =="
    exit 0
fi

if [ "${1:-}" = "bench" ]; then
    count="${BENCH_COUNT:-5}"
    time="${BENCH_TIME:-1s}"
    pattern="${BENCH_PATTERN:-.}"
    out="${BENCH_OUT:-results/bench.json}"
    txt="${out%.json}.txt"
    mkdir -p "$(dirname "$out")"
    echo "== bench: -bench $pattern -count $count -benchtime $time -> $out =="
    go test -run '^$' -bench "$pattern" -benchmem -count "$count" -benchtime "$time" ./... | tee "$txt"
    go run ./cmd/benchjson -o "$out" < "$txt"
    rm -f "$txt"
    echo "== bench baseline written: $out =="
    exit 0
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -race (internal/exp, internal/fault, internal/sim, internal/obs/ops, internal/platform, internal/cpucache, internal/cache) =="
# internal/obs/ops rides along for its scrape-while-updating test: lock-free
# instruments hammered by writers while /metrics renders concurrently.
# internal/platform forks one frozen snapshot from several goroutines
# (TestConcurrentForksMatchSequential): Fork must only read the copy-on-write
# set pages it shares, which cpucache and cache implement.
go test -race ./internal/exp ./internal/fault ./internal/sim ./internal/obs/ops \
    ./internal/platform ./internal/cpucache ./internal/cache

echo "== go test -race: fig6b/fig7 on both engines (1 iteration) =="
# One race-instrumented pass over the transmission hot path per engine: the
# epoch kernel (default) and the general DES engine (forced via env), so a
# data race in either execution mode fails the build.
go test -race -run '^$' -bench 'Fig6bCovertChannel$|Fig7WindowSweep$' -benchtime 1x .
MEECC_FORCE_GENERAL_ENGINE=1 \
    go test -race -run '^$' -bench 'Fig6bCovertChannel$|Fig7WindowSweep$' -benchtime 1x .

echo "== bench smoke (1 iteration per benchmark) =="
# One iteration of every benchmark: catches benchmarks that panic or hang
# without paying for statistically meaningful timings (that's `ci.sh bench`).
go test -run '^$' -bench . -benchtime 1x ./...

echo "== fuzz smoke: internal/code =="
# A short randomized pass over the decoder-facing fuzz targets: the channel
# hands the decoder attacker-observed, noise-corrupted bits, so "never
# panics, never returns unverified payloads" must hold for arbitrary input.
for target in FuzzDecodeNeverPanics FuzzDecodeTruncatedStream; do
    go test ./internal/code -run '^$' -fuzz "$target" -fuzztime 5s
done

echo "== fuzz smoke: internal/snapstore =="
# Snapshot blobs come off disk, where truncation and bit rot are real:
# damaged bytes must come back as errors, never panics or silently wrong
# machines.
go test ./internal/snapstore -run '^$' -fuzz FuzzSnapshotCodec -fuzztime 5s

echo "== fuzz smoke: internal/platform =="
# Forking must be behaviorally invisible under every MEE replacement policy,
# including the randomized ones whose victim source Fork rebinds.
go test ./internal/platform -run '^$' -fuzz FuzzForkEquivalence -fuzztime 5s

echo "== fuzz smoke: internal/serve/journal =="
# The write-ahead log replays whatever a crash left on disk: arbitrary bytes
# must never panic, and every record recovered must be a real record.
go test ./internal/serve/journal -run '^$' -fuzz FuzzJournalReplay -fuzztime 5s

echo "== smoke: meecc batch =="
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/meecc batch -spec examples/specs/smoke.json -out "$tmp"
for f in smoke.json smoke.manifest.json; do
    test -s "$tmp/$f" || { echo "missing artifact $f" >&2; exit 1; }
done

echo "== smoke: meecc serve/submit + telemetry scrape =="
# The experiment service's determinism contract, end to end over real HTTP:
# an artifact served by `meecc serve` is byte-identical to the one the local
# batch run above produced for the same spec — with operational telemetry on
# (it always is), proving wall-clock state never leaks into artifacts. While
# the run is in flight, `meecc top -once -require` scrapes /metrics and
# /healthz and fails the build if any contractual family is missing or the
# exposition doesn't parse.
go build -o "$tmp/meecc" ./cmd/meecc
"$tmp/meecc" serve -addr 127.0.0.1:8391 -storedir "$tmp/snapstore" &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null; rm -rf "$tmp"' EXIT
"$tmp/meecc" submit -spec examples/specs/smoke.json -addr 127.0.0.1:8391 -out "$tmp/served" &
submit_pid=$!
sleep 0.3
"$tmp/meecc" top -addr 127.0.0.1:8391 -once -require \
    meecc_serve_runs_submitted_total,meecc_serve_queue_depth,meecc_serve_runs_active,meecc_serve_trials_executed_total,meecc_serve_trials_memoized_total,meecc_serve_trial_seconds,meecc_journal_appends_total,meecc_journal_append_errors_total,meecc_snapstore_bytes,meecc_snapstore_selfheal_deletions_total,meecc_http_requests_total,meecc_process_goroutines \
    > /dev/null
wait "$submit_pid" || { echo "submit failed" >&2; exit 1; }
kill "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
trap 'rm -rf "$tmp"' EXIT
cmp "$tmp/served/smoke.json" "$tmp/smoke.json" || {
    echo "served artifact differs from local batch artifact" >&2; exit 1; }

echo "== smoke: serve crash recovery (kill -9 / restart / resume) =="
# The durability contract, end to end over real processes: a server killed
# with SIGKILL mid-run loses nothing its journal committed. The resubmitted
# run resumes from the replayed memo and produces an artifact byte-identical
# to the local batch run. (If the first run finishes before the kill lands,
# the resubmission is simply fully memoized — the comparison still holds.)
"$tmp/meecc" serve -addr 127.0.0.1:8392 -journal "$tmp/serve.wal" &
serve_pid=$!
trap 'kill -9 "$serve_pid" 2>/dev/null; rm -rf "$tmp"' EXIT
("$tmp/meecc" submit -spec examples/specs/smoke.json -addr 127.0.0.1:8392 \
    -out "$tmp/crashed" >/dev/null 2>&1 || true) &
submit_pid=$!
sleep 1
kill -9 "$serve_pid"
# The orphaned submit would retry-reconnect for a while; it has served its
# purpose (driving the run the kill interrupted), so take it down too.
kill "$submit_pid" 2>/dev/null || true
wait "$submit_pid" 2>/dev/null || true
test -s "$tmp/serve.wal" || { echo "journal was never written" >&2; exit 1; }
"$tmp/meecc" serve -addr 127.0.0.1:8392 -journal "$tmp/serve.wal" &
serve_pid=$!
trap 'kill -9 "$serve_pid" 2>/dev/null; rm -rf "$tmp"' EXIT
"$tmp/meecc" submit -spec examples/specs/smoke.json -addr 127.0.0.1:8392 -out "$tmp/resumed"
kill "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
trap 'rm -rf "$tmp"' EXIT
cmp "$tmp/resumed/smoke.json" "$tmp/smoke.json" || {
    echo "resumed artifact differs from local batch artifact" >&2; exit 1; }

echo "== smoke: traced fig6b =="
# One traced end-to-end transmission: the exported Chrome trace must pass
# the same structural validation Perfetto relies on (per-actor tracks, MEE
# hit-level counter track).
go run ./cmd/figures -fig 6b -trace "$tmp/fig6b.trace.json" > /dev/null
test -s "$tmp/fig6b.trace.json" || { echo "missing fig6b trace" >&2; exit 1; }
go run ./cmd/meecc inspect "$tmp/fig6b.trace.json"

echo "== bench-gate (hard gate, epoch kernel) =="
sh "$0" bench-gate

echo "== bench-compare (soft gate) =="
sh "$0" bench-compare

echo "== ci passed =="
