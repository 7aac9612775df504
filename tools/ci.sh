#!/bin/sh
# CI driver: builds and tests the tree three times —
#   1. a plain Release-ish build running the full suite,
#   2. a ThreadSanitizer build re-running the suite (the parallel property
#      scheduler, thread pool, and lazy netlist caches execute under TSan,
#      with the equivalence tests exercising jobs > 1), and
#   3. an AddressSanitizer + UndefinedBehaviorSanitizer build (the CDCL
#      solver, DRAT checker, and certificate (de)serializers are dense
#      with raw index arithmetic and byte-level parsing of untrusted
#      certificate input — exactly what ASan/UBSan catch).
#
# Usage: tools/ci.sh [build-dir-prefix]   (default: build-ci)
set -eu

prefix="${1:-build-ci}"
src="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 2)"

run_config() {
  name="$1"
  shift
  dir="${prefix}-${name}"
  echo "=== [$name] configure -> $dir ==="
  cmake -S "$src" -B "$dir" "$@"
  echo "=== [$name] build ==="
  cmake --build "$dir" -j "$jobs"
  if [ "$name" = "release" ]; then
    # Fast-feedback lane: the sub-second test bulk plus the fuzz unit
    # tests (ctest LABELS quick/fuzz) fail within seconds, before the
    # slow whole-catalog sweeps in the full run below get a chance to
    # burn minutes on a broken tree.
    echo "=== [$name] ctest quick lane ==="
    (cd "$dir" && ctest -L 'quick|fuzz' --output-on-failure -j "$jobs")
  fi
  echo "=== [$name] ctest ==="
  (cd "$dir" && ctest --output-on-failure -j "$jobs")
}

run_config release -DCMAKE_BUILD_TYPE=RelWithDebInfo

# Observability leg: quick-mode bench runs emitting BENCH_<name>.json
# history artifacts gated against the committed baselines, a small audit
# producing trace/profile/metrics/progress artifacts, and schema
# validation over everything. All artifacts are archived under
# ${prefix}-release/artifacts/. Guarded on python3 so the sanitizer-only
# environments without it still pass.
if command -v python3 >/dev/null 2>&1; then
  rel="${prefix}-release"
  art="$rel/artifacts"
  mkdir -p "$art"

  echo "=== [release] quick benches -> BENCH history artifacts ==="
  "$rel/bench/bench_table1" --only=MC8051-T800 --budget=5 --depth-budget=1 \
      --repeats=3 --bench-out="$art/BENCH_table1.json" \
      --metrics-out="$art/table1.jsonl"
  "$rel/bench/bench_table2" --repeats=3 \
      --bench-out="$art/BENCH_table2.json" --metrics-out="$art/table2.jsonl"
  "$rel/bench/bench_table3" --only=MC8051-T800 --budget=5 --depth-budget=1 \
      --bench-out="$art/BENCH_table3.json" --metrics-out="$art/table3.jsonl"
  "$rel/bench/bench_parallel_scaling" --only=MC8051-T800 --frames=6 \
      --bench-out="$art/BENCH_parallel_scaling.json" \
      --metrics-out="$art/parallel_scaling.jsonl"
  "$rel/bench/bench_corpus" --repeats=3 --count=24 \
      --bench-out="$art/BENCH_corpus.json"
  "$rel/bench/bench_portfolio" --budget=5 --frames=12 --repeats=3 \
      --bench-out="$art/BENCH_portfolio.json" \
      --metrics-out="$art/portfolio.jsonl"
  (cd "$src" && "$rel/bench/bench_service_throughput" --repeats=3 \
      --clients=4 --per-client=4 --frames=6 \
      --bench-out="$art/BENCH_service_throughput.json")
  # Certificate gate (exit 1 on failure): every certificate passes
  # check_certificate, jobs-1 and jobs-8 certificates are byte-identical,
  # and each certificate's signature equals the plain audit's.
  "$rel/bench/bench_proof_overhead" --frames=4 >"$art/proof_overhead.log"

  echo "=== [release] fuzz smoke: mutation corpus differential harness ==="
  # The seeded sweep re-asserts the harness's three oracles (no clean-design
  # false positives, every simulator-shown Trojan detected, jobs-invariant
  # signatures). CI runs the 128-variant corpus the benchmark's fuzz-corpus
  # workload runs; nightly jobs export TROJANSCOUT_FUZZ_COUNT=200 for the
  # full Section-4 style sweep.
  fuzz_count="${TROJANSCOUT_FUZZ_COUNT:-128}"
  "$rel/tools/trojanscout_cli" fuzz --seed=42 --count="$fuzz_count" \
      --jobs=2 --out="$art/corpus.json" \
      --signature-out="$art/corpus_sig_jobs2" >"$art/fuzz_jobs2.log" 2>&1
  "$rel/tools/trojanscout_cli" fuzz --seed=42 --count="$fuzz_count" \
      --jobs=4 \
      --signature-out="$art/corpus_sig_jobs4" >"$art/fuzz_jobs4.log" 2>&1
  if ! cmp -s "$art/corpus_sig_jobs2" "$art/corpus_sig_jobs4"; then
    echo "FAIL: corpus signature depends on --jobs (determinism oracle)"
    exit 1
  fi

  echo "=== [release] audit observability artifacts ==="
  "$rel/tools/trojanscout_cli" gen --family=mc8051 --trojan=MC8051-T800 \
      --out="$art/ip.v"
  # Exit 2 = trojan found, which is the expected verdict on this IP.
  status=0
  "$rel/tools/trojanscout_cli" audit --design="$art/ip.v" \
      --spec="$src/specs/mc8051_sp.spec" --frames=8 --jobs=2 \
      --progress=0.2 --stall-window=30 \
      --trace-out="$art/audit_trace.json" \
      --profile-out="$art/audit_profile.json" \
      --metrics-out="$art/audit_metrics.jsonl" \
      >"$art/audit_progress.stdout" 2>"$art/audit_progress.stderr" \
      || status=$?
  if [ "$status" -ne 2 ]; then
    echo "FAIL: audit expected exit 2 (trojan found), got $status"
    exit 1
  fi
  if ! grep -q '\[progress\]' "$art/audit_progress.stderr"; then
    echo "FAIL: --progress produced no heartbeat on stderr"
    exit 1
  fi
  # Progress is opt-in: without the flag the heartbeat must be byte-absent
  # from both streams.
  status=0
  "$rel/tools/trojanscout_cli" audit --design="$art/ip.v" \
      --spec="$src/specs/mc8051_sp.spec" --frames=8 --jobs=2 \
      >"$art/audit_plain.stdout" 2>"$art/audit_plain.stderr" || status=$?
  if [ "$status" -ne 2 ]; then
    echo "FAIL: plain audit expected exit 2 (trojan found), got $status"
    exit 1
  fi
  if grep -q '\[progress\]' "$art/audit_plain.stdout" \
      "$art/audit_plain.stderr"; then
    echo "FAIL: heartbeat output present without --progress"
    exit 1
  fi

  echo "=== [release] portfolio smoke (race determinism + unbounded proofs) ==="
  # The three-engine race on the Trojaned catalog IP must still convict
  # (exit 2), regardless of which leg wins the race.
  status=0
  "$rel/tools/trojanscout_cli" audit --design="$art/ip.v" \
      --spec="$src/specs/mc8051_sp.spec" --engine=portfolio --frames=8 \
      --jobs=2 >"$art/portfolio_trojan.stdout" 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "FAIL: portfolio audit expected exit 2 (trojan found), got $status"
    exit 1
  fi
  # On the clean IP the PDR leg must win with unbounded proofs, and the
  # report signature must not depend on --jobs (the race's verdict
  # selection is deterministic; only wall clock is racy). --no-scan: the
  # pseudo-critical obligations are expected-violated even on clean
  # designs and would drown the proven-unbounded signal.
  "$rel/tools/trojanscout_cli" gen --family=mc8051 --out="$art/clean_ip.v"
  "$rel/tools/trojanscout_cli" audit --design="$art/clean_ip.v" \
      --spec="$src/specs/mc8051_sp.spec" --engine=portfolio --frames=8 \
      --no-scan --jobs=1 --signature-out="$art/sig_portfolio_jobs1" \
      --metrics-out="$art/portfolio_audit_metrics.jsonl" \
      >"$art/portfolio_clean.stdout" 2>&1
  "$rel/tools/trojanscout_cli" audit --design="$art/clean_ip.v" \
      --spec="$src/specs/mc8051_sp.spec" --engine=portfolio --frames=8 \
      --no-scan --jobs=4 --signature-out="$art/sig_portfolio_jobs4" \
      >/dev/null 2>&1
  if ! cmp -s "$art/sig_portfolio_jobs1" "$art/sig_portfolio_jobs4"; then
    echo "FAIL: portfolio signature depends on --jobs (determinism)"
    exit 1
  fi
  if ! grep -q "proven-unbounded" "$art/portfolio_clean.stdout"; then
    echo "FAIL: clean portfolio audit produced no proven-unbounded verdict"
    exit 1
  fi
  if ! grep -q "portfolio wins:" "$art/portfolio_clean.stdout"; then
    echo "FAIL: portfolio audit printed no win tallies"
    exit 1
  fi

  echo "=== [release] audit service smoke (daemon + verdict cache) ==="
  # Start the daemon with a fresh cache, submit the catalog IP over the
  # socket, and require the streamed signature to be byte-identical to a
  # direct audit of the same files. A warm re-submit must then be served
  # entirely from the verdict cache (zero engine runs).
  sock="$art/audit.sock"
  "$rel/tools/trojanscout_cli" serve --socket="$sock" \
      --cache-dir="$art/vcache" >"$art/serve.log" 2>&1 &
  serve_pid=$!
  # No socket-polling loop: the submit client owns connection establishment
  # (bounded retries with exponential backoff + jitter) and fails cleanly
  # if the daemon never comes up.
  status=0
  "$rel/tools/trojanscout_cli" submit --socket="$sock" \
      --connect-retries=50 --connect-delay-ms=50 \
      --design="$art/ip.v" --spec="$src/specs/mc8051_sp.spec" --frames=8 \
      --signature-out="$art/sig_daemon_cold" \
      >"$art/submit_cold.log" 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "FAIL: daemon submit expected exit 2 (trojan found), got $status"
    exit 1
  fi
  status=0
  "$rel/tools/trojanscout_cli" submit --socket="$sock" \
      --design="$art/ip.v" --spec="$src/specs/mc8051_sp.spec" --frames=8 \
      --signature-out="$art/sig_daemon_warm" \
      >"$art/submit_warm.log" 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "FAIL: warm daemon submit expected exit 2, got $status"
    exit 1
  fi
  if ! grep -q "served: 0 from cache" "$art/submit_cold.log"; then
    echo "FAIL: cold submit should not have cache hits"
    exit 1
  fi
  if ! grep -q ", 0 computed" "$art/submit_warm.log"; then
    echo "FAIL: warm submit performed engine runs (expected all-cache)"
    exit 1
  fi
  status=0
  "$rel/tools/trojanscout_cli" audit --design="$art/ip.v" \
      --spec="$src/specs/mc8051_sp.spec" --frames=8 --jobs=2 \
      --signature-out="$art/sig_direct" \
      --trace-out="$art/audit_frames_trace.json" \
      >"$art/audit_direct.stdout" 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "FAIL: direct audit expected exit 2, got $status"
    exit 1
  fi
  # Every BMC frame span closes with its solver-counter deltas as args.
  if ! grep -q '"name":"bmc:frame","ph":"E",[^}]*"decisions":' \
      "$art/audit_frames_trace.json"; then
    echo "FAIL: audit trace has no bmc:frame span carrying counter args"
    exit 1
  fi
  if ! cmp -s "$art/sig_daemon_cold" "$art/sig_direct" \
      || ! cmp -s "$art/sig_daemon_warm" "$art/sig_direct"; then
    echo "FAIL: daemon signatures differ from the direct audit"
    exit 1
  fi
  kill -TERM "$serve_pid" 2>/dev/null || true
  wait "$serve_pid" 2>/dev/null || true
  # Cache-instrumented metrics for the schema validator below.
  status=0
  "$rel/tools/trojanscout_cli" audit --design="$art/ip.v" \
      --spec="$src/specs/mc8051_sp.spec" --frames=8 --jobs=2 \
      --cache-dir="$art/vcache" \
      --metrics-out="$art/audit_cached_metrics.jsonl" \
      >"$art/audit_cached.stdout" 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "FAIL: cached audit expected exit 2, got $status"
    exit 1
  fi
  if ! grep -q "\"type\":\"cache\"" "$art/audit_cached_metrics.jsonl"; then
    echo "FAIL: cached audit metrics lack the cache record"
    exit 1
  fi

  echo "=== [release] fleet smoke (TCP coordinator + 2 spawned workers) ==="
  # serve-fleet forks two worker daemons on ephemeral TCP ports sharing an
  # L2 verdict store, shards the job across them by obligation key, and
  # must merge to the exact direct-audit signature; a warm resubmit must
  # be answered entirely from the worker caches.
  ep_file="$art/fleet.endpoint"
  # 1 ms SLO budgets are unmeetable by design: the smoke must observe the
  # deadline tracker emitting slo_breach events, not a quiet fleet.
  "$rel/tools/trojanscout_cli" serve-fleet --socket=tcp:127.0.0.1:0 \
      --spawn=2 --l2-dir="$art/fleet-l2" --run-dir="$art/fleet-run" \
      --trace-out="$art/fleet_trace.json" \
      --events-out="$art/fleet_events.jsonl" --events-max-mb=64 \
      --sample-interval-ms=100 --slo-ms=1 --slo-obligation-ms=1 \
      --port-file="$ep_file" >"$art/fleet.log" 2>&1 &
  fleet_pid=$!
  # The coordinator picks an ephemeral port, so the endpoint string has to
  # be read back; the file appears only once it is listening.
  for _ in $(seq 150); do [ -s "$ep_file" ] && break; sleep 0.1; done
  if ! [ -s "$ep_file" ]; then
    echo "FAIL: fleet coordinator never published its endpoint"
    exit 1
  fi
  fleet_ep="$(cat "$ep_file")"
  status=0
  "$rel/tools/trojanscout_cli" submit --socket="$fleet_ep" \
      --connect-retries=50 --connect-delay-ms=50 --overload-retries=3 \
      --design="$art/ip.v" --spec="$src/specs/mc8051_sp.spec" --frames=8 \
      --signature-out="$art/sig_fleet_cold" \
      >"$art/fleet_cold.log" 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "FAIL: fleet submit expected exit 2 (trojan found), got $status"
    exit 1
  fi
  # First Prometheus scrape, between the cold and warm submits; the second
  # scrape below must show every cumulative family at >= this value.
  "$rel/tools/trojanscout_cli" submit --socket="$fleet_ep" --metrics \
      --out="$art/fleet_metrics_1.txt"
  status=0
  "$rel/tools/trojanscout_cli" submit --socket="$fleet_ep" \
      --overload-retries=3 \
      --design="$art/ip.v" --spec="$src/specs/mc8051_sp.spec" --frames=8 \
      --signature-out="$art/sig_fleet_warm" \
      >"$art/fleet_warm.log" 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "FAIL: warm fleet submit expected exit 2, got $status"
    exit 1
  fi
  if ! cmp -s "$art/sig_fleet_cold" "$art/sig_direct" \
      || ! cmp -s "$art/sig_fleet_warm" "$art/sig_direct"; then
    echo "FAIL: fleet signatures differ from the direct audit"
    exit 1
  fi
  if ! grep -q ", 0 computed" "$art/fleet_warm.log"; then
    echo "FAIL: warm fleet submit performed engine runs (expected all-cache)"
    exit 1
  fi
  # Second scrape after the warm submit: cumulative counters must not have
  # gone backwards between two scrapes of the same live coordinator.
  "$rel/tools/trojanscout_cli" submit --socket="$fleet_ep" --metrics \
      --out="$art/fleet_metrics_2.txt"
  python3 "$src/tools/check_metrics.py" --diff-exposition \
      "$art/fleet_metrics_1.txt" "$art/fleet_metrics_2.txt"
  # Merged-telemetry stats reply: per-worker snapshots + their exact sum,
  # archived and schema-validated (the validator recomputes the merge).
  "$rel/tools/trojanscout_cli" submit --socket="$fleet_ep" --stats --json \
      >"$art/fleet_stats.json"
  "$rel/tools/trojanscout_cli" submit --socket="$fleet_ep" --stats \
      >"$art/fleet_stats.txt"
  # Live dashboard against the running fleet: one machine-readable poll
  # (archived + schema-validated below) and a two-poll rendered run that
  # must exit cleanly on its own.
  "$rel/tools/trojanscout_cli" top --socket="$fleet_ep" --once --json \
      >"$art/fleet_top.json"
  "$rel/tools/trojanscout_cli" top --socket="$fleet_ep" --polls=2 \
      --interval-ms=200 >"$art/fleet_top.txt"
  if ! grep -q "jobs" "$art/fleet_top.txt"; then
    echo "FAIL: top did not render a fleet header"
    exit 1
  fi
  kill -TERM "$fleet_pid" 2>/dev/null || true
  wait "$fleet_pid" 2>/dev/null || true
  # The stitched trace is finalized at coordinator stop(); every fleet
  # artifact must exist before validation below.
  for f in fleet_trace.json fleet_events.jsonl fleet_stats.json \
      fleet_metrics_1.txt fleet_metrics_2.txt fleet_top.json; do
    if ! [ -s "$art/$f" ]; then
      echo "FAIL: fleet smoke did not produce $f"
      exit 1
    fi
  done
  # Worker frame spans keep their counter args through the stitch.
  if ! grep -q '"name":"bmc:frame","ph":"E",[^}]*"decisions":' \
      "$art/fleet_trace.json"; then
    echo "FAIL: stitched fleet trace lost the worker frame-span args"
    exit 1
  fi
  # The unmeetable 1 ms SLO must have produced structured breach events.
  if ! grep -q '"type": *"slo_breach"' "$art/fleet_events.jsonl"; then
    echo "FAIL: fleet events lack slo_breach records despite a 1ms SLO"
    exit 1
  fi

  echo "=== [release] artifact schema validation ==="
  python3 "$src/tools/check_metrics.py" --self-test
  python3 "$src/tools/check_metrics.py" \
      "$art/BENCH_table1.json" "$art/BENCH_table2.json" \
      "$art/BENCH_table3.json" "$art/BENCH_parallel_scaling.json" \
      "$art/BENCH_corpus.json" "$art/BENCH_service_throughput.json" \
      "$art/BENCH_portfolio.json" "$art/corpus.json" \
      "$art/table1.jsonl" "$art/table2.jsonl" "$art/table3.jsonl" \
      "$art/portfolio.jsonl" "$art/portfolio_audit_metrics.jsonl" \
      "$art/parallel_scaling.jsonl" "$art/audit_trace.json" \
      "$art/audit_profile.json" "$art/audit_metrics.jsonl" \
      "$art/audit_cached_metrics.jsonl" "$art/audit_frames_trace.json" \
      "$art/fleet_trace.json" "$art/fleet_events.jsonl" \
      "$art/fleet_stats.json" "$art/fleet_top.json" \
      "$art/fleet_metrics_1.txt" "$art/fleet_metrics_2.txt" \
      "$art"/fleet-run/worker*.events.jsonl

  echo "=== [release] bench regression gate ==="
  python3 "$src/tools/bench_compare.py" --self-test
  for name in table1 table2 table3 parallel_scaling corpus \
      service_throughput portfolio; do
    python3 "$src/tools/bench_compare.py" \
        "$src/bench/baselines/BENCH_${name}.json" \
        "$art/BENCH_${name}.json"
  done
  echo "=== [release] observability artifacts archived in $art ==="
else
  echo "=== skipping observability leg (no python3) ==="
fi
# Halt on the first race report so a regression fails the job instead of
# scrolling past.
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    run_config tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTROJANSCOUT_SANITIZE=thread
ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1}" \
    UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
    run_config asan-ubsan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTROJANSCOUT_SANITIZE=address,undefined

echo "=== CI OK: release + tsan + asan-ubsan suites passed ==="
