#!/bin/sh
# Integration test for trojanscout_cli: generate a Trojaned core as Verilog,
# audit it against the shipped spec, and require the Trojan verdict (exit 2).
set -e
CLI="$1"
SPEC_DIR="$2"
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

"$CLI" gen --family=mc8051 --trojan=MC8051-T800 --out="$WORK/ip.v"
"$CLI" info --design="$WORK/ip.v" | grep -q "registers:.*sp"

set +e
"$CLI" check --design="$WORK/ip.v" --spec="$SPEC_DIR/mc8051_sp.spec" \
  --register=sp --frames=16 --minimize --vcd="$WORK/w.vcd"
CODE=$?
set -e
[ "$CODE" -eq 2 ] || { echo "expected Trojan verdict (2), got $CODE"; exit 1; }
[ -s "$WORK/w.vcd" ] || { echo "missing VCD"; exit 1; }

# Observability: the same audit with the span recorder, the metrics sink,
# and trace-level logging all enabled at once. Still exit 2 (Trojan), and
# the artifacts must carry the expected structure.
set +e
TROJANSCOUT_LOG=trace "$CLI" audit --design="$WORK/ip.v" \
  --spec="$SPEC_DIR/mc8051_sp.spec" --frames=16 --jobs=4 \
  --trace-out="$WORK/trace.json" --metrics-out="$WORK/metrics.jsonl" \
  2>"$WORK/audit.log"
CODE=$?
set -e
[ "$CODE" -eq 2 ] || { echo "expected audit Trojan verdict (2), got $CODE"; exit 1; }
grep -q '"traceEvents"' "$WORK/trace.json" || { echo "trace missing traceEvents"; exit 1; }
grep -q '"name":"audit"' "$WORK/trace.json" || { echo "trace missing audit span"; exit 1; }
grep -q '"type":"summary"' "$WORK/metrics.jsonl" || { echo "metrics missing summary"; exit 1; }
grep -q '"type":"counters"' "$WORK/metrics.jsonl" || { echo "metrics missing counters"; exit 1; }
grep -q 'DEBUG' "$WORK/audit.log" || { echo "TROJANSCOUT_LOG=trace produced no debug logs"; exit 1; }
# The heartbeat is opt-in: no --progress, no [progress] bytes anywhere.
grep -q '\[progress\]' "$WORK/audit.log" && { echo "heartbeat output without --progress"; exit 1; }

# The same audit with the live heartbeat and the phase profiler on.
set +e
"$CLI" audit --design="$WORK/ip.v" --spec="$SPEC_DIR/mc8051_sp.spec" \
  --frames=16 --jobs=2 --progress=0.2 \
  --profile-out="$WORK/profile.json" 2>"$WORK/progress.log"
CODE=$?
set -e
[ "$CODE" -eq 2 ] || { echo "expected audit Trojan verdict (2), got $CODE"; exit 1; }
grep -q '\[progress\]' "$WORK/progress.log" || { echo "--progress produced no heartbeat"; exit 1; }
grep -q 'conf/s' "$WORK/progress.log" || { echo "heartbeat lacks solver rates"; exit 1; }
grep -q '"schema":"trojanscout-profile-v1"' "$WORK/profile.json" || { echo "bad profile schema"; exit 1; }
grep -q '"name":"sat:solve"' "$WORK/profile.json" || { echo "profile missing sat:solve phase"; exit 1; }

# prove (check with the PDR engine) must refute the Trojaned core with a
# witness: exit 2.
set +e
"$CLI" prove --design="$WORK/ip.v" --spec="$SPEC_DIR/mc8051_sp.spec" \
  --register=sp >"$WORK/prove.out"
CODE=$?
set -e
[ "$CODE" -eq 2 ] || { echo "expected prove Trojan verdict (2), got $CODE"; exit 1; }
grep -q TROJAN "$WORK/prove.out" || { echo "prove printed no witness"; exit 1; }

# Clean design must pass and be provable forever.
"$CLI" gen --family=mc8051 --out="$WORK/clean.v"
"$CLI" check --design="$WORK/clean.v" --spec="$SPEC_DIR/mc8051_sp.spec" \
  --register=sp --frames=12
"$CLI" prove --design="$WORK/clean.v" --spec="$SPEC_DIR/mc8051_sp.spec" \
  --register=sp | grep -q PROVEN
# A prove that neither proves nor refutes (here: no time budget) is not a
# pass: UNKNOWN, exit 1.
set +e
"$CLI" prove --design="$WORK/clean.v" --spec="$SPEC_DIR/mc8051_sp.spec" \
  --register=sp --budget=0 >"$WORK/unknown.out"
CODE=$?
set -e
[ "$CODE" -eq 1 ] || { echo "expected prove UNKNOWN (1) without a budget, got $CODE"; exit 1; }
grep -q UNKNOWN "$WORK/unknown.out" || { echo "prove without a proof did not say UNKNOWN"; exit 1; }

# Flags are declared per subcommand: an undeclared one (a typo, or a flag
# that was removed) is a usage error, not a run with defaults.
set +e
"$CLI" audit --design="$WORK/clean.v" --spec="$SPEC_DIR/mc8051_sp.spec" \
  --frames=2 --flight-out="$WORK/flight.json" >"$WORK/unknown_flag.out" 2>&1
CODE=$?
set -e
[ "$CODE" -eq 1 ] || { echo "expected unknown flag to exit 1, got $CODE"; exit 1; }
grep -q "unknown flag --flight-out for audit" "$WORK/unknown_flag.out" \
  || { echo "unknown flag not named in the error"; exit 1; }
[ ! -e "$WORK/flight.json" ] || { echo "unknown flag still produced output"; exit 1; }

# The retired monitoring surface fails closed the same way, before any
# socket is bound or dialled.
retired() {
  SUB="$1"
  FLAG="$2"
  shift 2
  set +e
  "$CLI" "$SUB" "$@" >"$WORK/retired.out" 2>&1
  CODE=$?
  set -e
  [ "$CODE" -eq 1 ] || { echo "$SUB --$FLAG: expected exit 1, got $CODE"; exit 1; }
  grep -q "unknown flag --$FLAG for $SUB" "$WORK/retired.out" \
    || { echo "$SUB: retired flag --$FLAG not named in the error"; exit 1; }
}
retired serve sample-interval-ms --socket="$WORK/serve.sock" --sample-interval-ms=5
retired serve-fleet slo-ms --socket="$WORK/fleet.sock" --spawn=1 --slo-ms=1
retired submit metrics --socket="$WORK/submit.sock" --metrics
for SOCK in serve.sock fleet.sock submit.sock; do
  [ ! -e "$WORK/$SOCK" ] || { echo "retired flag still bound $SOCK"; exit 1; }
done
set +e
"$CLI" top --socket="$WORK/top.sock" >"$WORK/top.out" 2>&1
CODE=$?
set -e
[ "$CODE" -ne 0 ] || { echo "retired top subcommand exited 0"; exit 1; }
grep -q "^usage: trojanscout_cli" "$WORK/top.out" \
  || { echo "retired top subcommand did not print usage"; exit 1; }
[ ! -e "$WORK/top.sock" ] || { echo "retired top subcommand bound a socket"; exit 1; }
echo "cli demo OK"
