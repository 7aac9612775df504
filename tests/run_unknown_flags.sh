#!/bin/sh
# Every bench and example main() declares its flags: an undeclared one (a
# typo, or a flag that was removed) must exit 1 and name the flag instead
# of running with defaults. Usage: run_unknown_flags.sh BINARY...
set -u
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
for BIN in "$@"; do
  "$BIN" --no-such-flag=1 >"$WORK/out" 2>&1
  CODE=$?
  [ "$CODE" -eq 1 ] || { echo "$BIN: expected exit 1, got $CODE"; exit 1; }
  grep -q "error: unknown flag --no-such-flag" "$WORK/out" \
    || { echo "$BIN: unknown flag not named in the error"; cat "$WORK/out"; exit 1; }
done
echo "unknown flags rejected by $# binaries"
