#!/usr/bin/env bash
# Runs one ablation or seed-stability program and fails unless it exits
# 0, prints exactly the expected number of `Check:` lines, and none of
# them reads VIOLATED.
#
#   check_gate.sh <program> <expected checks>
set -euo pipefail
PROGRAM="$1"
EXPECTED="$2"
LOG="$(mktemp)"
trap 'rm -f "$LOG"' EXIT

"$PROGRAM" > "$LOG"
cat "$LOG"
checks="$(grep -c '^Check: ' "$LOG" || true)"
if [ "$checks" -ne "$EXPECTED" ]; then
  echo "expected $EXPECTED checks, got $checks" >&2
  exit 1
fi
if grep '^Check: .* -> VIOLATED$' "$LOG" >&2; then
  echo "a check is violated" >&2
  exit 1
fi
