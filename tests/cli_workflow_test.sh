#!/usr/bin/env bash
# End-to-end workflow test of the taxitrace_cli binary: generate a map,
# simulate a small fleet, clean, match and analyze, asserting that every
# stage succeeds and produces non-trivial artefacts.
set -euo pipefail
CLI="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

"$CLI" generate-map elements.csv features.csv 7
test -s elements.csv
test -s features.csv
grep -q "traffic_light" features.csv

"$CLI" simulate elements.csv features.csv trips.csv 1 3 9
test -s trips.csv
# Header plus at least a hundred points.
test "$(wc -l < trips.csv)" -gt 100

"$CLI" clean trips.csv segments.csv | grep -q "rule 1 splits"
test -s segments.csv

"$CLI" match elements.csv features.csv segments.csv routes.geojson 20 \
  | grep -q "matched"
grep -q "LineString" routes.geojson

"$CLI" analyze segments.csv | grep -q "Mixed model"

# The observability-enabled study prints a reconciled funnel and writes
# the snapshot JSON when asked.
"$CLI" study --metrics-json metrics.json 2 7 | grep -q "transitions.selection"
test -s metrics.json
grep -q '"funnel"' metrics.json
grep -q '"counters"' metrics.json

# The query-replay bench prints the reconciled query funnel and its
# throughput and latency line.
"$CLI" serve --bench --queries 20000 2 7 > serve.txt
grep -q "serve.queries" serve.txt
grep -q "qps" serve.txt

# Malformed or out-of-range numbers are usage errors (exit code 2), never
# silently read as 0 or ignored.
expect_usage_error() {
  local rc=0
  "$CLI" "$@" > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "expected exit code 2, got $rc: $*" >&2
    exit 1
  fi
}
expect_usage_error study --stream-ingest --ingest-lag x 1 1
expect_usage_error study --stream-ingest --ingest-lag -5 1 1
expect_usage_error study --ingest-shuffle 3x 1 1
expect_usage_error study 2 seven
expect_usage_error study 0 7
expect_usage_error study 99999999999 7
expect_usage_error simulate elements.csv features.csv t.csv 1 3 -9
expect_usage_error simulate elements.csv features.csv t.csv 4294967297 3
expect_usage_error simulate elements.csv features.csv t.csv 1 3 99999999999999999999
expect_usage_error serve --queries abc 1 1
expect_usage_error serve --queries 0 1 1
expect_usage_error serve 1 1.5
# Options that no longer exist are usage errors too.
expect_usage_error serve --full 1 1
expect_usage_error serve --bench-json out.json 1 1

# Map files with non-finite or out-of-range numbers fail to load with
# an error (exit code 1), never a crash or a silently wrong map.
expect_load_error() {
  local rc=0
  "$CLI" "$@" > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "expected exit code 1, got $rc: $*" >&2
    exit 1
  fi
}
{ cat features.csv; echo "traffic_light,nan,0"; } > features_nan.csv
{ cat features.csv; echo "bus_stop,1e300,0"; } > features_huge.csv
{ cat elements.csv; echo "999999,bad,2,50.0,both,100:0|inf:0"; } \
  > elements_inf.csv
expect_load_error simulate elements.csv features_nan.csv t.csv 1 1
expect_load_error simulate elements.csv features_huge.csv t.csv 1 1
expect_load_error simulate elements_inf.csv features.csv t.csv 1 1

# Unknown commands fail cleanly.
if "$CLI" frobnicate 2>/dev/null; then
  echo "expected failure for unknown command" >&2
  exit 1
fi
echo "cli workflow OK"
