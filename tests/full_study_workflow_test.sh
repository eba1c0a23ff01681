#!/usr/bin/env bash
# End-to-end test of the full_study example: a small study writes every
# table and figure artefact, the paper-scale study prints all 13 paper
# checks and every one holds, and malformed arguments of full_study and
# route_inspector are usage errors (exit code 2).
#
#   full_study_workflow_test.sh <full_study> <route_inspector>
set -euo pipefail
FULL_STUDY="$1"
ROUTE_INSPECTOR="$2"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$FULL_STUDY" "$WORK/out" small 1 3 9 > "$WORK/log"
grep -q "Done:" "$WORK/log"
for artefact in tables.txt fig3_speed_map_taxi1.csv \
    fig4_fig5_speed_points_all.csv fig6_cell_map_LT.geojson \
    fig7_qqplot.csv fig8_intercepts.csv fig9_intercept_map.geojson \
    fig10_weather_low_speed.csv hourly_speed.csv fig2_gates.geojson \
    road_network.geojson traffic_elements.csv map_features.csv; do
  if [ ! -s "$WORK/out/$artefact" ]; then
    echo "missing or empty artefact: $artefact" >&2
    exit 1
  fi
done

"$FULL_STUDY" "$WORK/paper" paper > "$WORK/paper.log"
checks="$(grep -c '^Check: ' "$WORK/paper.log" || true)"
if [ "$checks" -ne 13 ]; then
  echo "expected 13 paper checks, got $checks" >&2
  exit 1
fi
if grep '^Check: .* -> VIOLATED$' "$WORK/paper.log" >&2; then
  echo "a paper check is violated" >&2
  exit 1
fi

expect_usage_error() {
  local rc=0
  "$@" > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "expected exit code 2, got $rc: $*" >&2
    exit 1
  fi
}
expect_usage_error "$FULL_STUDY" "$WORK/bad" small 2 7 xyz
expect_usage_error "$FULL_STUDY" "$WORK/bad" small 2 7x
expect_usage_error "$FULL_STUDY" "$WORK/bad" small two 7
expect_usage_error "$FULL_STUDY" "$WORK/bad" small 0 7
expect_usage_error "$FULL_STUDY" "$WORK/bad" small 2 0
expect_usage_error "$FULL_STUDY" "$WORK/bad" small 99999999999 7
expect_usage_error "$FULL_STUDY" "$WORK/bad" small 2 7 -9
expect_usage_error "$FULL_STUDY" "$WORK/bad" winter-storm
expect_usage_error "$ROUTE_INSPECTOR" 12x
expect_usage_error "$ROUTE_INSPECTOR" -1
expect_usage_error "$ROUTE_INSPECTOR" 99999999999999999999
if [ -e "$WORK/bad" ]; then
  echo "a rejected run created its output directory" >&2
  exit 1
fi
echo "full_study workflow OK"
