#include "taxitrace/core/segment_match.h"

#include <utility>

#include "taxitrace/mapmatch/route_cache.h"
#include "taxitrace/trace/route_point.h"

namespace taxitrace {
namespace core {

SegmentMatchOutput MatchSegment(const trace::Trip& segment,
                                const SegmentMatchContext& context) {
  SegmentMatchOutput out;
  out.segment_points = static_cast<int64_t>(segment.points.size());
  // One route memo per cleaned segment, shared by all its matched
  // transitions and never by other segments.
  mapmatch::RouteCache route_cache(context.route_cache_capacity);

  const odselect::TripGateAnalysis analysis =
      context.extractor->Analyze(segment);
  if (!analysis.crosses_gate_at_angle ||
      analysis.distinct_gates_crossed < 2) {
    return out;
  }
  ++out.filtered_cleaned;

  for (const odselect::Transition& transition : analysis.transitions) {
    ++out.transitions_examined;
    if (!odselect::IsSelectedDirection(transition,
                                       *context.transition_filter)) {
      ++out.dropped_direction;
      continue;
    }
    ++out.transitions_total;
    if (!odselect::IsWithinCentralArea(transition, *context.central_area,
                                       context.region, *context.projection,
                                       *context.transition_filter)) {
      ++out.dropped_outside_central;
      continue;
    }
    ++out.transitions_central;

    // Map matching (only cleared transitions through the centre are
    // matched, as in the paper).
    Result<mapmatch::MatchedRoute> route =
        context.matcher->Match(transition.segment, &route_cache);
    if (!route.ok()) {
      ++out.dropped_match_failed;
      continue;
    }

    const auto origin_it = context.gate_by_name->find(transition.origin);
    const auto dest_it = context.gate_by_name->find(transition.destination);
    if (origin_it == context.gate_by_name->end() ||
        dest_it == context.gate_by_name->end()) {
      ++out.dropped_unknown_gate;
      continue;
    }
    if (!odselect::PassesEndpointPostFilter(
            route->geometry, *origin_it->second, *dest_it->second,
            *context.transition_filter)) {
      ++out.dropped_endpoint_filter;
      continue;
    }
    ++out.post_filtered;

    // Attributes and the per-transition record.
    MatchedTransition mt{transition, std::move(*route), {}};
    mt.record.trip_id = transition.segment.trip_id;
    mt.record.car_id = transition.segment.car_id;
    mt.record.direction = transition.Label();
    mt.record.start_time_s = transition.segment.StartTime();
    mt.record.route_time_h =
        trace::TimeSpanSeconds(transition.segment.points) / 3600.0;
    mt.record.route_distance_km = mt.route.length_m / 1000.0;
    mt.record.low_speed_share =
        analysis::LowSpeedShare(transition.segment, *context.speed);
    mt.record.normal_speed_share = analysis::NormalSpeedShare(
        transition.segment, mt.route, *context.network, *context.speed);
    double fuel = 0.0;
    for (size_t k = 1; k < transition.segment.points.size(); ++k) {
      fuel += transition.segment.points[k].fuel_delta_ml;
    }
    mt.record.fuel_ml = fuel;
    mt.record.attributes = context.fetcher->Fetch(mt.route);
    out.transitions.push_back(std::move(mt));
  }
  out.cache_hits = route_cache.stats().hits;
  out.cache_misses = route_cache.stats().misses;
  out.cache_evictions = route_cache.stats().evictions;
  return out;
}

void AddMatchCounts(const SegmentMatchOutput& segment,
                    SegmentMatchOutput* totals) {
  totals->filtered_cleaned += segment.filtered_cleaned;
  totals->transitions_total += segment.transitions_total;
  totals->transitions_central += segment.transitions_central;
  totals->post_filtered += segment.post_filtered;
  totals->transitions_examined += segment.transitions_examined;
  totals->dropped_direction += segment.dropped_direction;
  totals->dropped_outside_central += segment.dropped_outside_central;
  totals->dropped_match_failed += segment.dropped_match_failed;
  totals->dropped_unknown_gate += segment.dropped_unknown_gate;
  totals->dropped_endpoint_filter += segment.dropped_endpoint_filter;
  totals->cache_hits += segment.cache_hits;
  totals->cache_misses += segment.cache_misses;
  totals->cache_evictions += segment.cache_evictions;
}

void AddSelectionFunnelRows(const SegmentMatchOutput& totals,
                            int64_t segments, obs::FunnelLedger* funnel) {
  funnel
      ->AddStage("segments.gate_selection", "segments", segments,
                 totals.filtered_cleaned)
      .Drop("no_gate_crossing", segments - totals.filtered_cleaned);
  funnel
      ->AddStage("transitions.selection", "transitions",
                 totals.transitions_examined, totals.post_filtered)
      .Drop("direction_not_selected", totals.dropped_direction)
      .Drop("outside_central_area", totals.dropped_outside_central)
      .Drop("match_failed", totals.dropped_match_failed)
      .Drop("unknown_gate", totals.dropped_unknown_gate)
      .Drop("endpoint_filter", totals.dropped_endpoint_filter);
}

TripMatchOutput CleanAndMatchTrip(trace::Trip raw,
                                  const clean::CleaningOptions& cleaning,
                                  const SegmentMatchContext& context) {
  TripMatchOutput out;
  out.trip_id = raw.trip_id;
  out.car_id = raw.car_id;
  out.raw_points = static_cast<int64_t>(raw.points.size());
  out.clean = clean::CleanOneTrip(std::move(raw), cleaning);
  // The segments die at return, here on the worker, so no cleaned trace
  // point outlives its trip's matching.
  const std::vector<trace::Trip> segments =
      std::exchange(out.clean.segments, {});
  out.matches.reserve(segments.size());
  for (const trace::Trip& segment : segments) {
    out.matches.push_back(MatchSegment(segment, context));
  }
  return out;
}

}  // namespace core
}  // namespace taxitrace
