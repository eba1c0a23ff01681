// The study's unit of work. MatchSegment selects and matches one
// cleaned segment; CleanAndMatchTrip, the fused per-trip unit every
// pipeline source runs on its workers, cleans one raw trip and matches
// each surviving segment. All inputs are shared read-only machinery,
// every counter lands in exactly one bucket, and the per-segment route
// cache lives and dies inside the call — which is what makes the
// outputs foldable in any caller-chosen deterministic order and every
// source byte-identical.

#ifndef TAXITRACE_CORE_SEGMENT_MATCH_H_
#define TAXITRACE_CORE_SEGMENT_MATCH_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "taxitrace/analysis/route_stats.h"
#include "taxitrace/analysis/speed_categories.h"
#include "taxitrace/clean/cleaning_pipeline.h"
#include "taxitrace/geo/coordinates.h"
#include "taxitrace/mapattr/attribute_fetcher.h"
#include "taxitrace/mapmatch/incremental_matcher.h"
#include "taxitrace/obs/funnel.h"
#include "taxitrace/odselect/od_gate.h"
#include "taxitrace/odselect/transition_extractor.h"
#include "taxitrace/odselect/transition_filter.h"
#include "taxitrace/trace/trip.h"

namespace taxitrace {
namespace core {

/// A transition with everything computed about it.
struct MatchedTransition {
  odselect::Transition transition;
  mapmatch::MatchedRoute route;
  analysis::TransitionRecord record;
};

/// What selecting and matching one cleaned segment produced: ordered
/// matched transitions plus Table 3 funnel deltas. Every examined
/// transition lands in exactly one bucket, so
/// transitions_examined == post_filtered + the five drop counters.
struct SegmentMatchOutput {
  int64_t segment_points = 0;  ///< Points of the cleaned segment.
  int64_t filtered_cleaned = 0;
  int64_t transitions_total = 0;
  int64_t transitions_central = 0;
  int64_t post_filtered = 0;
  int64_t transitions_examined = 0;
  int64_t dropped_direction = 0;
  int64_t dropped_outside_central = 0;
  int64_t dropped_match_failed = 0;
  int64_t dropped_unknown_gate = 0;
  int64_t dropped_endpoint_filter = 0;
  // Final tallies of this segment's route cache. Folding them in a
  // deterministic segment order gives worker-count-independent totals
  // because each cache lives and dies inside one MatchSegment call.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evictions = 0;
  std::vector<MatchedTransition> transitions;
};

/// The shared read-only machinery MatchSegment runs against. Everything
/// pointed to must outlive the calls and is never mutated through this
/// struct, so any number of MatchSegment calls may run concurrently
/// against one context.
struct SegmentMatchContext {
  const odselect::TransitionExtractor* extractor = nullptr;
  const std::unordered_map<std::string, const odselect::OdGate*>*
      gate_by_name = nullptr;
  const mapmatch::IncrementalMatcher* matcher = nullptr;
  const mapattr::AttributeFetcher* fetcher = nullptr;
  const roadnet::RoadNetwork* network = nullptr;
  const geo::Polygon* central_area = nullptr;
  const geo::LocalProjection* projection = nullptr;
  geo::Bbox region;
  const odselect::TransitionFilterOptions* transition_filter = nullptr;
  const analysis::SpeedCategoryOptions* speed = nullptr;
  /// Capacity of the per-segment route cache (matcher gap-fill memo).
  size_t route_cache_capacity = 0;
};

/// Selects, matches and annotates every transition of one cleaned
/// segment. Thread-safe given the context contract above.
SegmentMatchOutput MatchSegment(const trace::Trip& segment,
                                const SegmentMatchContext& context);

/// Adds the funnel and cache counters of `segment` into `totals`.
void AddMatchCounts(const SegmentMatchOutput& segment,
                    SegmentMatchOutput* totals);

/// Appends the selection funnel rows to `funnel`: `segments.gate_selection`
/// over `segments` cleaned segments and `transitions.selection`, from
/// the fleet-wide `totals` of AddMatchCounts.
void AddSelectionFunnelRows(const SegmentMatchOutput& totals,
                            int64_t segments, obs::FunnelLedger* funnel);

/// One raw trip through the fused per-trip unit: its cleaning counters
/// plus one SegmentMatchOutput per surviving segment, in segment order.
/// The segments themselves are gone (`clean.segments` is empty): each
/// one's point count is all the fold needs of it.
struct TripMatchOutput {
  int64_t trip_id = 0;  ///< The raw trip's id.
  int car_id = 0;       ///< The raw trip's car, shared by its segments.
  int64_t raw_points = 0;  ///< The raw trip's point count.
  clean::TripCleanOutput clean;
  std::vector<SegmentMatchOutput> matches;
};

/// Cleans one raw trip (clean::CleanOneTrip), runs MatchSegment on every
/// segment that survives, and frees the segments on the calling worker.
/// Thread-safe given the context contract above; folding the outputs in
/// raw-trip order gives the same results from every source.
TripMatchOutput CleanAndMatchTrip(trace::Trip raw,
                                  const clean::CleaningOptions& cleaning,
                                  const SegmentMatchContext& context);

}  // namespace core
}  // namespace taxitrace

#endif  // TAXITRACE_CORE_SEGMENT_MATCH_H_
