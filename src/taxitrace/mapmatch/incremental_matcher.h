// Incremental map matching (Section IV-E): the greedy position +
// orientation matcher of Brakatsoulas et al. (VLDB'05), enhanced with
// travel-direction information from the digital map and with Dijkstra
// gap filling when consecutive points are far apart.

#ifndef TAXITRACE_MAPMATCH_INCREMENTAL_MATCHER_H_
#define TAXITRACE_MAPMATCH_INCREMENTAL_MATCHER_H_

#include <vector>

#include "taxitrace/common/result.h"
#include "taxitrace/mapmatch/candidates.h"
#include "taxitrace/mapmatch/gap_filler.h"
#include "taxitrace/trace/trip.h"

namespace taxitrace {
namespace mapmatch {

/// One GPS point matched onto the network.
struct MatchedPoint {
  size_t point_index = 0;  ///< Index into the trip's points.
  roadnet::EdgePosition position;
  double distance_m = 0.0;  ///< GPS-to-road distance.
};

/// A fully matched route.
struct MatchedRoute {
  std::vector<MatchedPoint> points;
  /// Traversed edges in drive order (adjacent duplicates merged).
  std::vector<roadnet::PathStep> steps;
  /// Stitched driving geometry from the first to the last matched point.
  geo::Polyline geometry;
  double length_m = 0.0;
  int gaps_filled = 0;      ///< Connections longer than the gap threshold.
  int points_skipped = 0;   ///< Points with no candidate in range.

  /// Distinct edge ids traversed.
  [[nodiscard]] std::vector<roadnet::EdgeId> DistinctEdges() const;
};

/// Matcher configuration.
struct MatcherOptions {
  ScoreOptions score;
  GapFillOptions gap;
};

/// Incremental matcher over a prepared network. Holds pointers to the
/// network and index, which must outlive it.
class IncrementalMatcher {
 public:
  IncrementalMatcher(const roadnet::RoadNetwork* network,
                     const roadnet::SpatialIndex* index,
                     MatcherOptions options = {});

  /// Matches a trip's points onto the network. Fails when fewer than two
  /// points can be matched at all. `cache`, when given, is threaded
  /// through GapFiller::Connect, which decides what it stores. Pass one
  /// cache per trip (never shared across parallel work items) so
  /// results and cache counters stay independent of worker count.
  Result<MatchedRoute> Match(const trace::Trip& trip,
                             RouteCache* cache = nullptr) const;

  [[nodiscard]] const MatcherOptions& options() const { return options_; }

  /// The gap filler, for reading its router's Dijkstra work counters.
  [[nodiscard]] const GapFiller& gap_filler() const { return gap_filler_; }

 private:
  const roadnet::RoadNetwork* network_;
  const roadnet::SpatialIndex* index_;
  GapFiller gap_filler_;
  MatcherOptions options_;
};

}  // namespace mapmatch
}  // namespace taxitrace

#endif  // TAXITRACE_MAPMATCH_INCREMENTAL_MATCHER_H_
