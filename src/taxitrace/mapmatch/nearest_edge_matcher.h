// Baseline matcher: snaps every point independently to the nearest edge,
// with no connectivity reasoning. Exists as the ablation baseline for
// the incremental matcher.

#ifndef TAXITRACE_MAPMATCH_NEAREST_EDGE_MATCHER_H_
#define TAXITRACE_MAPMATCH_NEAREST_EDGE_MATCHER_H_

#include "taxitrace/mapmatch/incremental_matcher.h"

namespace taxitrace {
namespace mapmatch {

/// Point-wise nearest-edge matcher.
class NearestEdgeMatcher {
 public:
  NearestEdgeMatcher(const roadnet::RoadNetwork* network,
                     const roadnet::SpatialIndex* index);

  /// Snaps each point to its nearest edge within the index's reach
  /// (roadnet::SpatialIndex::kReachM); a point with none is counted in
  /// `points_skipped`. The returned geometry is the polyline through
  /// the snapped points (it may jump between disconnected edges — that
  /// is the point of the baseline).
  Result<MatchedRoute> Match(const trace::Trip& trip) const;

 private:
  const roadnet::RoadNetwork* network_;
  const roadnet::SpatialIndex* index_;
};

}  // namespace mapmatch
}  // namespace taxitrace

#endif  // TAXITRACE_MAPMATCH_NEAREST_EDGE_MATCHER_H_
