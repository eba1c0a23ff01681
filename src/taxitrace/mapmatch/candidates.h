// Candidate generation and scoring for map matching, following the
// position and orientation score shapes of Brakatsoulas et al. (VLDB'05).

#ifndef TAXITRACE_MAPMATCH_CANDIDATES_H_
#define TAXITRACE_MAPMATCH_CANDIDATES_H_

#include <vector>

#include "taxitrace/roadnet/spatial_index.h"

namespace taxitrace {
namespace mapmatch {

/// Candidate search radius around a GPS fix, metres: within the
/// spatial index's one-cell reach (a static_assert keeps it there).
inline constexpr double kSearchRadiusM = 55.0;

/// Scoring parameters. Defaults follow the VLDB'05 incremental matcher.
struct ScoreOptions {
  /// Distance score: mu_d - a * d^n.
  double distance_mu = 10.0;
  double distance_a = 0.17;
  double distance_exp = 1.4;
  /// Orientation score: mu_a * cos(angle).
  double heading_mu = 10.0;
};

/// One scored candidate for a GPS point.
struct MatchCandidate {
  roadnet::EdgeId edge = roadnet::kInvalidEdge;
  geo::PolylineProjection projection;
  double distance_score = 0.0;
  double heading_score = 0.0;

  [[nodiscard]] double TotalScore() const {
    return distance_score + heading_score;
  }
};

/// Distance score mu_d - a * d^n (may go negative for far candidates).
double DistanceScore(double distance_m, const ScoreOptions& options);

/// Orientation score mu_a * cos(angle between the movement heading and
/// the edge direction), where `segment_heading_rad` is the heading of
/// the matched edge segment in edge orientation (from -> to). For
/// two-way edges the better of the two edge directions is used; for
/// one-way edges only the drivable direction. `has_heading` disables the
/// term (returns 0) for stationary points.
double HeadingScore(double movement_heading_rad, bool has_heading,
                    roadnet::TravelDirection direction,
                    double segment_heading_rad, const ScoreOptions& options);

/// Finds and scores candidates for one point. Sorted by descending total
/// score. Each candidate's heading is read from the network's segment
/// table (RoadNetwork::SegmentHeadings), not recomputed; an edge with
/// no segment (a one-point geometry) has no heading and scores 0 on
/// the heading term, as a point without a heading does.
std::vector<MatchCandidate> FindCandidates(
    const roadnet::SpatialIndex& index, const geo::EnPoint& point,
    double movement_heading_rad, bool has_heading,
    const ScoreOptions& options);

/// Same as above, written into `*out` (cleared first); `*nearby` is
/// scratch for the index query. Reusing both across a trip's points
/// keeps the per-point search free of allocations.
void FindCandidates(const roadnet::SpatialIndex& index,
                    const geo::EnPoint& point, double movement_heading_rad,
                    bool has_heading, const ScoreOptions& options,
                    std::vector<roadnet::EdgeCandidate>* nearby,
                    std::vector<MatchCandidate>* out);

}  // namespace mapmatch
}  // namespace taxitrace

#endif  // TAXITRACE_MAPMATCH_CANDIDATES_H_
