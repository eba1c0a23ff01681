#include "taxitrace/mapmatch/candidates.h"

#include <algorithm>
#include <cmath>

namespace taxitrace {
namespace mapmatch {

double DistanceScore(double distance_m, const ScoreOptions& options) {
  return options.distance_mu -
         options.distance_a * std::pow(distance_m, options.distance_exp);
}

double HeadingScore(double movement_heading_rad, bool has_heading,
                    const roadnet::Edge& edge, size_t segment_index,
                    const ScoreOptions& options) {
  if (!has_heading) return 0.0;
  const double edge_heading = edge.geometry.SegmentHeading(segment_index);
  double angle;
  switch (edge.direction) {
    case roadnet::TravelDirection::kForward:
      angle = geo::AngleBetweenHeadings(movement_heading_rad, edge_heading);
      break;
    case roadnet::TravelDirection::kBackward:
      angle = geo::AngleBetweenHeadings(movement_heading_rad,
                                        edge_heading + M_PI);
      break;
    case roadnet::TravelDirection::kBoth:
    default:
      angle = geo::UndirectedAngleBetweenHeadings(movement_heading_rad,
                                                  edge_heading);
      break;
  }
  return options.heading_mu * std::cos(angle);
}

std::vector<MatchCandidate> FindCandidates(
    const roadnet::SpatialIndex& index, const geo::EnPoint& point,
    double movement_heading_rad, bool has_heading,
    const ScoreOptions& options) {
  const std::vector<roadnet::EdgeCandidate> nearby =
      index.Nearby(point, options.search_radius_m);
  std::vector<MatchCandidate> out;
  out.reserve(nearby.size());
  for (const roadnet::EdgeCandidate& cand : nearby) {
    MatchCandidate mc;
    mc.edge = cand.edge;
    mc.projection = cand.projection;
    mc.distance_score = DistanceScore(cand.projection.distance, options);
    mc.heading_score =
        HeadingScore(movement_heading_rad, has_heading,
                     index.network().edge(cand.edge),
                     cand.projection.segment_index, options);
    out.push_back(mc);
  }
  std::sort(out.begin(), out.end(),
            [](const MatchCandidate& a, const MatchCandidate& b) {
              return a.TotalScore() > b.TotalScore();
            });
  return out;
}

}  // namespace mapmatch
}  // namespace taxitrace
