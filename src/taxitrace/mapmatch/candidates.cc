#include "taxitrace/mapmatch/candidates.h"

#include <algorithm>
#include <cmath>
#include <span>

namespace taxitrace {
namespace mapmatch {

double DistanceScore(double distance_m, const ScoreOptions& options) {
  return options.distance_mu -
         options.distance_a * std::pow(distance_m, options.distance_exp);
}

double HeadingScore(double movement_heading_rad, bool has_heading,
                    roadnet::TravelDirection direction,
                    double segment_heading_rad, const ScoreOptions& options) {
  if (!has_heading) return 0.0;
  double angle;
  switch (direction) {
    case roadnet::TravelDirection::kForward:
      angle = geo::AngleBetweenHeadings(movement_heading_rad,
                                        segment_heading_rad);
      break;
    case roadnet::TravelDirection::kBackward:
      angle = geo::AngleBetweenHeadings(movement_heading_rad,
                                        segment_heading_rad + M_PI);
      break;
    case roadnet::TravelDirection::kBoth:
    default:
      angle = geo::UndirectedAngleBetweenHeadings(movement_heading_rad,
                                                  segment_heading_rad);
      break;
  }
  return options.heading_mu * std::cos(angle);
}

std::vector<MatchCandidate> FindCandidates(
    const roadnet::SpatialIndex& index, const geo::EnPoint& point,
    double movement_heading_rad, bool has_heading,
    const ScoreOptions& options) {
  std::vector<roadnet::EdgeCandidate> nearby;
  std::vector<MatchCandidate> out;
  FindCandidates(index, point, movement_heading_rad, has_heading, options,
                 &nearby, &out);
  return out;
}

void FindCandidates(const roadnet::SpatialIndex& index,
                    const geo::EnPoint& point, double movement_heading_rad,
                    bool has_heading, const ScoreOptions& options,
                    std::vector<roadnet::EdgeCandidate>* nearby,
                    std::vector<MatchCandidate>* out) {
  index.Nearby(point, options.search_radius_m, nearby);
  const roadnet::RoadNetwork& network = index.network();
  out->clear();
  out->reserve(nearby->size());
  for (const roadnet::EdgeCandidate& cand : *nearby) {
    MatchCandidate mc;
    mc.edge = cand.edge;
    mc.projection = cand.projection;
    mc.distance_score = DistanceScore(cand.projection.distance, options);
    const std::span<const double> headings =
        network.SegmentHeadings(cand.edge);
    const size_t segment = cand.projection.segment_index;
    if (segment < headings.size()) {
      mc.heading_score =
          HeadingScore(movement_heading_rad, has_heading,
                       network.edge(cand.edge).direction, headings[segment],
                       options);
    }
    out->push_back(mc);
  }
  std::sort(out->begin(), out->end(),
            [](const MatchCandidate& a, const MatchCandidate& b) {
              return a.TotalScore() > b.TotalScore();
            });
}

}  // namespace mapmatch
}  // namespace taxitrace
