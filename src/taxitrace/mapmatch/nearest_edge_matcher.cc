#include "taxitrace/mapmatch/nearest_edge_matcher.h"

namespace taxitrace {
namespace mapmatch {

NearestEdgeMatcher::NearestEdgeMatcher(const roadnet::RoadNetwork* network,
                                       const roadnet::SpatialIndex* index)
    : network_(network), index_(index) {}

Result<MatchedRoute> NearestEdgeMatcher::Match(
    const trace::Trip& trip) const {
  if (trip.points.size() < 2) {
    return Status::InvalidArgument("trip has fewer than two points");
  }
  const geo::LocalProjection& proj = network_->projection();
  MatchedRoute route;
  std::vector<geo::EnPoint> snapped;
  std::vector<roadnet::EdgeCandidate> nearby;
  for (size_t i = 0; i < trip.points.size(); ++i) {
    const geo::EnPoint p = proj.Forward(trip.points[i].position);
    index_->Nearby(p, roadnet::SpatialIndex::kReachM, &nearby);
    if (nearby.empty()) {
      ++route.points_skipped;
      continue;
    }
    const roadnet::EdgeCandidate& nearest = nearby.front();
    route.points.push_back(MatchedPoint{
        i,
        roadnet::EdgePosition{nearest.edge, nearest.projection.arc_length},
        nearest.projection.distance});
    if (route.steps.empty() || route.steps.back().edge != nearest.edge) {
      route.steps.push_back(roadnet::PathStep{nearest.edge, true});
    }
    snapped.push_back(nearest.projection.point);
  }
  if (route.points.size() < 2) {
    return Status::NotFound("fewer than two points could be snapped");
  }
  route.geometry = geo::Polyline(std::move(snapped));
  route.length_m = route.geometry.Length();
  return route;
}

}  // namespace mapmatch
}  // namespace taxitrace
