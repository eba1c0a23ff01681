#include "taxitrace/mapattr/attribute_fetcher.h"

#include <algorithm>
#include <set>

namespace taxitrace {
namespace mapattr {
namespace {

// True iff line.Project(p).distance <= radius, answered without always
// paying for the full projection: each segment is first tested against
// its own bounds inflated by the radius (with slack so the reject stays
// conservative under floating-point rounding), and the walk stops at the
// first segment within range. Surviving segments run the same
// ProjectOntoSegment the full projection would, so the boolean matches
// it exactly.
bool WithinDistance(const geo::Polyline& line, const geo::EnPoint& p,
                    double radius) {
  const std::vector<geo::EnPoint>& pts = line.points();
  const double pad = radius + 1e-6;
  for (size_t i = 0; i + 1 < pts.size(); ++i) {
    const geo::EnPoint& a = pts[i];
    const geo::EnPoint& b = pts[i + 1];
    if (p.x < std::min(a.x, b.x) - pad || p.x > std::max(a.x, b.x) + pad ||
        p.y < std::min(a.y, b.y) - pad || p.y > std::max(a.y, b.y) + pad) {
      continue;
    }
    if (geo::ProjectOntoSegment(p, geo::Segment{a, b}).distance <= radius) {
      return true;
    }
  }
  return false;
}

}  // namespace

AttributeFetcher::AttributeFetcher(const roadnet::RoadNetwork* network,
                                   AttributeFetcherOptions options)
    : network_(network), options_(options) {
  for (const roadnet::MapFeature& f : network_->features()) {
    if (f.type == roadnet::FeatureType::kTrafficLight) {
      lights_.push_back(f.position);
    }
  }
}

int AttributeFetcher::CountJunctionsPassed(
    const std::vector<roadnet::PathStep>& steps) const {
  int count = 0;
  for (size_t k = 0; k + 1 < steps.size(); ++k) {
    const roadnet::Edge& e = network_->edge(steps[k].edge);
    const roadnet::VertexId exit_vertex = steps[k].forward ? e.to : e.from;
    if (network_->vertex(exit_vertex).is_junction) ++count;
  }
  return count;
}

RouteAttributes AttributeFetcher::Fetch(
    const mapmatch::MatchedRoute& route) const {
  RouteAttributes attrs;
  attrs.junctions = CountJunctionsPassed(route.steps);
  if (route.geometry.size() < 2) return attrs;

  // Pedestrian crossings and bus stops belong to the road they sit on:
  // count the ones attached to traversed edges (a crossing on a side
  // street 15 m from a passed junction is not on the route). Traffic
  // lights act on the junction as a whole, so they count by proximity to
  // the driven geometry.
  std::set<roadnet::FeatureId> counted;
  for (const roadnet::PathStep& step : route.steps) {
    for (roadnet::FeatureId fid : network_->edge(step.edge).feature_ids) {
      const roadnet::MapFeature& f = network_->feature(fid);
      if (f.type == roadnet::FeatureType::kTrafficLight) continue;
      if (!counted.insert(fid).second) continue;
      if (f.type == roadnet::FeatureType::kPedestrianCrossing) {
        ++attrs.pedestrian_crossings;
      } else {
        ++attrs.bus_stops;
      }
    }
  }

  const geo::Bbox route_box = route.geometry.Bounds().Inflated(
      options_.traffic_light_radius_m + 10.0);
  for (const geo::EnPoint& light : lights_) {
    if (!route_box.Contains(light)) continue;
    if (WithinDistance(route.geometry, light,
                       options_.traffic_light_radius_m)) {
      ++attrs.traffic_lights;
    }
  }
  return attrs;
}

}  // namespace mapattr
}  // namespace taxitrace
