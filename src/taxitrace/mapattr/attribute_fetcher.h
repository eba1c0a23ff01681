// Fetching digital-map attribute data along matched routes (Section
// IV-F): the number of junctions, traffic lights and pedestrian
// crossings a transition passes. Bus stops are counted too but the
// paper's route statistics exclude them (the map does not tell which
// driving direction a stop serves).

#ifndef TAXITRACE_MAPATTR_ATTRIBUTE_FETCHER_H_
#define TAXITRACE_MAPATTR_ATTRIBUTE_FETCHER_H_

#include <vector>

#include "taxitrace/mapmatch/incremental_matcher.h"

namespace taxitrace {
namespace mapattr {

/// Attribute counts along one route.
struct RouteAttributes {
  int junctions = 0;
  int traffic_lights = 0;
  int pedestrian_crossings = 0;
  int bus_stops = 0;
};

/// Influence radii: a feature counts when the route passes within its
/// radius.
struct AttributeFetcherOptions {
  double traffic_light_radius_m = 30.0;
  double pedestrian_crossing_radius_m = 20.0;
  double bus_stop_radius_m = 25.0;
};

/// Fetches attributes along matched routes. Holds a pointer to the
/// network, which must outlive it.
class AttributeFetcher {
 public:
  explicit AttributeFetcher(const roadnet::RoadNetwork* network,
                            AttributeFetcherOptions options = {});

  /// Counts attributes along a matched route: junctions from the
  /// traversed edge sequence, point features by proximity to the driven
  /// geometry (each feature at most once).
  [[nodiscard]]
  RouteAttributes Fetch(const mapmatch::MatchedRoute& route) const;

  /// Junctions passed through by an edge-step sequence (interior
  /// vertices between consecutive steps that are true junctions).
  [[nodiscard]]
  int CountJunctionsPassed(const std::vector<roadnet::PathStep>& steps) const;

 private:
  const roadnet::RoadNetwork* network_;
  AttributeFetcherOptions options_;
  // Traffic light positions, extracted once in feature order: Fetch
  // scans lights against every route, and walking the full feature
  // table per route wastes most of the scan on crossings and stops that
  // are counted from edge attachment instead.
  std::vector<geo::EnPoint> lights_;
};

}  // namespace mapattr
}  // namespace taxitrace

#endif  // TAXITRACE_MAPATTR_ATTRIBUTE_FETCHER_H_
