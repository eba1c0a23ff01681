// Map preparation (Section IV-A): reconstruct the road-network graph from
// raw traffic elements so every edge is a single chain of elements between
// two junctions.
//
// Endpoints where at least three traffic elements meet are junctions;
// endpoints shared by exactly two elements are intermediate points whose
// elements are merged; endpoints touched by one element are terminal
// (dead-end) vertices. The result is the junction-pair table of Table 1
// and the final graph.

#ifndef TAXITRACE_ROADNET_MAP_PREPARATION_H_
#define TAXITRACE_ROADNET_MAP_PREPARATION_H_

#include <vector>

#include "taxitrace/common/result.h"
#include "taxitrace/roadnet/road_network.h"

namespace taxitrace {
namespace roadnet {

/// A feature to place on the prepared map.
struct FeatureSpec {
  FeatureType type;
  geo::EnPoint position;
};

/// Options controlling graph reconstruction.
struct MapPreparationOptions {
  /// Endpoints closer than this snap together, metres.
  double endpoint_snap_m = 0.05;
  /// Maximum feature-to-edge attachment distance, metres.
  double feature_attach_radius_m = 40.0;
};

/// Largest coordinate magnitude, metres, that map preparation accepts.
/// The local frame is a tangent plane about the map's origin, so a
/// city map lies within a few kilometres of 0, and 1e7 m (a quarter of
/// the Earth's circumference) is far past any real input. The bound
/// keeps every int32 cell cast of a map position in range for cells of
/// 1 m or more, since 1e7 < 2^31: the analysis grid (analysis::Grid)
/// uses 200 m cells and the spatial index 20 m.
inline constexpr double kMaxMapCoordinateM = 1e7;

/// One row of the junction-pair table (Table 1).
struct JunctionPairRow {
  geo::LatLon junction1;                 ///< Edge start in EPSG:4326.
  std::vector<ElementId> element_ids;    ///< Contributing elements.
  geo::LatLon junction2;                 ///< Edge end in EPSG:4326.
};

/// Classification of a traffic-element endpoint by incidence degree.
enum class EndpointType : unsigned char {
  kTerminal,      ///< One element touches (dead end).
  kIntermediate,  ///< Exactly two elements touch: merge through it.
  kJunction,      ///< Three or more elements touch.
};

/// Statistics reported by the preparation step.
struct MapPreparationStats {
  int num_elements = 0;
  int num_junctions = 0;
  int num_terminals = 0;
  int num_intermediate_points = 0;
  int num_edges = 0;
  int num_multi_element_edges = 0;  ///< Edges merged from >= 2 elements.
  int num_direction_conflicts = 0;  ///< One-way chains with mixed signs.
};

/// Builds the road-network graph from traffic elements and attaches the
/// given features. Fails with InvalidArgument on empty input, elements
/// with degenerate geometry, duplicate element ids, a speed limit that
/// is not finite and positive, or an element or feature coordinate that
/// is not finite or exceeds kMaxMapCoordinateM in magnitude.
Result<RoadNetwork> PrepareRoadNetwork(
    const std::vector<TrafficElement>& elements,
    const std::vector<FeatureSpec>& features, const geo::LatLon& origin,
    const MapPreparationOptions& options = {},
    MapPreparationStats* stats = nullptr);

/// Renders the junction-pair table (Table 1) for a prepared network.
std::vector<JunctionPairRow> JunctionPairTable(const RoadNetwork& network);

}  // namespace roadnet
}  // namespace taxitrace

#endif  // TAXITRACE_ROADNET_MAP_PREPARATION_H_
