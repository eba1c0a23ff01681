// Traffic elements: the smallest units of road centre-line geometry, as in
// the Digiroad database of the Finnish road and street network. Each
// element has a unique identifier, geometry digitised in a specific
// direction, and characteristic attributes (functional class, speed limit,
// allowed travel direction).

#ifndef TAXITRACE_ROADNET_TRAFFIC_ELEMENT_H_
#define TAXITRACE_ROADNET_TRAFFIC_ELEMENT_H_

#include <cstdint>
#include <string>

#include "taxitrace/geo/polyline.h"

namespace taxitrace {
namespace roadnet {

/// Identifier of a traffic element within a map.
using ElementId = int64_t;

/// Allowed travel direction relative to the digitisation direction of the
/// geometry (front() -> back()).
enum class TravelDirection : unsigned char {
  kBoth,      ///< Two-way traffic.
  kForward,   ///< One-way along the digitisation direction.
  kBackward,  ///< One-way against the digitisation direction.
};

/// Digiroad-style functional road classes; smaller is more significant.
enum class FunctionalClass : unsigned char {
  kRegionalRoad = 1,   ///< Main regional roads / arterials.
  kConnectingRoad = 2, ///< Connecting streets.
  kLocalStreet = 3,    ///< Local streets.
  kAccessRoad = 4,     ///< Access / service roads, dead ends.
};

/// One traffic element of the digital map.
struct TrafficElement {
  ElementId id = 0;
  geo::Polyline geometry;  ///< Centre line in digitisation order.
  FunctionalClass functional_class = FunctionalClass::kLocalStreet;
  double speed_limit_kmh = 40.0;
  TravelDirection direction = TravelDirection::kBoth;
  std::string road_name;
};

/// Stable name for a travel direction ("both"/"forward"/"backward").
std::string_view TravelDirectionName(TravelDirection d);

/// Flips a direction constraint when geometry is reversed.
TravelDirection ReverseDirection(TravelDirection d);

}  // namespace roadnet
}  // namespace taxitrace

#endif  // TAXITRACE_ROADNET_TRAFFIC_ELEMENT_H_
