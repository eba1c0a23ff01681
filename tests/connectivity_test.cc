#include <gtest/gtest.h>

#include "taxitrace/roadnet/connectivity.h"
#include "taxitrace/roadnet/map_preparation.h"
#include "taxitrace/synth/city_map_generator.h"

namespace taxitrace {
namespace {

using geo::EnPoint;

roadnet::TrafficElement Element(roadnet::ElementId id,
                                std::vector<EnPoint> pts,
                                roadnet::TravelDirection dir =
                                    roadnet::TravelDirection::kBoth) {
  roadnet::TrafficElement el;
  el.id = id;
  el.geometry = geo::Polyline(std::move(pts));
  el.direction = dir;
  return el;
}

TEST(ConnectivityTest, SingleComponentPlus) {
  const std::vector<roadnet::TrafficElement> elements = {
      Element(1, {{0, 0}, {100, 0}}),
      Element(2, {{0, 0}, {-100, 0}}),
      Element(3, {{0, 0}, {0, 100}}),
  };
  const roadnet::RoadNetwork net =
      roadnet::PrepareRoadNetwork(elements, {}, geo::LatLon{65, 25})
          .value();
  const roadnet::ConnectivityReport report =
      roadnet::AnalyzeConnectivity(net);
  EXPECT_EQ(report.weak_components, 1);
  EXPECT_EQ(report.largest_scc_size, report.num_vertices);
  EXPECT_DOUBLE_EQ(report.scc_coverage, 1.0);
}

TEST(ConnectivityTest, TwoIslands) {
  const std::vector<roadnet::TrafficElement> elements = {
      Element(1, {{0, 0}, {100, 0}}),
      Element(2, {{5000, 0}, {5100, 0}}),
  };
  const roadnet::RoadNetwork net =
      roadnet::PrepareRoadNetwork(elements, {}, geo::LatLon{65, 25})
          .value();
  EXPECT_EQ(roadnet::CountWeakComponents(net), 2);
  EXPECT_LT(roadnet::AnalyzeConnectivity(net).scc_coverage, 1.0);
}

TEST(ConnectivityTest, OneWayDeadEndLeavesScc) {
  // A one-way spur: you can drive in but never out, so its far end is
  // not in the SCC while the loop is.
  const std::vector<roadnet::TrafficElement> elements = {
      Element(1, {{0, 0}, {100, 0}}),
      Element(2, {{100, 0}, {100, 100}}),
      Element(3, {{100, 100}, {0, 100}}),
      Element(4, {{0, 100}, {0, 0}}),
      Element(5, {{0, 0}, {-100, 0}}, roadnet::TravelDirection::kForward),
      Element(6, {{100, 0}, {200, 0}}),  // keeps (100,0) a junction
  };
  const roadnet::RoadNetwork net =
      roadnet::PrepareRoadNetwork(elements, {}, geo::LatLon{65, 25})
          .value();
  const std::vector<roadnet::VertexId> scc =
      roadnet::LargestStronglyConnectedComponent(net);
  // The spur terminal (-100, 0) is reachable but cannot return.
  bool spur_in_scc = false;
  for (roadnet::VertexId v : scc) {
    if (geo::Distance(net.vertex(v).position, EnPoint{-100, 0}) < 1.0) {
      spur_in_scc = true;
    }
  }
  EXPECT_FALSE(spur_in_scc);
  // Graph vertices: the two loop junctions ((0,0), (100,0) — the other
  // corners merge through), the two-way stub terminal (200,0) and the
  // spur terminal. All but the spur terminal are mutually reachable.
  EXPECT_EQ(scc.size(), 3u);
}

TEST(ConnectivityTest, GeneratedCityIsDrivable) {
  const roadnet::ConnectivityReport report =
      roadnet::AnalyzeConnectivity(
          synth::GenerateCityMap().value().network);
  EXPECT_EQ(report.weak_components, 1);
  // One-way pairs must not strand a significant part of the city.
  EXPECT_GT(report.scc_coverage, 0.95);
}

}  // namespace
}  // namespace taxitrace
