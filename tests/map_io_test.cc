#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "taxitrace/roadnet/map_io.h"
#include "taxitrace/synth/city_map_generator.h"

namespace taxitrace {
namespace roadnet {
namespace {

TrafficElement Sample(ElementId id) {
  TrafficElement el;
  el.id = id;
  el.geometry = geo::Polyline({{0, 0}, {55.5, -12.25}, {100, 3}});
  el.functional_class = FunctionalClass::kConnectingRoad;
  el.speed_limit_kmh = 50.0;
  el.direction = TravelDirection::kBackward;
  el.road_name = "street, with comma";
  return el;
}

// Loads the given element and feature rows (after their CSV headers)
// and prepares the map, as the CLI does with map files.
Status PrepareFromCsv(const std::string& element_rows,
                      const std::string& feature_rows) {
  TAXITRACE_ASSIGN_OR_RETURN(
      const std::vector<TrafficElement> elements,
      ElementsFromCsv(
          "id,name,functional_class,speed_limit_kmh,direction,geometry\n" +
          element_rows));
  TAXITRACE_ASSIGN_OR_RETURN(const std::vector<FeatureSpec> features,
                             FeaturesFromCsv("type,x,y\n" + feature_rows));
  return PrepareRoadNetwork(elements, features, geo::LatLon{65.0, 25.4})
      .status();
}

// Expects InvalidArgument whose message names `what`.
void ExpectRejected(const Status& status, const std::string& what) {
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_NE(status.ToString().find(what), std::string::npos)
      << status.ToString();
}

constexpr char kGoodElement[] = "1,a,2,50,both,0:0|100:0\n";

TEST(MapIoTest, ElementsCsvRoundTrip) {
  const std::vector<TrafficElement> elements = {Sample(121499),
                                                Sample(138854)};
  const auto parsed = ElementsFromCsv(ElementsToCsv(elements)).value();
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].id, 121499);
  EXPECT_EQ(parsed[0].road_name, "street, with comma");
  EXPECT_EQ(parsed[0].direction, TravelDirection::kBackward);
  EXPECT_EQ(parsed[0].functional_class, FunctionalClass::kConnectingRoad);
  EXPECT_DOUBLE_EQ(parsed[0].speed_limit_kmh, 50.0);
  ASSERT_EQ(parsed[0].geometry.size(), 3u);
  EXPECT_NEAR(parsed[0].geometry.points()[1].x, 55.5, 1e-3);
  EXPECT_NEAR(parsed[0].geometry.points()[1].y, -12.25, 1e-3);
}

TEST(MapIoTest, FeaturesCsvRoundTrip) {
  const std::vector<FeatureSpec> features = {
      {FeatureType::kTrafficLight, geo::EnPoint{1.5, -2.5}},
      {FeatureType::kPedestrianCrossing, geo::EnPoint{100, 200}},
      {FeatureType::kBusStop, geo::EnPoint{-3, 4}},
  };
  const auto parsed = FeaturesFromCsv(FeaturesToCsv(features)).value();
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[0].type, FeatureType::kTrafficLight);
  EXPECT_NEAR(parsed[1].position.x, 100.0, 1e-3);
  EXPECT_EQ(parsed[2].type, FeatureType::kBusStop);
}

TEST(MapIoTest, RejectsCorruptInputs) {
  EXPECT_FALSE(ElementsFromCsv("").ok());
  EXPECT_FALSE(ElementsFromCsv("id,name\n1,x\n").ok());
  EXPECT_FALSE(
      ElementsFromCsv(
          "id,name,functional_class,speed_limit_kmh,direction,geometry\n"
          "1,x,9,50,both,0:0|1:1\n")
          .ok());  // bad class
  EXPECT_FALSE(
      ElementsFromCsv(
          "id,name,functional_class,speed_limit_kmh,direction,geometry\n"
          "1,x,2,50,sideways,0:0|1:1\n")
          .ok());  // bad direction
  EXPECT_FALSE(
      ElementsFromCsv(
          "id,name,functional_class,speed_limit_kmh,direction,geometry\n"
          "1,x,2,50,both,0:0|broken\n")
          .ok());  // bad geometry
  EXPECT_FALSE(FeaturesFromCsv("type,x\nbus_stop,1\n").ok());
  EXPECT_FALSE(FeaturesFromCsv("type,x,y\nufo,1,2\n").ok());
}

TEST(MapIoTest, NanSpeedLimitIsRejected) {
  ExpectRejected(PrepareFromCsv(std::string(kGoodElement) +
                                    "2,b,2,nan,both,100:0|200:0\n",
                                ""),
                 "element 2");
}

TEST(MapIoTest, NegativeSpeedLimitIsRejectedByElementId) {
  ExpectRejected(PrepareFromCsv(std::string(kGoodElement) +
                                    "7,b,2,-30,both,100:0|200:0\n",
                                ""),
                 "element 7");
}

TEST(MapIoTest, InfiniteElementCoordinateIsRejected) {
  ExpectRejected(
      PrepareFromCsv(std::string(kGoodElement) + "2,b,2,50,both,100:0|inf:0\n",
                     ""),
      "element 2");
}

TEST(MapIoTest, NanFeaturePositionIsRejected) {
  ExpectRejected(PrepareFromCsv(kGoodElement,
                                "bus_stop,10,0\ntraffic_light,nan,0\n"),
                 "feature 1");
}

TEST(MapIoTest, HugeFeaturePositionIsRejected) {
  ExpectRejected(PrepareFromCsv(kGoodElement, "bus_stop,1e300,0\n"),
                 "feature 0");
}

TEST(MapIoTest, GeneratedCityRoundTripsThroughFiles) {
  const synth::CityMap map = synth::GenerateCityMap().value();
  const std::string elements_path =
      testing::TempDir() + "/elements.csv";
  const std::string features_path =
      testing::TempDir() + "/features.csv";
  ASSERT_TRUE(
      WriteElementsFile(elements_path, map.source_elements).ok());
  ASSERT_TRUE(
      WriteFeaturesFile(features_path, map.source_features).ok());

  const auto elements = ReadElementsFile(elements_path).value();
  const auto features = ReadFeaturesFile(features_path).value();
  ASSERT_EQ(elements.size(), map.source_elements.size());
  ASSERT_EQ(features.size(), map.source_features.size());

  // Preparing the reloaded map reproduces the same graph shape.
  MapPreparationStats stats;
  const RoadNetwork reloaded =
      PrepareRoadNetwork(elements, features, map.network.origin(), {},
                         &stats)
          .value();
  EXPECT_EQ(reloaded.num_edges(), map.network.num_edges());
  EXPECT_EQ(reloaded.num_vertices(), map.network.num_vertices());
  EXPECT_EQ(reloaded.features().size(), map.network.features().size());
  // Ids are dense insertion indices, and the reloaded graph is numbered
  // like the generated one: the golden digest and the id-seeded RNG
  // streams rely on both.
  size_t next_vertex = 0;
  reloaded.ForEachVertex([&](const Vertex& v) {
    ASSERT_EQ(v.id, static_cast<VertexId>(next_vertex++));
    EXPECT_NEAR(geo::Distance(v.position, map.network.vertex(v.id).position),
                0.0, 1e-3);
  });
  size_t next_edge = 0;
  reloaded.ForEachEdge([&](const Edge& e) {
    ASSERT_EQ(e.id, static_cast<EdgeId>(next_edge++));
    EXPECT_EQ(e.element_ids, map.network.edge(e.id).element_ids);
  });
  std::remove(elements_path.c_str());
  std::remove(features_path.c_str());
}

TEST(MapIoTest, NetworkGeoJsonShape) {
  const synth::CityMap map = synth::GenerateCityMap().value();
  const std::string json = NetworkToGeoJson(map.network);
  EXPECT_NE(json.find("\"FeatureCollection\""), std::string::npos);
  EXPECT_NE(json.find("\"LineString\""), std::string::npos);
  EXPECT_NE(json.find("\"traffic_light\""), std::string::npos);
  EXPECT_NE(json.find("\"elements\":["), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

}  // namespace
}  // namespace roadnet
}  // namespace taxitrace
