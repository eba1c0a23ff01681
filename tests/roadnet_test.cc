#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "taxitrace/common/executor.h"
#include "taxitrace/common/random.h"
#include "taxitrace/common/status.h"
#include "taxitrace/roadnet/map_preparation.h"
#include "taxitrace/roadnet/road_network.h"
#include "taxitrace/roadnet/router.h"
#include "taxitrace/roadnet/spatial_index.h"
#include "taxitrace/synth/city_map_generator.h"

namespace taxitrace {
namespace roadnet {
namespace {

using geo::EnPoint;

const geo::LatLon kOrigin{65.0121, 25.4682};

TrafficElement MakeElement(ElementId id, std::vector<EnPoint> pts,
                           TravelDirection dir = TravelDirection::kBoth,
                           double limit = 40.0) {
  TrafficElement el;
  el.id = id;
  el.geometry = geo::Polyline(std::move(pts));
  el.direction = dir;
  el.speed_limit_kmh = limit;
  return el;
}

// A plus-shaped network: four arms meeting at the origin.
std::vector<TrafficElement> PlusElements() {
  return {
      MakeElement(1, {{0, 0}, {100, 0}}),
      MakeElement(2, {{0, 0}, {-100, 0}}),
      MakeElement(3, {{0, 0}, {0, 100}}),
      MakeElement(4, {{0, 0}, {0, -100}}),
  };
}

TEST(TravelDirectionTest, ReverseDirection) {
  EXPECT_EQ(ReverseDirection(TravelDirection::kForward),
            TravelDirection::kBackward);
  EXPECT_EQ(ReverseDirection(TravelDirection::kBackward),
            TravelDirection::kForward);
  EXPECT_EQ(ReverseDirection(TravelDirection::kBoth),
            TravelDirection::kBoth);
}

TEST(TravelDirectionTest, Names) {
  EXPECT_EQ(TravelDirectionName(TravelDirection::kBoth), "both");
  EXPECT_EQ(TravelDirectionName(TravelDirection::kForward), "forward");
  EXPECT_EQ(FeatureTypeName(FeatureType::kBusStop), "bus_stop");
}

// --- Map preparation ----------------------------------------------------------

TEST(MapPreparationTest, PlusMakesOneJunctionFourEdges) {
  MapPreparationStats stats;
  const RoadNetwork net =
      PrepareRoadNetwork(PlusElements(), {}, kOrigin, {}, &stats).value();
  EXPECT_EQ(stats.num_junctions, 1);
  EXPECT_EQ(stats.num_terminals, 4);
  EXPECT_EQ(stats.num_edges, 4);
  EXPECT_EQ(net.num_vertices(), 5u);
  EXPECT_EQ(net.num_edges(), 4u);
  int junctions = 0;
  net.ForEachVertex(
      [&](const Vertex& v) { junctions += v.is_junction ? 1 : 0; });
  EXPECT_EQ(junctions, 1);
}

TEST(MapPreparationTest, ChainOfElementsMergesIntoOneEdge) {
  // Three collinear elements between two junction-free terminals.
  const std::vector<TrafficElement> elements = {
      MakeElement(10, {{0, 0}, {50, 0}}),
      MakeElement(11, {{50, 0}, {100, 0}}),
      MakeElement(12, {{100, 0}, {150, 0}}),
  };
  MapPreparationStats stats;
  const RoadNetwork net =
      PrepareRoadNetwork(elements, {}, kOrigin, {}, &stats).value();
  EXPECT_EQ(stats.num_intermediate_points, 2);
  ASSERT_EQ(net.num_edges(), 1u);
  const Edge& e = net.edge(0);
  EXPECT_EQ(e.element_ids.size(), 3u);
  EXPECT_NEAR(e.length_m, 150.0, 1e-6);
  // Element ids appear in chain order (either direction).
  const bool fwd = e.element_ids == std::vector<ElementId>({10, 11, 12});
  const bool bwd = e.element_ids == std::vector<ElementId>({12, 11, 10});
  EXPECT_TRUE(fwd || bwd);
}

TEST(MapPreparationTest, ReversedDigitisationStillMerges) {
  // Middle element digitised against the chain.
  const std::vector<TrafficElement> elements = {
      MakeElement(10, {{0, 0}, {50, 0}}),
      MakeElement(11, {{100, 0}, {50, 0}}),  // reversed
      MakeElement(12, {{100, 0}, {150, 0}}),
  };
  const RoadNetwork net =
      PrepareRoadNetwork(elements, {}, kOrigin).value();
  ASSERT_EQ(net.num_edges(), 1u);
  EXPECT_NEAR(net.edge(0).length_m, 150.0, 1e-6);
}

TEST(MapPreparationTest, OneWayChainOrientation) {
  // Two one-way elements; the second is digitised backwards, so its
  // constraint must be flipped when merged.
  const std::vector<TrafficElement> elements = {
      MakeElement(1, {{0, 0}, {50, 0}}, TravelDirection::kForward),
      MakeElement(2, {{100, 0}, {50, 0}}, TravelDirection::kBackward),
  };
  const RoadNetwork net =
      PrepareRoadNetwork(elements, {}, kOrigin).value();
  ASSERT_EQ(net.num_edges(), 1u);
  const Edge& e = net.edge(0);
  // The merged edge is one-way from the (0,0) end to the (100,0) end.
  EXPECT_NE(e.direction, TravelDirection::kBoth);
  const EnPoint start = net.vertex(e.from).position;
  if (e.direction == TravelDirection::kForward) {
    EXPECT_NEAR(start.x, 0.0, 1.0);
  } else {
    EXPECT_NEAR(start.x, 100.0, 1.0);
  }
}

TEST(MapPreparationTest, ConflictingOneWaysFallBackToTwoWay) {
  const std::vector<TrafficElement> elements = {
      MakeElement(1, {{0, 0}, {50, 0}}, TravelDirection::kForward),
      MakeElement(2, {{50, 0}, {100, 0}}, TravelDirection::kBackward),
  };
  MapPreparationStats stats;
  const RoadNetwork net =
      PrepareRoadNetwork(elements, {}, kOrigin, {}, &stats).value();
  EXPECT_EQ(stats.num_direction_conflicts, 1);
  EXPECT_EQ(net.edge(0).direction, TravelDirection::kBoth);
}

TEST(MapPreparationTest, MergedEdgeTakesMinSpeedLimit) {
  const std::vector<TrafficElement> elements = {
      MakeElement(1, {{0, 0}, {50, 0}}, TravelDirection::kBoth, 60.0),
      MakeElement(2, {{50, 0}, {100, 0}}, TravelDirection::kBoth, 40.0),
  };
  const RoadNetwork net =
      PrepareRoadNetwork(elements, {}, kOrigin).value();
  EXPECT_DOUBLE_EQ(net.edge(0).speed_limit_kmh, 40.0);
}

TEST(MapPreparationTest, PureCycleIsHandled) {
  // A triangle of elements with no junction (all endpoints degree 2).
  const std::vector<TrafficElement> elements = {
      MakeElement(1, {{0, 0}, {100, 0}}),
      MakeElement(2, {{100, 0}, {50, 80}}),
      MakeElement(3, {{50, 80}, {0, 0}}),
  };
  const RoadNetwork net =
      PrepareRoadNetwork(elements, {}, kOrigin).value();
  EXPECT_GE(net.num_edges(), 1u);
  double total = 0.0;
  net.ForEachEdge([&](const Edge& e) { total += e.length_m; });
  EXPECT_NEAR(total, 100.0 + 2 * std::hypot(50.0, 80.0), 1e-6);
  EXPECT_TRUE(net.Validate().ok());
}

TEST(MapPreparationTest, RejectsEmptyInput) {
  EXPECT_TRUE(PrepareRoadNetwork({}, {}, kOrigin)
                  .status()
                  .IsInvalidArgument());
}

TEST(MapPreparationTest, RejectsDuplicateIds) {
  const std::vector<TrafficElement> elements = {
      MakeElement(1, {{0, 0}, {10, 0}}),
      MakeElement(1, {{10, 0}, {20, 0}}),
  };
  EXPECT_TRUE(PrepareRoadNetwork(elements, {}, kOrigin)
                  .status()
                  .IsInvalidArgument());
}

TEST(MapPreparationTest, RejectsDegenerateGeometry) {
  std::vector<TrafficElement> elements = {MakeElement(1, {{0, 0}})};
  EXPECT_FALSE(PrepareRoadNetwork(elements, {}, kOrigin).ok());
  elements = {MakeElement(2, {{0, 0}, {0, 0}})};
  EXPECT_FALSE(PrepareRoadNetwork(elements, {}, kOrigin).ok());
}

TEST(MapPreparationTest, FeatureAttachesToNearestEdge) {
  const std::vector<FeatureSpec> features = {
      {FeatureType::kBusStop, EnPoint{50, 5}},     // near arm 1
      {FeatureType::kTrafficLight, EnPoint{500, 500}},  // out of reach
  };
  const RoadNetwork net =
      PrepareRoadNetwork(PlusElements(), features, kOrigin).value();
  EXPECT_EQ(net.features().size(), 2u);
  int attached = 0;
  net.ForEachEdge([&](const Edge& e) {
    attached += static_cast<int>(e.feature_ids.size());
  });
  EXPECT_EQ(attached, 1);  // the far light attaches nowhere
  EXPECT_EQ(net.CountFeatures(FeatureType::kBusStop), 1);
  EXPECT_EQ(net.CountFeatures(FeatureType::kTrafficLight), 1);
}

TEST(MapPreparationTest, JunctionPairTableMatchesEdges) {
  const RoadNetwork net =
      PrepareRoadNetwork(PlusElements(), {}, kOrigin).value();
  const std::vector<JunctionPairRow> rows = JunctionPairTable(net);
  ASSERT_EQ(rows.size(), net.num_edges());
  for (size_t i = 0; i < rows.size(); ++i) {
    const Edge& e = net.edge(static_cast<EdgeId>(i));
    EXPECT_EQ(rows[i].element_ids, e.element_ids);
    const EnPoint j1 = net.projection().Forward(rows[i].junction1);
    EXPECT_NEAR(geo::Distance(j1, net.vertex(e.from).position), 0.0,
                0.5);
  }
}

// --- RoadNetwork accessors -----------------------------------------------------

TEST(RoadNetworkTest, OppositeAndTraverse) {
  const std::vector<TrafficElement> elements = {
      MakeElement(1, {{0, 0}, {100, 0}}, TravelDirection::kForward),
  };
  const RoadNetwork net =
      PrepareRoadNetwork(elements, {}, kOrigin).value();
  const Edge& e = net.edge(0);
  EXPECT_EQ(net.Opposite(e.id, e.from), e.to);
  EXPECT_EQ(net.Opposite(e.id, e.to), e.from);
  EXPECT_NE(net.CanTraverse(e.id, true), net.CanTraverse(e.id, false));
}

TEST(RoadNetworkTest, PointAt) {
  const RoadNetwork net =
      PrepareRoadNetwork({MakeElement(1, {{0, 0}, {100, 0}})}, {}, kOrigin)
          .value();
  const Edge& e = net.edge(0);
  const EnPoint from_pos = net.vertex(e.from).position;
  const EnPoint mid = net.PointAt(EdgePosition{e.id, 50.0});
  EXPECT_NEAR(geo::Distance(from_pos, mid), 50.0, 1e-6);
}

TEST(RoadNetworkTest, IncidentEdges) {
  const RoadNetwork net =
      PrepareRoadNetwork(PlusElements(), {}, kOrigin).value();
  net.ForEachVertex([&](const Vertex& v) {
    const size_t expected = v.is_junction ? 4u : 1u;
    EXPECT_EQ(net.IncidentEdges(v.id).size(), expected);
  });
}

// --- Spatial index ---------------------------------------------------------------

class SpatialIndexTest : public testing::Test {
 protected:
  SpatialIndexTest()
      : net_(PrepareRoadNetwork(PlusElements(), {}, kOrigin).value()),
        index_(&net_) {}
  RoadNetwork net_;
  SpatialIndex index_;
};

TEST_F(SpatialIndexTest, NearbyFindsEdgesWithinRadius) {
  const std::vector<EdgeCandidate> found =
      index_.Nearby(EnPoint{50, 5}, 10.0);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_NEAR(found[0].projection.distance, 5.0, 1e-9);
}

TEST_F(SpatialIndexTest, NearbyAtJunctionSeesAllArms) {
  const std::vector<EdgeCandidate> found =
      index_.Nearby(EnPoint{2, 2}, 10.0);
  EXPECT_EQ(found.size(), 4u);
  // Sorted by ascending distance.
  for (size_t i = 1; i < found.size(); ++i) {
    EXPECT_LE(found[i - 1].projection.distance,
              found[i].projection.distance);
  }
}

TEST_F(SpatialIndexTest, NearbyEmptyWhenFar) {
  EXPECT_TRUE(index_.Nearby(EnPoint{500, 500}, 30.0).empty());
}

TEST_F(SpatialIndexTest, NearestExpandsSearch) {
  const auto hit = index_.Nearest(EnPoint{300, 40}, 500.0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_NEAR(hit->projection.distance,
              geo::Distance(EnPoint{300, 40}, EnPoint{100, 0}), 1e-6);
}

TEST_F(SpatialIndexTest, NearestRespectsCap) {
  EXPECT_FALSE(index_.Nearest(EnPoint{5000, 5000}, 100.0).has_value());
}

TEST_F(SpatialIndexTest, CountsProbeWork) {
  (void)index_.Nearby(EnPoint{2, 2}, 10.0);
  (void)index_.Nearby(EnPoint{500, 500}, 30.0);
  const SpatialIndexStats stats = index_.stats();
  EXPECT_EQ(stats.queries, 2);
  EXPECT_GT(stats.cells_probed, 0);
  EXPECT_GE(stats.candidates, 4);  // the four arms at the junction
  EXPECT_EQ(stats.hits, 4);        // the far query returned nothing
  EXPECT_EQ(stats.empty_geometry_edges, 0);
}

// Regression: the index build walked geometry segments (i, i+1), so an
// edge whose polyline had fewer than two points was never inserted into
// any cell and could not be found by Nearby/Nearest at all. A
// single-point geometry is now indexed at its lone point; an empty
// geometry has no location to index and is dropped with a counted
// reason instead of silently.
TEST(SpatialIndexDegenerateTest, SinglePointGeometryIsFindable) {
  RoadNetwork net(kOrigin);
  const VertexId a = net.AddVertex({0, 0}, false);
  const VertexId b = net.AddVertex({200, 0}, false);
  Edge normal;
  normal.from = a;
  normal.to = b;
  normal.geometry = geo::Polyline({{0, 0}, {200, 0}});
  net.AddEdge(std::move(normal));

  const VertexId c = net.AddVertex({500, 500}, false);
  Edge lone;
  lone.from = c;
  lone.to = c;
  lone.geometry = geo::Polyline({{500, 500}});
  const EdgeId lone_id = net.AddEdge(std::move(lone));

  const SpatialIndex index(&net);
  const std::vector<EdgeCandidate> found =
      index.Nearby(EnPoint{497, 496}, 10.0);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].edge, lone_id);
  EXPECT_NEAR(found[0].projection.distance, 5.0, 1e-9);
  EXPECT_EQ(index.stats().empty_geometry_edges, 0);

  const auto nearest = index.Nearest(EnPoint{520, 500}, 100.0);
  ASSERT_TRUE(nearest.has_value());
  EXPECT_EQ(nearest->edge, lone_id);
}

TEST(SpatialIndexDegenerateTest, EmptyGeometryIsDroppedWithReason) {
  RoadNetwork net(kOrigin);
  const VertexId a = net.AddVertex({0, 0}, false);
  const VertexId b = net.AddVertex({100, 0}, false);
  Edge normal;
  normal.from = a;
  normal.to = b;
  normal.geometry = geo::Polyline({{0, 0}, {100, 0}});
  const EdgeId normal_id = net.AddEdge(std::move(normal));
  Edge hollow;
  hollow.from = a;
  hollow.to = b;
  hollow.geometry = geo::Polyline();
  net.AddEdge(std::move(hollow));

  const SpatialIndex index(&net);
  EXPECT_EQ(index.stats().empty_geometry_edges, 1);
  // The well-formed edge is unaffected.
  const std::vector<EdgeCandidate> found =
      index.Nearby(EnPoint{50, 2}, 10.0);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].edge, normal_id);
}

// Points and radii the index cannot search have no cell coordinate:
// casting their floor into an int32 cell would be undefined behaviour
// (caught by the UBSan build), so they must find nothing instead.
TEST_F(SpatialIndexTest, OffLatticeQueriesFindNothing) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<EnPoint> points = {
      {nan, 0},   {0, nan},    {nan, nan},  {inf, 0},      {-inf, 0},
      {0, inf},   {0, -inf},   {1e12, 0},   {0, -1e12},    {1e300, 1e300},
      {-3e11, 2}, {2, 1e200}};
  for (const EnPoint& p : points) {
    EXPECT_TRUE(index_.Nearby(p, 50.0).empty()) << p.x << "," << p.y;
    EXPECT_FALSE(index_.Nearest(p, 500.0).has_value()) << p.x << "," << p.y;
  }
  for (const double radius : {nan, inf, 1e12}) {
    EXPECT_TRUE(index_.Nearby(EnPoint{2, 2}, radius).empty()) << radius;
  }
  EXPECT_FALSE(index_.Nearest(EnPoint{2, 2}, nan).has_value());
  // The index still answers ordinary queries afterwards.
  EXPECT_EQ(index_.Nearby(EnPoint{2, 2}, 10.0).size(), 4u);
  EXPECT_EQ(index_.stats().hits, 4);
}

TEST(SpatialIndexDegenerateTest, OffLatticeGeometryIsDroppedWithReason) {
  RoadNetwork net(kOrigin);
  const VertexId a = net.AddVertex({0, 0}, false);
  const VertexId b = net.AddVertex({100, 0}, false);
  Edge normal;
  normal.from = a;
  normal.to = b;
  normal.geometry = geo::Polyline({{0, 0}, {100, 0}});
  const EdgeId normal_id = net.AddEdge(std::move(normal));
  for (const EnPoint& far :
       {EnPoint{std::numeric_limits<double>::quiet_NaN(), 0},
        EnPoint{std::numeric_limits<double>::infinity(), 0},
        EnPoint{0, -1e15}}) {
    Edge bad;
    bad.from = a;
    bad.to = b;
    bad.geometry = geo::Polyline({{0, 0}, far});
    net.AddEdge(std::move(bad));
  }

  const SpatialIndex index(&net);
  EXPECT_EQ(index.stats().empty_geometry_edges, 3);
  const std::vector<EdgeCandidate> found =
      index.Nearby(EnPoint{50, 2}, 10.0);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].edge, normal_id);
}

// --- Spatial index vs brute force -------------------------------------------------

// The definition Nearby() implements: project onto every edge, keep the
// projections within the radius, order by (distance, edge id).
std::vector<EdgeCandidate> BruteForceNearby(const RoadNetwork& net,
                                            const EnPoint& p,
                                            double radius_m) {
  std::vector<EdgeCandidate> out;
  net.ForEachEdge([&](const Edge& e) {
    if (e.geometry.points().empty()) return;
    const geo::PolylineProjection proj = e.geometry.Project(p);
    if (proj.distance <= radius_m) out.push_back(EdgeCandidate{e.id, proj});
  });
  std::sort(out.begin(), out.end(),
            [](const EdgeCandidate& a, const EdgeCandidate& b) {
              if (a.projection.distance != b.projection.distance) {
                return a.projection.distance < b.projection.distance;
              }
              return a.edge < b.edge;
            });
  return out;
}

// Compares Nearby() with the brute force over random points around the
// map, points exactly on 50 m cell lines, on cell corners and on every
// 20th cell line, and edge start points, at radii in [0, 200] m. The
// index's `hits` counter must equal the brute-force total.
void ExpectNearbyMatchesBruteForce(const RoadNetwork& net, uint64_t seed) {
  const SpatialIndex index(&net);
  const geo::Bbox box = net.Bounds();
  constexpr double kCell = 50.0;
  constexpr double kMargin = 300.0;
  constexpr double kLine = 20 * kCell;
  const auto snap = [](double v, double step) {
    return std::round(v / step) * step;
  };
  Rng rng(seed);
  const auto radius = [&](int i) {
    if (i % 50 == 0) return 0.0;
    if (i % 50 == 1) return 200.0;
    return rng.Uniform(0.0, 200.0);
  };
  std::vector<std::pair<EnPoint, double>> queries;
  for (int i = 0; i < 1200; ++i) {
    EnPoint p{rng.Uniform(box.min_x - kMargin, box.max_x + kMargin),
              rng.Uniform(box.min_y - kMargin, box.max_y + kMargin)};
    if (i % 4 == 1) p.x = snap(p.x, kCell);                 // on a cell line
    if (i % 4 == 2) p = {snap(p.x, kCell), snap(p.y, kCell)};  // cell corner
    if (i % 4 == 3) p = {snap(p.x, kLine), snap(p.y, kCell)};  // 20th line
    queries.emplace_back(p, radius(i));
  }
  // Edge start points: distance exactly 0, found even at radius 0.
  int edge_count = 0;
  net.ForEachEdge([&](const Edge& e) {
    if (edge_count++ % 7 != 0 || e.geometry.points().empty()) return;
    queries.emplace_back(e.geometry.points().front(), radius(edge_count));
  });

  int64_t expected_hits = 0;
  for (const auto& [p, r] : queries) {
    const std::vector<EdgeCandidate> want = BruteForceNearby(net, p, r);
    const std::vector<EdgeCandidate> got = index.Nearby(p, r);
    expected_hits += static_cast<int64_t>(want.size());
    ASSERT_EQ(got.size(), want.size())
        << "at (" << p.x << ", " << p.y << ") r=" << r;
    for (size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(got[k].edge, want[k].edge);
      EXPECT_EQ(got[k].projection.point.x, want[k].projection.point.x);
      EXPECT_EQ(got[k].projection.point.y, want[k].projection.point.y);
      EXPECT_EQ(got[k].projection.segment_index,
                want[k].projection.segment_index);
      EXPECT_EQ(got[k].projection.t, want[k].projection.t);
      EXPECT_EQ(got[k].projection.arc_length,
                want[k].projection.arc_length);
      EXPECT_EQ(got[k].projection.distance, want[k].projection.distance);
    }
  }
  EXPECT_GT(expected_hits, 0);
  EXPECT_EQ(index.stats().hits, expected_hits);
  EXPECT_EQ(index.stats().queries, static_cast<int64_t>(queries.size()));
}

TEST(SpatialIndexEquivalenceTest, CityMapMatchesBruteForce) {
  const synth::CityMap map = synth::GenerateCityMap().value();
  ExpectNearbyMatchesBruteForce(map.network, 41);
}

// Nearest() searches rings of the index's 50 m cell size, doubled each
// time and capped at the maximum radius; its answer is the front of
// Nearby() at the first ring that finds an edge.
TEST(SpatialIndexNearestTest, CityMapReturnsFrontOfFirstHittingRing) {
  const synth::CityMap map = synth::GenerateCityMap().value();
  const SpatialIndex index(&map.network);
  constexpr double kMaxRadius = 300.0;
  const geo::Bbox box = map.network.Bounds();
  Rng rng(47);
  int hits = 0;
  int misses = 0;
  for (int i = 0; i < 400; ++i) {
    const EnPoint p{rng.Uniform(box.min_x - 400.0, box.max_x + 400.0),
                    rng.Uniform(box.min_y - 400.0, box.max_y + 400.0)};
    std::optional<EdgeCandidate> want;
    for (double ring = 50.0;; ring *= 2.0) {
      const std::vector<EdgeCandidate> found =
          index.Nearby(p, std::min(ring, kMaxRadius));
      if (!found.empty()) {
        want = found.front();
        break;
      }
      if (ring >= kMaxRadius) break;
    }
    const std::optional<EdgeCandidate> got = index.Nearest(p, kMaxRadius);
    ASSERT_EQ(got.has_value(), want.has_value())
        << "at (" << p.x << ", " << p.y << ")";
    if (!got) {
      ++misses;
      continue;
    }
    ++hits;
    EXPECT_EQ(got->edge, want->edge);
    EXPECT_EQ(got->projection.distance, want->projection.distance);
    EXPECT_EQ(got->projection.arc_length, want->projection.arc_length);
  }
  // The margin leaves points in both outcomes.
  EXPECT_GT(hits, 0);
  EXPECT_GT(misses, 0);

  // Beyond the maximum radius of every edge, and a point no ring can
  // search.
  const EnPoint far{box.max_x + 2 * kMaxRadius, box.max_y + 2 * kMaxRadius};
  EXPECT_TRUE(index.Nearby(far, kMaxRadius).empty());
  EXPECT_FALSE(index.Nearest(far, kMaxRadius).has_value());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(index.Nearest(EnPoint{nan, box.min_y}, kMaxRadius).has_value());
  EXPECT_FALSE(index.Nearest(EnPoint{nan, nan}, kMaxRadius).has_value());
}

// --- Per-worker tallies ------------------------------------------------------

// The index's and the router's counters live in per-worker slots, and
// stats() sums them. Each call does deterministic work, so the sums
// over a fixed query set must equal the serial totals at any worker
// count, and copies, which share the slots, report the same totals.
class WorkerTallyTest : public ::testing::Test {
 protected:
  static constexpr int64_t kQueries = 600;

  void SetUp() override {
    map_.network.ForEachEdge([this](const Edge& e) {
      if (e.length_m > 1.0) edges_.push_back(e.id);
    });
    ASSERT_GT(edges_.size(), 100u);
  }

  // Query i of the fixed set, by i % 4: Nearby, Nearest, a pair on one
  // edge (the direct connection when the edge allows the direction),
  // or a pair across the map (a search).
  Status RunQuery(const SpatialIndex& index, const Router& router,
                  int64_t i) const {
    const geo::Bbox box = map_.network.Bounds();
    Rng rng(MixSeed(61, static_cast<uint64_t>(i), 0));
    const EnPoint p{rng.Uniform(box.min_x - 100.0, box.max_x + 100.0),
                    rng.Uniform(box.min_y - 100.0, box.max_y + 100.0)};
    const auto edge = [&](int64_t k) {
      return edges_[static_cast<size_t>(k) % edges_.size()];
    };
    switch (i % 4) {
      case 0:
        index.Nearby(p, 60.0);
        break;
      case 1:
        index.Nearest(p, 300.0);
        break;
      case 2: {
        const EdgeId e = edge(i);
        const double len = map_.network.edge(e).length_m;
        (void)router.ShortestPathBetween(EdgePosition{e, 0.2 * len},
                                         EdgePosition{e, 0.7 * len});
        break;
      }
      default: {
        const EdgeId a = edge(i * 7);
        const EdgeId b = edge(i * 13 + 5);
        (void)router.ShortestPathBetween(
            EdgePosition{a, 0.5 * map_.network.edge(a).length_m},
            EdgePosition{b, 0.5 * map_.network.edge(b).length_m});
        break;
      }
    }
    return Status::OK();
  }

  void RunAll(const SpatialIndex& index, const Router& router,
              const Executor& executor) const {
    ASSERT_TRUE(executor
                    .ParallelFor(0, kQueries,
                                 [&](int64_t i) {
                                   return RunQuery(index, router, i);
                                 })
                    .ok());
  }

  static void ExpectSame(const SpatialIndexStats& a,
                         const SpatialIndexStats& b) {
    EXPECT_EQ(a.queries, b.queries);
    EXPECT_EQ(a.cells_probed, b.cells_probed);
    EXPECT_EQ(a.candidates, b.candidates);
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.empty_geometry_edges, b.empty_geometry_edges);
  }
  static void ExpectSame(const RouterStats& a, const RouterStats& b) {
    EXPECT_EQ(a.searches, b.searches);
    EXPECT_EQ(a.heap_pops, b.heap_pops);
    EXPECT_EQ(a.settled_vertices, b.settled_vertices);
    EXPECT_EQ(a.goal_directed_searches, b.goal_directed_searches);
    EXPECT_EQ(a.direct_connections, b.direct_connections);
  }

  const synth::CityMap map_ = synth::GenerateCityMap().value();
  std::vector<EdgeId> edges_;
};

TEST_F(WorkerTallyTest, TotalsAtAnyWorkerCountEqualSerial) {
  const SpatialIndex serial_index(&map_.network);
  const Router serial_router(&map_.network);
  RunAll(serial_index, serial_router, Executor(0));
  const SpatialIndexStats want_index = serial_index.stats();
  const RouterStats want_router = serial_router.stats();
  // Every kind of work shows up, so each sum below is a real check.
  EXPECT_GT(want_index.queries, kQueries / 2);  // Nearest makes several
  EXPECT_GT(want_index.cells_probed, 0);
  EXPECT_GT(want_index.candidates, 0);
  EXPECT_GT(want_index.hits, 0);
  EXPECT_GT(want_router.direct_connections, 0);
  EXPECT_GT(want_router.searches, 0);
  EXPECT_GT(want_router.heap_pops, 0);
  EXPECT_GT(want_router.settled_vertices, 0);
  EXPECT_GT(want_router.goal_directed_searches, 0);

  for (const int workers : {1, 2, 8}) {
    SCOPED_TRACE(workers);
    const SpatialIndex index(&map_.network);
    const Router router(&map_.network);
    RunAll(index, router, Executor(workers));
    ExpectSame(index.stats(), want_index);
    ExpectSame(router.stats(), want_router);
  }
}

TEST_F(WorkerTallyTest, CopiesShareOneSetOfTotals) {
  const SpatialIndex serial_index(&map_.network);
  const Router serial_router(&map_.network);
  RunAll(serial_index, serial_router, Executor(0));

  // The same queries, split between the originals and their copies,
  // with stats() read while the workers still count.
  const SpatialIndex index(&map_.network);
  const Router router(&map_.network);
  const SpatialIndex index_copy = index;
  const Router router_copy = router;
  const Executor executor(4);
  ASSERT_TRUE(executor
                  .ParallelFor(0, kQueries,
                               [&](int64_t i) {
                                 if (i % 50 == 0) {
                                   (void)index.stats();
                                   (void)router_copy.stats();
                                 }
                                 return i % 2 == 0
                                            ? RunQuery(index, router, i)
                                            : RunQuery(index_copy,
                                                       router_copy, i);
                               })
                  .ok());
  ExpectSame(router_copy.stats(), router.stats());
  ExpectSame(router.stats(), serial_router.stats());
  ExpectSame(index_copy.stats(), index.stats());
  ExpectSame(index.stats(), serial_index.stats());
}

// --- Segment tables ---------------------------------------------------------

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SamePoint(const EnPoint& a, const EnPoint& b) {
  return SameBits(a.x, b.x) && SameBits(a.y, b.y);
}

bool SameLine(const geo::Polyline& a, const geo::Polyline& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SamePoint(a.points()[i], b.points()[i])) return false;
  }
  return true;
}

// Every edge's segment tables hold exactly the doubles the geometry
// computes, and the Polyline walks given them return the same bits as
// without: projections at random and far-away points, Interpolate and
// SubLine at arcs -1, 0, random, L and L + 1 in both directions.
void ExpectSegmentTablesMatchGeometry(const RoadNetwork& net, uint64_t seed) {
  Rng rng(seed);
  size_t edges = 0;
  net.ForEachEdge([&](const Edge& e) {
    ++edges;
    const std::vector<EnPoint>& pts = e.geometry.points();
    const std::span<const double> lengths = net.SegmentLengths(e.id);
    const std::span<const double> headings = net.SegmentHeadings(e.id);
    const size_t segments = pts.empty() ? 0 : pts.size() - 1;
    ASSERT_EQ(lengths.size(), segments) << "edge " << e.id;
    ASSERT_EQ(headings.size(), segments) << "edge " << e.id;
    double sum = 0.0;
    for (size_t i = 0; i < segments; ++i) {
      sum += lengths[i];
      EXPECT_TRUE(SameBits(lengths[i], geo::Distance(pts[i], pts[i + 1])))
          << "edge " << e.id << " segment " << i;
      EXPECT_TRUE(SameBits(headings[i], e.geometry.SegmentHeading(i)))
          << "edge " << e.id << " segment " << i;
    }
    EXPECT_TRUE(SameBits(sum, e.length_m)) << "edge " << e.id;

    const geo::Bbox box = e.geometry.Bounds().Inflated(100.0);
    std::vector<EnPoint> queries = {{box.max_x + 1e6, box.max_y - 3e5}};
    for (int k = 0; k < 3; ++k) {
      queries.push_back({rng.Uniform(box.min_x, box.max_x),
                         rng.Uniform(box.min_y, box.max_y)});
    }
    for (const EnPoint& q : queries) {
      const geo::PolylineProjection want = e.geometry.Project(q);
      const geo::PolylineProjection got = e.geometry.Project(q, lengths);
      EXPECT_TRUE(SamePoint(got.point, want.point)) << "edge " << e.id;
      EXPECT_EQ(got.segment_index, want.segment_index) << "edge " << e.id;
      EXPECT_TRUE(SameBits(got.t, want.t)) << "edge " << e.id;
      EXPECT_TRUE(SameBits(got.arc_length, want.arc_length))
          << "edge " << e.id;
      EXPECT_TRUE(SameBits(got.distance, want.distance)) << "edge " << e.id;
    }

    const double length = e.length_m;
    const double arcs[] = {-1.0, 0.0, rng.Uniform(0.0, length), length,
                           length + 1.0};
    for (const double s0 : arcs) {
      EXPECT_TRUE(SamePoint(e.geometry.Interpolate(s0, lengths),
                            e.geometry.Interpolate(s0)))
          << "edge " << e.id << " s=" << s0;
      for (const double s1 : arcs) {
        EXPECT_TRUE(SameLine(e.geometry.SubLine(s0, s1, lengths),
                             e.geometry.SubLine(s0, s1)))
            << "edge " << e.id << " s0=" << s0 << " s1=" << s1;
      }
    }
  });
  EXPECT_GT(edges, 0u);
}

TEST(SegmentTableTest, CityMapMatchesGeometry) {
  const synth::CityMap map = synth::GenerateCityMap().value();
  ExpectSegmentTablesMatchGeometry(map.network, 47);
}

// The tables follow builder growth like the CSR: an edge added after
// WarmAdjacency() has its entries on the next read, and a one-point
// edge has none.
TEST(SegmentTableTest, RebuildsAfterBuilderGrowth) {
  RoadNetwork net(kOrigin);
  const VertexId a = net.AddVertex({0, 0}, false);
  const VertexId b = net.AddVertex({100, 0}, false);
  Edge e;
  e.from = a;
  e.to = b;
  e.geometry = geo::Polyline({{0, 0}, {100, 0}});
  const EdgeId first = net.AddEdge(std::move(e));
  net.WarmAdjacency();
  ASSERT_EQ(net.SegmentLengths(first).size(), 1u);

  const VertexId c = net.AddVertex({0, 100}, false);
  Edge bent;
  bent.from = b;
  bent.to = c;
  bent.geometry = geo::Polyline({{100, 0}, {100, 100}, {0, 100}});
  const EdgeId second = net.AddEdge(std::move(bent));
  Edge lone;
  lone.from = c;
  lone.to = c;
  lone.geometry = geo::Polyline({{0, 100}});
  const EdgeId third = net.AddEdge(std::move(lone));

  ASSERT_EQ(net.SegmentLengths(second).size(), 2u);
  EXPECT_EQ(net.SegmentLengths(second)[1], 100.0);
  EXPECT_EQ(net.SegmentHeadings(second)[0], M_PI / 2);
  EXPECT_EQ(net.SegmentHeadings(second)[1], M_PI);
  EXPECT_EQ(net.SegmentLengths(first)[0], 100.0);
  EXPECT_TRUE(net.SegmentLengths(third).empty());
  EXPECT_TRUE(net.SegmentHeadings(third).empty());
}

// --- Router -----------------------------------------------------------------------

// A 3x3 grid network with 100 m spacing.
std::vector<TrafficElement> GridElements() {
  std::vector<TrafficElement> elements;
  ElementId id = 1;
  for (int j = 0; j < 3; ++j) {
    for (int i = 0; i < 3; ++i) {
      const EnPoint p{i * 100.0, j * 100.0};
      if (i < 2) {
        elements.push_back(
            MakeElement(id++, {p, EnPoint{(i + 1) * 100.0, j * 100.0}}));
      }
      if (j < 2) {
        elements.push_back(
            MakeElement(id++, {p, EnPoint{i * 100.0, (j + 1) * 100.0}}));
      }
    }
  }
  return elements;
}

class RouterTest : public testing::Test {
 protected:
  RouterTest()
      : net_(PrepareRoadNetwork(GridElements(), {}, kOrigin).value()),
        router_(&net_) {}

  VertexId VertexAt(const EnPoint& p) const {
    VertexId found = kInvalidVertex;
    net_.ForEachVertex([&](const Vertex& v) {
      if (found == kInvalidVertex && geo::Distance(v.position, p) < 1.0) {
        found = v.id;
      }
    });
    return found;
  }

  RoadNetwork net_;
  Router router_;
};

// Note: the 3x3 grid's corner points have degree 2, so map preparation
// merges them into L-shaped edges; only the edge midpoints and the
// centre ((100,100)) are graph vertices.

TEST_F(RouterTest, StraightLineIsShortest) {
  const Result<Path> path =
      router_.ShortestPath(VertexAt({100, 0}), VertexAt({100, 200}));
  ASSERT_TRUE(path.ok());
  EXPECT_NEAR(path->length_m, 200.0, 1e-6);
  EXPECT_EQ(path->steps.size(), 2u);
}

TEST_F(RouterTest, ManhattanDistanceAcrossGrid) {
  const Result<Path> path =
      router_.ShortestPath(VertexAt({100, 0}), VertexAt({0, 100}));
  ASSERT_TRUE(path.ok());
  EXPECT_NEAR(path->length_m, 200.0, 1e-6);
  // Geometry runs continuously from source to destination.
  EXPECT_NEAR(geo::Distance(path->geometry.front(),
                            net_.vertex(VertexAt({100, 0})).position),
              0.0, 1.0);
  EXPECT_NEAR(geo::Distance(path->geometry.back(),
                            net_.vertex(VertexAt({0, 100})).position),
              0.0, 1.0);
  EXPECT_NEAR(path->geometry.Length(), path->length_m, 1e-6);
}

TEST_F(RouterTest, SameVertexYieldsZeroPath) {
  const Result<Path> path =
      router_.ShortestPath(VertexAt({100, 100}), VertexAt({100, 100}));
  ASSERT_TRUE(path.ok());
  EXPECT_DOUBLE_EQ(path->length_m, 0.0);
  EXPECT_TRUE(path->steps.empty());
}

TEST_F(RouterTest, InvalidVertexRejected) {
  EXPECT_TRUE(router_.ShortestPath(-1, 0).status().IsInvalidArgument());
  EXPECT_TRUE(router_.ShortestPath(0, 9999).status().IsInvalidArgument());
}

TEST_F(RouterTest, CostMultiplierChangesRoute) {
  // Make the direct north-south street prohibitively expensive; the
  // route must detour but report its true geometric length.
  std::vector<double> mult(net_.num_edges(), 1.0);
  const Result<Path> direct =
      router_.ShortestPath(VertexAt({100, 0}), VertexAt({100, 200}));
  ASSERT_TRUE(direct.ok());
  for (const PathStep& s : direct->steps) {
    mult[static_cast<size_t>(s.edge)] = 10.0;
  }
  const Result<Path> detour = router_.ShortestPath(
      VertexAt({100, 0}), VertexAt({100, 200}), &mult);
  ASSERT_TRUE(detour.ok());
  EXPECT_NEAR(detour->length_m, 400.0, 1e-6);  // around the block
}

TEST_F(RouterTest, MultiplierSizeMismatchRejected) {
  std::vector<double> bad(3, 1.0);
  EXPECT_TRUE(router_.ShortestPath(0, 1, &bad)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(RouterTest, PositionToPositionSameEdge) {
  const Edge& e = net_.edge(0);
  const Result<Path> path = router_.ShortestPathBetween(
      EdgePosition{e.id, 10.0}, EdgePosition{e.id, 60.0});
  ASSERT_TRUE(path.ok());
  EXPECT_NEAR(path->length_m, 50.0, 1e-6);
  ASSERT_EQ(path->steps.size(), 1u);
  EXPECT_TRUE(path->steps[0].forward);
}

TEST_F(RouterTest, PositionToPositionBackwardOnTwoWayEdge) {
  const Edge& e = net_.edge(0);
  const Result<Path> path = router_.ShortestPathBetween(
      EdgePosition{e.id, 60.0}, EdgePosition{e.id, 10.0});
  ASSERT_TRUE(path.ok());
  EXPECT_NEAR(path->length_m, 50.0, 1e-6);
  EXPECT_FALSE(path->steps[0].forward);
}

TEST_F(RouterTest, PositionToPositionAcrossGraph) {
  // From the middle of one edge to the middle of a distant edge.
  const EdgePosition from{net_.edge(0).id, 50.0};
  EdgeId far_edge = kInvalidEdge;
  net_.ForEachEdge([&](const Edge& e) {
    const EnPoint mid = e.geometry.Interpolate(e.length_m / 2);
    if (far_edge == kInvalidEdge &&
        geo::Distance(mid, net_.edge(0).geometry.Interpolate(50.0)) >
            150.0) {
      far_edge = e.id;
    }
  });
  ASSERT_NE(far_edge, kInvalidEdge);
  const Result<Path> path =
      router_.ShortestPathBetween(from, EdgePosition{far_edge, 30.0});
  ASSERT_TRUE(path.ok());
  EXPECT_GT(path->length_m, 100.0);
  EXPECT_NEAR(path->geometry.Length(), path->length_m, 1e-6);
}

TEST(RouterOneWayTest, OneWayForcesDetour) {
  // Two parallel streets connected at both ends; the direct one is
  // one-way against the travel direction. Stub elements keep the loop
  // corners at degree >= 3 so they stay graph vertices.
  const std::vector<TrafficElement> elements = {
      MakeElement(1, {{0, 0}, {100, 0}}, TravelDirection::kBackward),
      MakeElement(2, {{0, 0}, {0, 50}}),
      MakeElement(3, {{0, 50}, {100, 50}}),
      MakeElement(4, {{100, 50}, {100, 0}}),
      MakeElement(5, {{0, 0}, {-50, 0}}),
      MakeElement(6, {{100, 0}, {150, 0}}),
  };
  const RoadNetwork net =
      PrepareRoadNetwork(elements, {}, kOrigin).value();
  const Router router(&net);
  VertexId a = kInvalidVertex, b = kInvalidVertex;
  net.ForEachVertex([&](const Vertex& v) {
    if (geo::Distance(v.position, {0, 0}) < 1.0) a = v.id;
    if (geo::Distance(v.position, {100, 0}) < 1.0) b = v.id;
  });
  const Result<Path> forward = router.ShortestPath(a, b);
  ASSERT_TRUE(forward.ok());
  EXPECT_NEAR(forward->length_m, 200.0, 1e-6);  // detour via (0,50)
  const Result<Path> back = router.ShortestPath(b, a);
  ASSERT_TRUE(back.ok());
  EXPECT_NEAR(back->length_m, 100.0, 1e-6);  // direct, allowed direction
}

TEST(RouterDisconnectedTest, UnreachableIsNotFound) {
  const std::vector<TrafficElement> elements = {
      MakeElement(1, {{0, 0}, {100, 0}}),
      MakeElement(2, {{1000, 1000}, {1100, 1000}}),
  };
  const RoadNetwork net =
      PrepareRoadNetwork(elements, {}, kOrigin).value();
  const Router router(&net);
  const Result<Path> path = router.ShortestPath(0, 2);
  // Vertices 0 and 2 may or may not be on the same component depending
  // on creation order, so locate definitely-disconnected endpoints.
  VertexId a = kInvalidVertex, b = kInvalidVertex;
  net.ForEachVertex([&](const Vertex& v) {
    if (v.position.x < 500) a = v.id;
    if (v.position.x > 500) b = v.id;
  });
  EXPECT_TRUE(router.ShortestPath(a, b).status().IsNotFound());
  (void)path;
}

TEST(RouterOneWayTest, PositionRoutingRespectsOneWay) {
  const std::vector<TrafficElement> elements = {
      MakeElement(1, {{0, 0}, {100, 0}}, TravelDirection::kForward),
  };
  const RoadNetwork net =
      PrepareRoadNetwork(elements, {}, kOrigin).value();
  const Router router(&net);
  const Edge& e = net.edge(0);
  // Forward travel is fine; backward on the isolated one-way edge is
  // impossible.
  const double arc0 = e.direction == TravelDirection::kForward ? 10.0 : 90.0;
  const double arc1 = e.direction == TravelDirection::kForward ? 90.0 : 10.0;
  EXPECT_TRUE(router
                  .ShortestPathBetween(EdgePosition{e.id, arc0},
                                       EdgePosition{e.id, arc1})
                  .ok());
  EXPECT_TRUE(router
                  .ShortestPathBetween(EdgePosition{e.id, arc1},
                                       EdgePosition{e.id, arc0})
                  .status()
                  .IsNotFound());
}

// --- CSR adjacency ----------------------------------------------------------

// OutArcs is a flattened mirror of IncidentEdges: same edges in the
// same order, with head/length/traversability/orientation agreeing
// with the Edge records they were precomputed from.
TEST(RoadNetworkCsrTest, OutArcsMirrorsIncidentEdges) {
  const RoadNetwork net =
      PrepareRoadNetwork(GridElements(), {}, kOrigin).value();
  net.ForEachVertex([&](const Vertex& v) {
    const std::vector<EdgeId>& incident = net.IncidentEdges(v.id);
    const std::span<const HalfEdge> arcs = net.OutArcs(v.id);
    ASSERT_EQ(incident.size(), arcs.size()) << "vertex " << v.id;
    for (size_t k = 0; k < arcs.size(); ++k) {
      const HalfEdge& arc = arcs[k];
      EXPECT_EQ(arc.edge, incident[k]) << "vertex " << v.id;
      const Edge& e = net.edge(arc.edge);
      EXPECT_EQ(arc.forward, e.from == v.id);
      EXPECT_EQ(arc.head, net.Opposite(arc.edge, v.id));
      EXPECT_EQ(arc.length_m, e.length_m);
      EXPECT_EQ(arc.traversable_out, net.CanTraverse(arc.edge, arc.forward));
      EXPECT_EQ(arc.traversable_in, net.CanTraverse(arc.edge, !arc.forward));
    }
  });
}

// The CSR cache follows builder growth: arcs added after a first read
// appear on the next read.
TEST(RoadNetworkCsrTest, OutArcsFollowsBuilderGrowth) {
  RoadNetwork net(kOrigin);
  const VertexId a = net.AddVertex({0, 0}, false);
  const VertexId b = net.AddVertex({100, 0}, false);
  Edge e;
  e.from = a;
  e.to = b;
  e.geometry = geo::Polyline({{0, 0}, {100, 0}});
  e.length_m = 100.0;
  net.AddEdge(std::move(e));
  EXPECT_EQ(net.OutArcs(a).size(), 1u);

  const VertexId c = net.AddVertex({0, 100}, false);
  Edge e2;
  e2.from = a;
  e2.to = c;
  e2.geometry = geo::Polyline({{0, 0}, {0, 100}});
  e2.length_m = 100.0;
  net.AddEdge(std::move(e2));
  EXPECT_EQ(net.OutArcs(a).size(), 2u);
  EXPECT_EQ(net.OutArcs(c).size(), 1u);
  EXPECT_EQ(net.OutArcs(c)[0].head, a);
}

// --- Seed dedupe ------------------------------------------------------------

// A NaN arc used to key the search heap with NaN (reported as "no
// drivable path") and an infinite one was clamped to an edge end; both
// are now rejected before the direct check and before any search.
TEST_F(RouterTest, NonFiniteArcRejected) {
  const EdgeId e = net_.edge(0).id;
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    EXPECT_TRUE(router_.ShortestPathBetween(EdgePosition{e, bad},
                                            EdgePosition{e, 10.0})
                    .status()
                    .IsInvalidArgument())
        << bad;
    EXPECT_TRUE(router_.ShortestPathBetween(EdgePosition{e, 10.0},
                                            EdgePosition{e, bad})
                    .status()
                    .IsInvalidArgument())
        << bad;
  }
  EXPECT_EQ(router_.stats().searches, 0);
  EXPECT_EQ(router_.stats().direct_connections, 0);
}

// Regression: a loop edge hands Search two seeds naming the same vertex
// (both endpoints are the hub). The seed phase must keep the cheaper
// cost and push one heap entry — with the old duplicate push the search
// still answered correctly but popped a guaranteed-stale entry, so
// heap_pops exceeded settled_vertices on this two-vertex graph.
TEST(RouterSeedDedupeTest, CoincidentSeedsOnLoopEdge) {
  RoadNetwork net(kOrigin);
  const VertexId hub = net.AddVertex({0, 0}, true);
  const VertexId out = net.AddVertex({100, 0}, false);
  Edge loop;
  loop.from = hub;
  loop.to = hub;
  loop.geometry =
      geo::Polyline({{0, 0}, {50, 50}, {0, 100}, {-50, 50}, {0, 0}});
  loop.length_m = loop.geometry.Length();
  const EdgeId loop_id = net.AddEdge(std::move(loop));
  Edge spur;
  spur.from = hub;
  spur.to = out;
  spur.geometry = geo::Polyline({{0, 0}, {100, 0}});
  spur.length_m = 100.0;
  const EdgeId spur_id = net.AddEdge(std::move(spur));

  const Router router(&net);
  const double loop_len = net.edge(loop_id).length_m;
  // Start 30 m into the loop: leaving backwards (30 m to the hub) beats
  // leaving forwards (loop_len - 30 m), and the kept seed must be the
  // cheaper of the two coincident ones.
  const Result<Path> path = router.ShortestPathBetween(
      EdgePosition{loop_id, 30.0}, EdgePosition{spur_id, 40.0});
  ASSERT_TRUE(path.ok());
  EXPECT_NEAR(path->length_m, 30.0 + 40.0, 1e-9);
  EXPECT_GT(loop_len - 30.0, 30.0);  // the discarded seed was dearer

  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.searches, 1);
  // No stale pops on this graph once the duplicate seed is gone.
  EXPECT_EQ(stats.heap_pops, stats.settled_vertices);
}

TEST(RoadNetworkValidateTest, DetectsBadFeatureReference) {
  RoadNetwork net(kOrigin);
  const VertexId a = net.AddVertex({0, 0}, false);
  const VertexId b = net.AddVertex({10, 0}, false);
  Edge e;
  e.from = a;
  e.to = b;
  e.geometry = geo::Polyline({{0, 0}, {10, 0}});
  e.feature_ids.push_back(99);  // dangling
  net.AddEdge(std::move(e));
  EXPECT_TRUE(net.Validate().IsCorruption());
}

TEST(RoadNetworkValidateTest, DetectsGeometryVertexMismatch) {
  RoadNetwork net(kOrigin);
  const VertexId a = net.AddVertex({0, 0}, false);
  const VertexId b = net.AddVertex({10, 0}, false);
  Edge e;
  e.from = a;
  e.to = b;
  e.geometry = geo::Polyline({{0, 0}, {50, 50}});  // wrong far end
  net.AddEdge(std::move(e));
  EXPECT_TRUE(net.Validate().IsCorruption());
}

}  // namespace
}  // namespace roadnet
}  // namespace taxitrace
