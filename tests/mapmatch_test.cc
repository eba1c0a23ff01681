#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "taxitrace/clean/cleaning_pipeline.h"
#include "taxitrace/common/hash.h"
#include "taxitrace/core/study_config.h"
#include "taxitrace/mapmatch/candidates.h"
#include "taxitrace/mapmatch/incremental_matcher.h"
#include "taxitrace/mapmatch/match_quality.h"
#include "taxitrace/mapmatch/nearest_edge_matcher.h"
#include "taxitrace/mapmatch/route_cache.h"
#include "taxitrace/roadnet/router.h"
#include "taxitrace/synth/city_map_generator.h"
#include "taxitrace/synth/driver_model.h"
#include "taxitrace/synth/fleet_simulator.h"
#include "taxitrace/synth/pedestrian_model.h"
#include "taxitrace/synth/sensor_model.h"
#include "taxitrace/synth/weather_model.h"

namespace taxitrace {
namespace mapmatch {
namespace {

using geo::EnPoint;

const synth::CityMap& TestMap() {
  static const synth::CityMap* map = [] {
    auto result = synth::GenerateCityMap();
    return new synth::CityMap(std::move(result).value());
  }();
  return *map;
}

const roadnet::SpatialIndex& TestIndex() {
  static const roadnet::SpatialIndex* index =
      new roadnet::SpatialIndex(&TestMap().network);
  return *index;
}

// --- Scores ------------------------------------------------------------------

TEST(ScoreTest, DistanceScoreDecreasesWithDistance) {
  const ScoreOptions options;
  EXPECT_GT(DistanceScore(0.0, options), DistanceScore(10.0, options));
  EXPECT_GT(DistanceScore(10.0, options), DistanceScore(40.0, options));
  EXPECT_DOUBLE_EQ(DistanceScore(0.0, options), options.distance_mu);
}

TEST(ScoreTest, HeadingScoreFavoursAlignment) {
  const ScoreOptions options;
  const auto both = roadnet::TravelDirection::kBoth;
  const double east = 0.0;  // segment heading
  const double aligned = HeadingScore(0.0, true, both, east, options);
  const double diagonal = HeadingScore(M_PI / 4, true, both, east, options);
  const double perpendicular =
      HeadingScore(M_PI / 2, true, both, east, options);
  EXPECT_GT(aligned, diagonal);
  EXPECT_GT(diagonal, perpendicular);
  EXPECT_NEAR(aligned, options.heading_mu, 1e-9);
  EXPECT_NEAR(perpendicular, 0.0, 1e-9);
}

TEST(ScoreTest, TwoWayEdgeAcceptsOppositeHeading) {
  const ScoreOptions options;
  EXPECT_NEAR(HeadingScore(M_PI, true, roadnet::TravelDirection::kBoth, 0.0,
                           options),
              options.heading_mu, 1e-9);
}

TEST(ScoreTest, OneWayEdgePenalisesWrongWay) {
  const ScoreOptions options;
  const auto forward = roadnet::TravelDirection::kForward;
  EXPECT_NEAR(HeadingScore(0.0, true, forward, 0.0, options),
              options.heading_mu, 1e-9);
  EXPECT_NEAR(HeadingScore(M_PI, true, forward, 0.0, options),
              -options.heading_mu, 1e-9);
  EXPECT_NEAR(HeadingScore(M_PI, true, roadnet::TravelDirection::kBackward,
                           0.0, options),
              options.heading_mu, 1e-9);
}

TEST(ScoreTest, NoHeadingDisablesTerm) {
  const ScoreOptions options;
  EXPECT_DOUBLE_EQ(
      HeadingScore(1.0, false, roadnet::TravelDirection::kBoth, 0.0, options),
      0.0);
}

TEST(CandidatesTest, SortedByTotalScore) {
  const std::vector<MatchCandidate> candidates = FindCandidates(
      TestIndex(), EnPoint{0, 0}, 0.0, false, ScoreOptions());
  ASSERT_GE(candidates.size(), 1u);
  for (size_t i = 1; i < candidates.size(); ++i) {
    EXPECT_GE(candidates[i - 1].TotalScore(), candidates[i].TotalScore());
  }
}

// A one-point edge has no segment and so no heading: its candidate
// scores 0 on the heading term instead of reading the segment heading
// past the end of its geometry (caught by the ASan/UBSan leg).
TEST(CandidatesTest, OnePointEdgeHasNoHeadingScore) {
  roadnet::RoadNetwork net(geo::LatLon{65.0121, 25.4682});
  const roadnet::VertexId v = net.AddVertex({500, 500}, false);
  roadnet::Edge lone;
  lone.from = v;
  lone.to = v;
  lone.geometry = geo::Polyline({{500, 500}});
  const roadnet::EdgeId lone_id = net.AddEdge(std::move(lone));
  const roadnet::SpatialIndex index(&net);

  const ScoreOptions options;
  const std::vector<MatchCandidate> candidates =
      FindCandidates(index, EnPoint{497, 496}, 0.3, true, options);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].edge, lone_id);
  EXPECT_EQ(candidates[0].projection.segment_index, 0u);
  EXPECT_EQ(candidates[0].heading_score, 0.0);
  EXPECT_EQ(candidates[0].distance_score, DistanceScore(5.0, options));
}

TEST(CandidatesTest, EmptyWhenFarFromRoads) {
  EXPECT_TRUE(FindCandidates(TestIndex(), EnPoint{9000, 9000}, 0.0, false,
                             ScoreOptions())
                  .empty());
}

// --- Matchers ------------------------------------------------------------------

class MatcherTest : public testing::Test {
 protected:
  MatcherTest()
      : weather_(3, 365),
        driver_(&TestMap(), &weather_),
        router_(&TestMap().network),
        matcher_(&TestMap().network, &TestIndex()) {}

  // Simulates a drive between two random vertices and observes it with
  // the sensor; returns (trip, truth path).
  std::pair<trace::Trip, roadnet::Path> SimulatedTrip(uint64_t seed) {
    Rng rng(seed);
    const auto& net = TestMap().network;
    roadnet::Path path;
    while (true) {
      const auto a = static_cast<roadnet::VertexId>(rng.UniformInt(
          0, static_cast<int64_t>(net.num_vertices()) - 1));
      const auto b = static_cast<roadnet::VertexId>(rng.UniformInt(
          0, static_cast<int64_t>(net.num_vertices()) - 1));
      const auto result = router_.ShortestPath(a, b);
      if (result.ok() && result->length_m > 800.0) {
        path = *result;
        break;
      }
    }
    const auto samples = driver_.Drive(path, 3600.0, 1.0, &rng);
    synth::SensorOptions sensor_options;
    sensor_options.timestamp_glitch_prob = 0.0;
    sensor_options.id_glitch_prob = 0.0;
    sensor_options.outlier_prob = 0.0;
    const synth::SensorModel sensor(sensor_options);
    trace::Trip trip;
    trip.trip_id = 1;
    int64_t next_id = 1;
    trip.points =
        sensor.Observe(samples, 1, &next_id, net.projection(), &rng);
    return {trip, path};
  }

  synth::WeatherModel weather_;
  synth::DriverModel driver_;
  roadnet::Router router_;
  IncrementalMatcher matcher_;
};

TEST_F(MatcherTest, RejectsTinyTrips) {
  trace::Trip trip;
  EXPECT_TRUE(matcher_.Match(trip).status().IsInvalidArgument());
  trip.points.resize(1);
  EXPECT_FALSE(matcher_.Match(trip).ok());
}

TEST_F(MatcherTest, RecoversSimulatedRoute) {
  double jaccard_sum = 0.0;
  double length_error_sum = 0.0;
  // The seeds pick random vertex pairs, so the sampled routes depend on
  // the network's vertex numbering. Re-picked when the graph build
  // switched to sorted endpoint-key order (stable across platforms).
  for (uint64_t seed = 9; seed <= 13; ++seed) {
    const auto [trip, truth] = SimulatedTrip(seed);
    const Result<MatchedRoute> matched = matcher_.Match(trip);
    ASSERT_TRUE(matched.ok()) << "seed " << seed;
    std::vector<roadnet::EdgeId> truth_edges;
    for (const roadnet::PathStep& s : truth.steps) {
      truth_edges.push_back(s.edge);
    }
    const double jaccard =
        EdgeJaccard(matched->DistinctEdges(), truth_edges);
    jaccard_sum += jaccard;
    EXPECT_GT(jaccard, 0.55) << "seed " << seed;
    EXPECT_LT(MeanGeometryDeviation(matched->geometry, truth.geometry),
              25.0)
        << "seed " << seed;
    const double length_error =
        RouteLengthError(matched->length_m, truth.length_m);
    length_error_sum += length_error;
    EXPECT_LT(length_error, 0.4) << "seed " << seed;
  }
  EXPECT_GT(jaccard_sum / 5.0, 0.7);
  EXPECT_LT(length_error_sum / 5.0, 0.2);
}

TEST_F(MatcherTest, MatchedPointsReferenceTripIndices) {
  const auto [trip, truth] = SimulatedTrip(11);
  (void)truth;
  const MatchedRoute matched = matcher_.Match(trip).value();
  ASSERT_GE(matched.points.size(), 2u);
  for (const MatchedPoint& mp : matched.points) {
    EXPECT_LT(mp.point_index, trip.points.size());
    EXPECT_GE(mp.distance_m, 0.0);
    EXPECT_LT(mp.distance_m, 60.0);
  }
  // Point indices strictly increase.
  for (size_t i = 1; i < matched.points.size(); ++i) {
    EXPECT_GT(matched.points[i].point_index,
              matched.points[i - 1].point_index);
  }
}

TEST_F(MatcherTest, GapFillingBridgesDroppedPoints) {
  auto [trip, truth] = SimulatedTrip(23);
  // Remove a long middle stretch of points to create a gap.
  const size_t n = trip.points.size();
  ASSERT_GT(n, 14u);
  trip.points.erase(trip.points.begin() + static_cast<ptrdiff_t>(n / 3),
                    trip.points.begin() + static_cast<ptrdiff_t>(2 * n / 3));
  const MatchedRoute matched = matcher_.Match(trip).value();
  EXPECT_GE(matched.gaps_filled, 1);
  // The reconstructed route still covers most of the truth.
  std::vector<roadnet::EdgeId> truth_edges;
  for (const roadnet::PathStep& s : truth.steps) {
    truth_edges.push_back(s.edge);
  }
  EXPECT_GT(EdgeJaccard(matched.DistinctEdges(), truth_edges), 0.5);
}

TEST_F(MatcherTest, GeometryIsContinuous) {
  const auto [trip, truth] = SimulatedTrip(31);
  (void)truth;
  const MatchedRoute matched = matcher_.Match(trip).value();
  const auto& pts = matched.geometry.points();
  ASSERT_GE(pts.size(), 2u);
  for (size_t i = 1; i < pts.size(); ++i) {
    EXPECT_LT(geo::Distance(pts[i - 1], pts[i]), 150.0);
  }
}

// Every route of the small study's cleaned segments, matched as the
// match_all benchmark matches them (one RouteCache per segment), hashed
// bit for bit: geometry, steps, length, matched and skipped points and
// filled gaps. The benchmark's digest leaves geometry out; this pins it
// for any change to path assembly. The constants come from the matcher
// before paths were built into reused buffers.
uint64_t HashRoute(const Result<MatchedRoute>& r) {
  const auto mix = [](uint64_t h, uint64_t x) { return SplitMix64(h ^ x); };
  if (!r.ok()) {
    return mix(0xBADull, static_cast<uint64_t>(r.status().code()));
  }
  uint64_t h = SplitMix64(r->points.size());
  h = mix(h, static_cast<uint64_t>(r->points_skipped));
  h = mix(h, static_cast<uint64_t>(r->gaps_filled));
  h = mix(h, std::bit_cast<uint64_t>(r->length_m));
  for (const roadnet::PathStep& s : r->steps) {
    h = mix(h, (static_cast<uint64_t>(s.edge) << 1) | (s.forward ? 1u : 0u));
  }
  h = mix(h, r->geometry.size());
  for (const EnPoint& p : r->geometry.points()) {
    h = mix(h, std::bit_cast<uint64_t>(p.x));
    h = mix(h, std::bit_cast<uint64_t>(p.y));
  }
  return h;
}

TEST(MatchedOutputTest, SmallStudyRoutesArePinned) {
  const core::StudyConfig cfg = core::StudyConfig::SmallStudy();
  const synth::CityMap map = synth::GenerateCityMap(cfg.map).value();
  const synth::WeatherModel weather(cfg.weather_seed, cfg.fleet.num_days);
  const synth::PedestrianModel pedestrians(cfg.fleet.seed + 17, map.hotspots,
                                           cfg.fleet.num_days);
  const synth::FleetSimulator fleet(&map, &weather, cfg.fleet, &pedestrians);
  const synth::FleetResult raw = fleet.Run().value();
  const std::vector<trace::Trip> segments =
      clean::CleanTrips(raw.store, cfg.cleaning).value();
  const roadnet::SpatialIndex index(&map.network);
  const IncrementalMatcher matcher(&map.network, &index, cfg.matcher);

  uint64_t digest = 0;
  int64_t matched = 0;
  RouteCache::Stats cache_stats;
  for (const trace::Trip& segment : segments) {
    RouteCache cache(cfg.matcher.gap.route_cache_capacity);
    const Result<MatchedRoute> route = matcher.Match(segment, &cache);
    matched += route.ok() ? 1 : 0;
    digest = SplitMix64(digest ^ HashRoute(route));
    cache_stats.hits += cache.stats().hits;
    cache_stats.misses += cache.stats().misses;
  }
  EXPECT_EQ(segments.size(), 1161u);
  EXPECT_EQ(matched, 1160);
  EXPECT_EQ(digest, 0xa0ccbd49d601ca63ull);
  // Gap fills are rarely asked for twice in one segment.
  EXPECT_EQ(cache_stats.hits, 36);
  EXPECT_EQ(cache_stats.misses, 74470);
}

TEST_F(MatcherTest, NearestEdgeBaselineWorksButIsWeaker) {
  const NearestEdgeMatcher baseline(&TestMap().network, &TestIndex());
  double inc_jaccard_sum = 0.0, base_jaccard_sum = 0.0;
  int runs = 0;
  for (uint64_t seed = 41; seed <= 45; ++seed) {
    const auto [trip, truth] = SimulatedTrip(seed);
    const auto inc = matcher_.Match(trip);
    const auto base = baseline.Match(trip);
    ASSERT_TRUE(inc.ok());
    ASSERT_TRUE(base.ok());
    std::vector<roadnet::EdgeId> truth_edges;
    for (const roadnet::PathStep& s : truth.steps) {
      truth_edges.push_back(s.edge);
    }
    inc_jaccard_sum += EdgeJaccard(inc->DistinctEdges(), truth_edges);
    base_jaccard_sum += EdgeJaccard(base->DistinctEdges(), truth_edges);
    ++runs;
  }
  EXPECT_GE(inc_jaccard_sum, base_jaccard_sum);
  EXPECT_GT(base_jaccard_sum / runs, 0.3);  // the baseline is not useless
}

// The baseline snaps each point to the front of Nearby(p, kReachM), and
// a point farther than the reach from every road is skipped and
// counted.
TEST_F(MatcherTest, NearestEdgeBaselineSnapsToNearbyFront) {
  const NearestEdgeMatcher baseline(&TestMap().network, &TestIndex());
  const geo::LocalProjection& proj = TestMap().network.projection();
  const EnPoint off_road{9000, 9000};
  ASSERT_TRUE(
      TestIndex().Nearby(off_road, roadnet::SpatialIndex::kReachM).empty());
  auto [trip, truth] = SimulatedTrip(41);
  const size_t far_index = trip.points.size() / 2;
  trace::RoutePoint far = trip.points[far_index];
  far.position = proj.Inverse(off_road);
  trip.points.insert(
      trip.points.begin() + static_cast<ptrdiff_t>(far_index), far);

  const Result<MatchedRoute> route = baseline.Match(trip);
  ASSERT_TRUE(route.ok());
  EXPECT_GE(route->points_skipped, 1);
  EXPECT_EQ(route->points.size() + static_cast<size_t>(route->points_skipped),
            trip.points.size());
  for (const MatchedPoint& m : route->points) {
    EXPECT_NE(m.point_index, far_index);
    const std::vector<roadnet::EdgeCandidate> nearby = TestIndex().Nearby(
        proj.Forward(trip.points[m.point_index].position),
        roadnet::SpatialIndex::kReachM);
    ASSERT_FALSE(nearby.empty()) << m.point_index;
    EXPECT_EQ(m.position.edge, nearby.front().edge);
    EXPECT_EQ(m.position.arc_length_m, nearby.front().projection.arc_length);
    EXPECT_EQ(m.distance_m, nearby.front().projection.distance);
  }
}

TEST(NearestEdgeMatcherTest, RejectsTinyTrips) {
  const NearestEdgeMatcher baseline(&TestMap().network, &TestIndex());
  trace::Trip trip;
  EXPECT_FALSE(baseline.Match(trip).ok());
}

// --- Quality metrics -----------------------------------------------------------

TEST(MatchQualityTest, EdgeJaccard) {
  EXPECT_DOUBLE_EQ(EdgeJaccard({1, 2, 3}, {1, 2, 3}), 1.0);
  EXPECT_DOUBLE_EQ(EdgeJaccard({1, 2}, {3, 4}), 0.0);
  EXPECT_DOUBLE_EQ(EdgeJaccard({1, 2, 3}, {2, 3, 4}), 0.5);
  EXPECT_DOUBLE_EQ(EdgeJaccard({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(EdgeJaccard({1}, {}), 0.0);
  // Duplicates in the inputs do not distort the set semantics.
  EXPECT_DOUBLE_EQ(EdgeJaccard({1, 1, 2}, {1, 2, 2}), 1.0);
}

TEST(MatchQualityTest, GeometryDeviation) {
  const geo::Polyline a({{0, 0}, {100, 0}});
  const geo::Polyline b({{0, 5}, {100, 5}});
  EXPECT_NEAR(MeanGeometryDeviation(a, b), 5.0, 0.1);
  EXPECT_NEAR(MeanGeometryDeviation(a, a), 0.0, 1e-9);
  EXPECT_TRUE(std::isinf(MeanGeometryDeviation(geo::Polyline(), a)));
}

TEST(MatchQualityTest, RouteLengthError) {
  EXPECT_DOUBLE_EQ(RouteLengthError(110.0, 100.0), 0.1);
  EXPECT_DOUBLE_EQ(RouteLengthError(90.0, 100.0), 0.1);
  EXPECT_TRUE(std::isinf(RouteLengthError(10.0, 0.0)));
}

// --- Route cache ------------------------------------------------------------

roadnet::EdgePosition Pos(roadnet::EdgeId edge, double arc) {
  return roadnet::EdgePosition{edge, arc};
}

Result<roadnet::Path> PathOfLength(double length_m) {
  roadnet::Path p;
  p.length_m = length_m;
  return p;
}

TEST(RouteCacheTest, HitMissAndRefresh) {
  RouteCache cache(4);
  EXPECT_EQ(cache.Find(Pos(1, 0.0), Pos(2, 5.0)), nullptr);
  EXPECT_EQ(cache.stats().misses, 1);
  cache.Insert(Pos(1, 0.0), Pos(2, 5.0), PathOfLength(42.0));

  const Result<roadnet::Path>* hit = cache.Find(Pos(1, 0.0), Pos(2, 5.0));
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ((*hit)->length_m, 42.0);
  EXPECT_EQ(cache.stats().hits, 1);

  // The key is the exact bit pattern of both positions: a different arc
  // length is a different entry.
  EXPECT_EQ(cache.Find(Pos(1, 0.0), Pos(2, 5.5)), nullptr);
  // Re-inserting an existing key refreshes the value in place.
  cache.Insert(Pos(1, 0.0), Pos(2, 5.0), PathOfLength(43.0));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_DOUBLE_EQ((*cache.Find(Pos(1, 0.0), Pos(2, 5.0)))->length_m, 43.0);
}

TEST(RouteCacheTest, CachesNotFoundOutcomes) {
  RouteCache cache(2);
  cache.Insert(Pos(3, 0.0), Pos(4, 0.0), Status::NotFound("unreachable"));
  const Result<roadnet::Path>* hit = cache.Find(Pos(3, 0.0), Pos(4, 0.0));
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(hit->status().IsNotFound());
}

TEST(RouteCacheTest, EvictsLeastRecentlyUsed) {
  RouteCache cache(2);
  cache.Insert(Pos(1, 0.0), Pos(9, 0.0), PathOfLength(1.0));
  cache.Insert(Pos(2, 0.0), Pos(9, 0.0), PathOfLength(2.0));
  // Touch entry 1 so entry 2 becomes the eviction victim.
  ASSERT_NE(cache.Find(Pos(1, 0.0), Pos(9, 0.0)), nullptr);
  cache.Insert(Pos(3, 0.0), Pos(9, 0.0), PathOfLength(3.0));

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_NE(cache.Find(Pos(1, 0.0), Pos(9, 0.0)), nullptr);
  EXPECT_EQ(cache.Find(Pos(2, 0.0), Pos(9, 0.0)), nullptr);
  EXPECT_NE(cache.Find(Pos(3, 0.0), Pos(9, 0.0)), nullptr);
}

// Regression for the equal-implies-equal-hash violation: Key used a
// defaulted operator== over the arc doubles while KeyHash hashed their
// bit patterns, so -0.0 and +0.0 compared equal but hashed apart —
// unordered_map UB territory. Equality now compares bit patterns too:
// the signed zeros are two distinct, individually retrievable entries.
TEST(RouteCacheTest, SignedZeroArcsAreDistinctKeys) {
  RouteCache cache(4);
  cache.Insert(Pos(1, +0.0), Pos(2, 0.0), PathOfLength(1.0));
  cache.Insert(Pos(1, -0.0), Pos(2, 0.0), PathOfLength(2.0));
  EXPECT_EQ(cache.size(), 2u);

  const Result<roadnet::Path>* pos = cache.Find(Pos(1, +0.0), Pos(2, 0.0));
  ASSERT_NE(pos, nullptr);
  EXPECT_DOUBLE_EQ((*pos)->length_m, 1.0);
  const Result<roadnet::Path>* neg = cache.Find(Pos(1, -0.0), Pos(2, 0.0));
  ASSERT_NE(neg, nullptr);
  EXPECT_DOUBLE_EQ((*neg)->length_m, 2.0);
  EXPECT_EQ(cache.stats().hits, 2);
  EXPECT_EQ(cache.stats().misses, 0);
}

// With value equality a NaN arc never equalled itself, so re-inserting
// the same key duplicated the entry and Find could never hit. Bit-
// pattern equality makes NaN keys behave like any other bit pattern.
TEST(RouteCacheTest, NanArcKeysAreWellBehaved) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  RouteCache cache(4);
  cache.Insert(Pos(1, nan), Pos(2, 0.0), PathOfLength(1.0));
  cache.Insert(Pos(1, nan), Pos(2, 0.0), PathOfLength(2.0));
  // Same bit pattern: the second Insert refreshed, not duplicated.
  EXPECT_EQ(cache.size(), 1u);

  const Result<roadnet::Path>* hit = cache.Find(Pos(1, nan), Pos(2, 0.0));
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ((*hit)->length_m, 2.0);
  EXPECT_EQ(cache.stats().hits, 1);
}

TEST(RouteCacheTest, CapacityZeroDisables) {
  RouteCache cache(0);
  cache.Insert(Pos(1, 0.0), Pos(2, 0.0), PathOfLength(1.0));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Find(Pos(1, 0.0), Pos(2, 0.0)), nullptr);
  // A disabled cache is transparent in the metrics too: no tallies.
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.stats().misses, 0);
  EXPECT_EQ(cache.stats().evictions, 0);
}

}  // namespace
}  // namespace mapmatch
}  // namespace taxitrace
