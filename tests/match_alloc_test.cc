// Heap allocation budget of IncrementalMatcher::Match. Gap fill runs
// about once per GPS point, and every connection is assembled into path
// buffers the matcher and the router keep for the whole call, so a warm
// match allocates well under once per matched point: the trip's own
// vectors, the growing route and the route cache's copies of filled
// gaps. A fresh heap block per connection (a returned Path, a reversed
// or cut edge geometry, a seed or predecessor vector) shows up here as
// several allocations per point.
//
// This binary replaces the global operator new/delete with counting
// versions, which is why it is a test binary of its own.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "taxitrace/common/random.h"
#include "taxitrace/mapmatch/incremental_matcher.h"
#include "taxitrace/mapmatch/route_cache.h"
#include "taxitrace/roadnet/router.h"
#include "taxitrace/roadnet/spatial_index.h"
#include "taxitrace/synth/city_map_generator.h"
#include "taxitrace/synth/driver_model.h"
#include "taxitrace/synth/sensor_model.h"
#include "taxitrace/synth/weather_model.h"

namespace {

std::atomic<int64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAllocOrThrow(std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every unaligned form, nothrow included, so each block is freed by the
// same allocator that made it (sanitizer runtimes check that); the
// aligned forms stay the runtime's.
void* operator new(std::size_t size) { return CountedAllocOrThrow(size); }
void* operator new[](std::size_t size) { return CountedAllocOrThrow(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace taxitrace {
namespace mapmatch {
namespace {

// Allocations per matched point on a warm match of the trip below. It
// measures 0.30; a fresh Path per connection reads about 6.
constexpr double kMaxAllocationsPerMatchedPoint = 1.0;

// One sensor-observed trip of at least `min_points` fixes: a chain of
// drives along shortest paths between random vertices of `map`, each
// starting where the previous one ended.
trace::Trip SimulatedTrip(const synth::CityMap& map, size_t min_points) {
  const roadnet::RoadNetwork& net = map.network;
  const roadnet::Router router(&net);
  const synth::WeatherModel weather(3, 365);
  const synth::DriverModel driver(&map, &weather);
  synth::SensorOptions sensor_options;
  sensor_options.timestamp_glitch_prob = 0.0;
  sensor_options.id_glitch_prob = 0.0;
  sensor_options.outlier_prob = 0.0;
  const synth::SensorModel sensor(sensor_options);
  Rng rng(2024);
  const auto n = static_cast<int64_t>(net.num_vertices());
  std::vector<synth::DriveSample> samples;
  auto at = static_cast<roadnet::VertexId>(rng.UniformInt(0, n - 1));
  double t_s = 3600.0;
  trace::Trip trip;
  trip.trip_id = 1;
  while (trip.points.size() < min_points) {
    const auto to = static_cast<roadnet::VertexId>(rng.UniformInt(0, n - 1));
    const Result<roadnet::Path> path = router.ShortestPath(at, to);
    if (!path.ok() || path->length_m < 500.0) continue;
    const std::vector<synth::DriveSample> leg =
        driver.Drive(*path, t_s, 1.0, &rng);
    samples.insert(samples.end(), leg.begin(), leg.end());
    at = to;
    t_s = samples.back().t_s + 1.0;
    int64_t next_id = 1;
    trip.points =
        sensor.Observe(samples, 1, &next_id, net.projection(), &rng);
  }
  return trip;
}

TEST(MatchAllocationTest, WarmMatchAllocatesUnderOncePerMatchedPoint) {
  const synth::CityMap map = synth::GenerateCityMap().value();
  const roadnet::SpatialIndex index(&map.network);
  const IncrementalMatcher matcher(&map.network, &index);
  const trace::Trip trip = SimulatedTrip(map, 200);

  // The first match grows the worker's search scratch and the spatial
  // index's per-thread buffers; the second is the steady state.
  RouteCache warm_cache(matcher.options().gap.route_cache_capacity);
  ASSERT_TRUE(matcher.Match(trip, &warm_cache).ok());

  RouteCache cache(matcher.options().gap.route_cache_capacity);
  const int64_t before = g_allocations.load(std::memory_order_relaxed);
  const Result<MatchedRoute> route = matcher.Match(trip, &cache);
  const int64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - before;
  ASSERT_TRUE(route.ok());

  const auto matched = static_cast<double>(route->points.size());
  ASSERT_GE(route->points.size(), 150u);
  EXPECT_GT(route->steps.size(), 10u);
  EXPECT_LT(static_cast<double>(allocations) / matched,
            kMaxAllocationsPerMatchedPoint)
      << allocations << " allocations for " << route->points.size()
      << " matched points of " << trip.points.size();
}

// Candidate search runs once per GPS point. A warm Nearby() at the
// matcher's radius allocates nothing. The city map's index itself
// stays small.
TEST(SpatialIndexAllocationTest, WarmNearbyAllocatesNothing) {
  const synth::CityMap map = synth::GenerateCityMap().value();
  const roadnet::SpatialIndex index(&map.network);
  EXPECT_LT(index.ApproxMemoryBytes(), size_t{1} << 20);

  // Points along the edges, off to the side by up to 30 m.
  std::vector<geo::EnPoint> points;
  Rng rng(7);
  map.network.ForEachEdge([&](const roadnet::Edge& e) {
    const geo::EnPoint on =
        e.geometry.Interpolate(rng.Uniform(0.0, e.length_m));
    points.push_back(
        {on.x + rng.Uniform(-30.0, 30.0), on.y + rng.Uniform(-30.0, 30.0)});
  });
  std::vector<roadnet::EdgeCandidate> found;
  for (const geo::EnPoint& p : points) index.Nearby(p, 55.0, &found);
  int64_t hits = 0;
  const int64_t before = g_allocations.load(std::memory_order_relaxed);
  for (const geo::EnPoint& p : points) {
    index.Nearby(p, 55.0, &found);
    hits += static_cast<int64_t>(found.size());
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0);
  EXPECT_GT(hits, static_cast<int64_t>(points.size()));
}

}  // namespace
}  // namespace mapmatch
}  // namespace taxitrace
