// Map-scale sweep: how the tiled graph storage behaves as the network
// grows from ~1k to >= 100k vertices — build time, resident bytes per
// vertex, tiles touched per routing query, and ShortestPath / Nearest
// throughput. The sweep drives the metro generator presets
// (synth/metro_map_generator.h).

#include <chrono>

#include "bench_util.h"
#include "taxitrace/roadnet/router.h"
#include "taxitrace/roadnet/spatial_index.h"
#include "taxitrace/synth/metro_map_generator.h"

namespace taxitrace {
namespace {

constexpr int kRouteQueries = 128;
constexpr int kNearestQueries = 2048;

double NowMs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
             .count() /
         1e6;
}

void RunPreset(int level) {
  const double t0 = NowMs();
  const synth::MetroMap map =
      synth::GenerateMetroMap(synth::MetroPreset(level)).value();
  const double build_ms = NowMs() - t0;

  const roadnet::RoadNetwork& net = map.network;
  const double bytes_per_vertex =
      static_cast<double>(net.ApproxMemoryBytes()) /
      static_cast<double>(net.num_vertices());

  // Routing leg: random OD pairs over the whole metro.
  const roadnet::Router router(&net);
  Rng rng(4242);
  const auto n = static_cast<int64_t>(net.num_vertices());
  int routed = 0;
  const double r0 = NowMs();
  for (int q = 0; q < kRouteQueries; ++q) {
    const roadnet::VertexId a =
        net.VertexIdAt(static_cast<size_t>(rng.UniformInt(0, n - 1)));
    const roadnet::VertexId b =
        net.VertexIdAt(static_cast<size_t>(rng.UniformInt(0, n - 1)));
    const Result<roadnet::Path> path = router.ShortestPath(a, b);
    routed += path.ok() ? 1 : 0;
  }
  const double route_us = (NowMs() - r0) * 1e3 / kRouteQueries;
  const roadnet::RouterStats rstats = router.stats();
  const double tiles_touched_per_route =
      static_cast<double>(rstats.tiles_touched) /
      static_cast<double>(std::max<int64_t>(1, rstats.searches));

  // Nearest leg: random points inside the metro bounding box.
  const roadnet::SpatialIndex index(&net);
  const geo::Bbox bounds = net.Bounds();
  int found = 0;
  // One untimed query first. It sizes this thread's per-edge seen
  // stamps, a one-off allocation whose cost depends on what the
  // allocator still holds: its first large request after the previous
  // preset's map and index were freed makes glibc consolidate all of
  // their small chunks, ~0.1 s that would otherwise be charged to the
  // 2,048 timed queries.
  (void)index.Nearest(geo::EnPoint{bounds.min_x, bounds.min_y}, 400.0);
  const double s0 = NowMs();
  for (int q = 0; q < kNearestQueries; ++q) {
    const geo::EnPoint p{rng.Uniform(bounds.min_x, bounds.max_x),
                         rng.Uniform(bounds.min_y, bounds.max_y)};
    found += index.Nearest(p, 400.0).has_value() ? 1 : 0;
  }
  const double nearest_us = (NowMs() - s0) * 1e3 / kNearestQueries;
  const roadnet::SpatialIndexStats sstats = index.stats();
  const double tiles_probed_per_nearby =
      static_cast<double>(sstats.tiles_probed) /
      static_cast<double>(std::max<int64_t>(1, sstats.queries));

  std::printf(
      "  preset %d: %7zu vertices %7zu edges %4zu tiles | build %8.1f ms "
      "%6.0f B/vertex | route %8.1f us (%4.1f tiles) | nearest %6.1f us "
      "(%3.1f tiles) | %d/%d routed, %d/%d found\n",
      level, net.num_vertices(), net.num_edges(), net.num_tiles(), build_ms,
      bytes_per_vertex, route_us, tiles_touched_per_route, nearest_us,
      tiles_probed_per_nearby, routed, kRouteQueries, found,
      kNearestQueries);
}

void PrintMapScaleSweep() {
  std::printf("MAP-SCALE SWEEP (tiled graph storage):\n");
  for (int level = 0; level <= 3; ++level) RunPreset(level);
}

// Google-benchmark legs over the two smallest presets (the big presets
// are covered by the sweep's one-shot timings above).
void BM_MetroShortestPath(benchmark::State& state) {
  const synth::MetroMap map =
      synth::GenerateMetroMap(synth::MetroPreset(static_cast<int>(state.range(0))))
          .value();
  const roadnet::Router router(&map.network);
  Rng rng(7);
  const auto n = static_cast<int64_t>(map.network.num_vertices());
  for (auto _ : state) {
    const roadnet::VertexId a = map.network.VertexIdAt(
        static_cast<size_t>(rng.UniformInt(0, n - 1)));
    const roadnet::VertexId b = map.network.VertexIdAt(
        static_cast<size_t>(rng.UniformInt(0, n - 1)));
    auto path = router.ShortestPath(a, b);
    benchmark::DoNotOptimize(path);
  }
  state.counters["tiles"] = static_cast<double>(map.network.num_tiles());
}
BENCHMARK(BM_MetroShortestPath)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_MetroNearest(benchmark::State& state) {
  const synth::MetroMap map =
      synth::GenerateMetroMap(synth::MetroPreset(static_cast<int>(state.range(0))))
          .value();
  const roadnet::SpatialIndex index(&map.network);
  const geo::Bbox bounds = map.network.Bounds();
  Rng rng(11);
  for (auto _ : state) {
    const geo::EnPoint p{rng.Uniform(bounds.min_x, bounds.max_x),
                         rng.Uniform(bounds.min_y, bounds.max_y)};
    auto hit = index.Nearest(p, 400.0);
    benchmark::DoNotOptimize(hit);
  }
}
BENCHMARK(BM_MetroNearest)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace taxitrace

TAXITRACE_BENCH_MAIN(taxitrace::PrintMapScaleSweep)
