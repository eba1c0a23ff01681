// Ablation: the incremental matcher with map-direction info and
// Dijkstra gap filling vs the nearest-edge baseline, on simulated drives
// with known ground truth.

#include "bench_util.h"
#include "taxitrace/clean/order_repair.h"
#include "taxitrace/clean/outlier_filter.h"
#include "taxitrace/mapmatch/incremental_matcher.h"
#include "taxitrace/mapmatch/match_quality.h"
#include "taxitrace/mapmatch/nearest_edge_matcher.h"
#include "taxitrace/roadnet/router.h"
#include "taxitrace/synth/city_map_generator.h"
#include "taxitrace/synth/driver_model.h"
#include "taxitrace/synth/sensor_model.h"

namespace taxitrace {
namespace {

struct Case {
  trace::Trip trip;
  roadnet::Path truth;
};

struct World {
  synth::CityMap map;
  std::vector<Case> cases;
};

const World& TestWorld() {
  static const World* world = [] {
    auto* w = new World{synth::GenerateCityMap().value(), {}};
    const synth::WeatherModel weather(3, 30);
    const synth::DriverModel driver(&w->map, &weather);
    const roadnet::Router router(&w->map.network);
    const synth::SensorModel sensor;  // default defects on
    Rng rng(7);
    while (w->cases.size() < 60) {
      const auto a = static_cast<roadnet::VertexId>(rng.UniformInt(
          0, static_cast<int64_t>(w->map.network.num_vertices()) - 1));
      const auto b = static_cast<roadnet::VertexId>(rng.UniformInt(
          0, static_cast<int64_t>(w->map.network.num_vertices()) - 1));
      auto path = router.ShortestPath(a, b);
      if (!path.ok() || path->length_m < 1000.0) continue;
      const auto samples = driver.Drive(*path, 7200.0, 1.0, &rng);
      Case c;
      c.truth = std::move(*path);
      int64_t next_id = 1;
      c.trip.points = sensor.Observe(samples, 1, &next_id,
                                     w->map.network.projection(), &rng);
      // The paper's pipeline repairs ordering and removes obvious
      // errors before matching; do the same here.
      clean::RepairPointOrder(&c.trip.points);
      clean::FilterOutliers(&c.trip.points);
      if (c.trip.points.size() < 5) continue;
      w->cases.push_back(std::move(c));
    }
    return w;
  }();
  return *world;
}

void PrintAblation() {
  const World& world = TestWorld();
  const roadnet::SpatialIndex index(&world.map.network);
  const mapmatch::IncrementalMatcher incremental(&world.map.network,
                                                 &index);
  const mapmatch::NearestEdgeMatcher baseline(&world.map.network, &index);

  double jaccard[2] = {}, deviation[2] = {}, len_err[2] = {};
  int n = 0;
  for (const Case& c : world.cases) {
    const auto inc = incremental.Match(c.trip);
    const auto base = baseline.Match(c.trip);
    if (!inc.ok() || !base.ok()) continue;
    std::vector<roadnet::EdgeId> truth_edges;
    for (const roadnet::PathStep& s : c.truth.steps) {
      truth_edges.push_back(s.edge);
    }
    const mapmatch::MatchedRoute* routes[2] = {&*inc, &*base};
    for (int m = 0; m < 2; ++m) {
      jaccard[m] +=
          mapmatch::EdgeJaccard(routes[m]->DistinctEdges(), truth_edges);
      deviation[m] += mapmatch::MeanGeometryDeviation(routes[m]->geometry,
                                                      c.truth.geometry);
      len_err[m] += mapmatch::RouteLengthError(routes[m]->length_m,
                                               c.truth.length_m);
    }
    ++n;
  }
  std::printf(
      "ABLATION: incremental matcher (Section IV-E) vs nearest-edge "
      "baseline, %d simulated drives\n",
      n);
  std::printf("  metric                 incremental   nearest-edge\n");
  std::printf("  edge Jaccard              %8.3f      %8.3f\n",
              jaccard[0] / n, jaccard[1] / n);
  std::printf("  mean deviation (m)        %8.1f      %8.1f\n",
              deviation[0] / n, deviation[1] / n);
  std::printf("  route length error        %8.3f      %8.3f\n",
              len_err[0] / n, len_err[1] / n);
  std::printf(
      "Check: the connectivity-aware matcher dominates the baseline on "
      "edge recovery -> %s\n\n",
      jaccard[0] > jaccard[1] ? "HOLDS" : "VIOLATED");
}

void BM_IncrementalMatch(benchmark::State& state) {
  const World& world = TestWorld();
  const roadnet::SpatialIndex index(&world.map.network);
  const mapmatch::IncrementalMatcher matcher(&world.map.network, &index);
  size_t idx = 0;
  for (auto _ : state) {
    auto matched = matcher.Match(world.cases[idx % world.cases.size()].trip);
    benchmark::DoNotOptimize(matched);
    ++idx;
  }
}
BENCHMARK(BM_IncrementalMatch)->Unit(benchmark::kMillisecond);

void BM_NearestEdgeMatch(benchmark::State& state) {
  const World& world = TestWorld();
  const roadnet::SpatialIndex index(&world.map.network);
  const mapmatch::NearestEdgeMatcher matcher(&world.map.network, &index);
  size_t idx = 0;
  for (auto _ : state) {
    auto matched = matcher.Match(world.cases[idx % world.cases.size()].trip);
    benchmark::DoNotOptimize(matched);
    ++idx;
  }
}
BENCHMARK(BM_NearestEdgeMatch)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace taxitrace

TAXITRACE_BENCH_MAIN(taxitrace::PrintAblation)
