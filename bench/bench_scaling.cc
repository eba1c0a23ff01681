// Performance scaling: how the pipeline's cost grows with study size,
// network extent and model size — the systems-side companion to the
// reproduction benches. End-to-end timings of record come from
// perfbench (`python3 perfbench/run.py`); this binary prints the small
// study's stage timings and runs the google-benchmark legs.

#include "bench_util.h"
#include "taxitrace/model/one_way_reml.h"
#include "taxitrace/roadnet/router.h"
#include "taxitrace/roadnet/spatial_index.h"

namespace taxitrace {
namespace {

void PrintStageTimings() {
  const core::StudyResults& r = benchutil::SmallResults();
  std::printf("PIPELINE STAGE TIMINGS (small study, %d workers):\n",
              r.timings.workers);
  std::printf("  map generation             %8.1f ms\n",
              r.timings.map_generation_ms);
  std::printf("  simulation + clean + match %8.1f ms\n",
              r.timings.simulation_ms);
  std::printf("  cleaning                   %8.1f ms\n", r.timings.cleaning_ms);
  std::printf("  selection + matching       %8.1f ms\n",
              r.timings.selection_matching_ms);
  std::printf("  grid + mixed model         %8.1f ms\n", r.timings.analysis_ms);
  std::printf("  total                      %8.1f ms for %lld raw points\n\n",
              r.timings.TotalMs(),
              static_cast<long long>(r.cleaning_report.raw_points));
}

// Sink for simulation-only benches: counts what streams past and keeps
// nothing, so the run's resident raw-trip state is exactly the
// simulator's reorder buffer.
struct CountingSink final : public trace::TripSink {
  int64_t trips = 0;
  int64_t points = 0;
  Status Consume(trace::Trip trip) override {
    ++trips;
    points += static_cast<int64_t>(trip.points.size());
    return Status::OK();
  }
};

void BM_PipelineByThreads(benchmark::State& state) {
  core::StudyConfig config = core::StudyConfig::SmallStudy();
  config.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    core::Pipeline pipeline(config);
    auto results = pipeline.Run();
    benchmark::DoNotOptimize(results);
  }
}
BENCHMARK(BM_PipelineByThreads)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_PipelineByDays(benchmark::State& state) {
  for (auto _ : state) {
    core::StudyConfig config = core::StudyConfig::SmallStudy();
    config.fleet.num_days = static_cast<int>(state.range(0));
    core::Pipeline pipeline(config);
    auto results = pipeline.Run();
    benchmark::DoNotOptimize(results);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PipelineByDays)
    ->Arg(7)
    ->Arg(14)
    ->Arg(28)
    ->Arg(56)
    ->Unit(benchmark::kMillisecond)
    ->Complexity(benchmark::oN);

void BM_DijkstraByNetworkExtent(benchmark::State& state) {
  synth::CityMapOptions options;
  options.extent_m = static_cast<double>(state.range(0));
  options.core_extent_m = options.extent_m * 0.8;
  const synth::CityMap map = synth::GenerateCityMap(options).value();
  const roadnet::Router router(&map.network);
  Rng rng(5);
  for (auto _ : state) {
    const auto a = static_cast<roadnet::VertexId>(rng.UniformInt(
        0, static_cast<int64_t>(map.network.num_vertices()) - 1));
    const auto b = static_cast<roadnet::VertexId>(rng.UniformInt(
        0, static_cast<int64_t>(map.network.num_vertices()) - 1));
    auto path = router.ShortestPath(a, b);
    benchmark::DoNotOptimize(path);
  }
  state.counters["edges"] =
      static_cast<double>(map.network.num_edges());
}
BENCHMARK(BM_DijkstraByNetworkExtent)
    ->Arg(600)
    ->Arg(1000)
    ->Arg(1600)
    ->Unit(benchmark::kMicrosecond);

void BM_RemlByObservations(benchmark::State& state) {
  Rng rng(7);
  model::OneWayReml reml;
  const int64_t n = state.range(0);
  for (int64_t i = 0; i < n; ++i) {
    reml.Add(static_cast<size_t>(i % 80), rng.Gaussian(20.0, 5.0));
  }
  for (auto _ : state) {
    auto fit = reml.Fit();
    benchmark::DoNotOptimize(fit);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RemlByObservations)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

// Simulation hot path in isolation: one fleet streamed through a
// counting sink per iteration, scaled by fleet size. This is the bench
// that moves when drive/observe scratch reuse, lazy route noise, or the
// bounded repositioning probe regress.
void BM_FleetSimulator(benchmark::State& state) {
  static const synth::CityMap map =
      synth::GenerateCityMap(synth::CityMapOptions{}).value();
  constexpr int kDays = 7;
  static const synth::WeatherModel weather(19121, kDays);
  synth::FleetOptions options;
  options.num_cars = static_cast<int>(state.range(0));
  options.num_days = kDays;
  const synth::FleetSimulator fleet(&map, &weather, options);
  int64_t points = 0;
  for (auto _ : state) {
    CountingSink sink;
    auto stats = fleet.Run(nullptr, &sink);
    benchmark::DoNotOptimize(stats);
    points = sink.points;
  }
  state.counters["points"] = static_cast<double>(points);
}
BENCHMARK(BM_FleetSimulator)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_SpatialIndexBuild(benchmark::State& state) {
  const core::StudyResults& r = benchutil::SmallResults();
  for (auto _ : state) {
    roadnet::SpatialIndex index(&r.map.network,
                                static_cast<double>(state.range(0)));
    benchmark::DoNotOptimize(index);
  }
}
BENCHMARK(BM_SpatialIndexBuild)
    ->Arg(25)
    ->Arg(50)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace taxitrace

TAXITRACE_BENCH_MAIN(taxitrace::PrintStageTimings)
