// Online ingestion bench: per-point release latency percentiles, peak
// buffer and window-flush throughput of the stream_ingestion path on
// the paper-scale study. perfbench's `study_ingest` and `study_batch`
// workloads give the online-vs-batch wall-clock comparison.

#include <vector>

#include "bench_util.h"
#include "taxitrace/core/pipeline.h"
#include "taxitrace/stream/ingest_session.h"
#include "taxitrace/stream/stream_source.h"
#include "taxitrace/synth/city_map_generator.h"
#include "taxitrace/synth/fleet_simulator.h"

namespace taxitrace {
namespace {

constexpr int64_t kLag = 64;
constexpr int64_t kShuffle = kLag / 2;  // The lossless bound.

void PrintStreaming() {
  // Online run: every point arrives up to kShuffle slots out of order
  // and the ingester repairs, cleans and matches per closed window.
  core::StudyConfig config = core::StudyConfig::FullStudy();
  config.stream_ingestion = true;
  config.ingest.reorder_lag = kLag;
  config.ingest.arrival_shuffle_window = kShuffle;
  const core::StudyResults online =
      benchutil::RunStudyOrExit(config, "streamed full study");
  const stream::IngestStats& s = online.ingest_stats;

  const int64_t p50 = stream::IngestLatencyQuantile(s, 0.50);
  const int64_t p90 = stream::IngestLatencyQuantile(s, 0.90);
  const int64_t p99 = stream::IngestLatencyQuantile(s, 0.99);
  const int64_t max = stream::IngestLatencyMax(s);
  const double ingest_ms = online.timings.stream_ingest_ms;
  const double points_per_ms =
      ingest_ms > 0.0 ? static_cast<double>(s.points_released) / ingest_ms
                      : 0.0;
  const double windows_per_s =
      ingest_ms > 0.0
          ? static_cast<double>(s.windows_closed) * 1000.0 / ingest_ms
          : 0.0;
  std::printf(
      "STREAMING INGESTION (%d cars x %d days, %d workers, lag %lld, "
      "shuffle %lld):\n"
      "  %lld points in %lld windows, ingest %.1f ms "
      "(%.0f points/ms, %.0f window flushes/s)\n"
      "  latency p50/p90/p99/max = %lld/%lld/%lld/%lld slots "
      "(p99 within lag: %s), peak buffer %lld\n\n",
      config.fleet.num_cars, config.fleet.num_days, online.timings.workers,
      static_cast<long long>(kLag), static_cast<long long>(kShuffle),
      static_cast<long long>(s.points_released),
      static_cast<long long>(s.windows_closed), ingest_ms, points_per_ms,
      windows_per_s, static_cast<long long>(p50),
      static_cast<long long>(p90), static_cast<long long>(p99),
      static_cast<long long>(max), p99 <= kLag ? "yes" : "NO",
      static_cast<long long>(s.peak_buffered_records));
}

// The raw session in isolation: one car's shuffled arrival stream
// ingested count-only (null sink), so the number is the reorder
// machinery itself — buffer churn, watermark advance, latency
// accounting — without cleaning or matching behind it.
void BM_IngestSessionByShuffle(benchmark::State& state) {
  static const std::vector<stream::CarStream>* streams = [] {
    const synth::CityMap map = synth::GenerateCityMap().value();
    const synth::WeatherModel weather(19121, 7);
    synth::FleetOptions options;
    options.num_cars = 1;
    options.num_days = 7;
    const synth::FleetSimulator fleet(&map, &weather, options);
    const synth::FleetResult result = fleet.Run().value();
    return new std::vector<stream::CarStream>(
        stream::BuildCarStreams(result.store));
  }();
  std::vector<stream::StreamRecord> records = (*streams)[0].records;
  stream::ShuffleArrivals(&records, /*seed=*/7, state.range(0));
  stream::IngestOptions options;
  options.reorder_lag = 2 * state.range(0) > 0 ? 2 * state.range(0) : kLag;
  int64_t released = 0;
  for (auto _ : state) {
    stream::IngestSession session((*streams)[0].car_id, options,
                                  /*sink=*/nullptr);
    for (const stream::StreamRecord& rec : records) {
      benchmark::DoNotOptimize(session.Ingest(rec));
    }
    benchmark::DoNotOptimize(session.FinishStream());
    released = session.stats().points_released;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(records.size()));
  state.counters["points_released"] = static_cast<double>(released);
}
BENCHMARK(BM_IngestSessionByShuffle)
    ->Arg(0)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);

// The full online path end to end, by worker count: the number that
// shows ingestion scaling like the batch stages it replaces.
void BM_StreamIngestStudyByThreads(benchmark::State& state) {
  core::StudyConfig config = core::StudyConfig::SmallStudy();
  config.stream_ingestion = true;
  config.ingest.reorder_lag = kLag;
  config.ingest.arrival_shuffle_window = kShuffle;
  config.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    core::Pipeline pipeline(config);
    auto results = pipeline.Run();
    benchmark::DoNotOptimize(results);
  }
}
BENCHMARK(BM_StreamIngestStudyByThreads)
    ->Arg(0)
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace taxitrace

TAXITRACE_BENCH_MAIN(taxitrace::PrintStreaming)
