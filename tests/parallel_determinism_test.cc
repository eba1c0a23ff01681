// The parallel pipeline's contract: StudyResults is byte-identical at
// any thread count, including the serial (0-thread) fallback. These
// tests run the small study serially once, then at several worker
// counts, and compare exact values — doubles included, since the
// ordered merges are required to reproduce the serial fold order.

#include <gtest/gtest.h>

#include <climits>
#include <optional>
#include <string>

#include "taxitrace/common/check.h"
#include "taxitrace/common/executor.h"
#include "taxitrace/core/pipeline.h"
#include "taxitrace/core/reports.h"
#include "taxitrace/serve/replay.h"
#include "taxitrace/serve/snapshot.h"

namespace taxitrace {
namespace {

core::StudyResults RunWithThreads(int num_threads,
                                  const fault::FaultPlan& faults = {},
                                  bool observability = false) {
  core::StudyConfig config = core::StudyConfig::SmallStudy();
  config.num_threads = num_threads;
  config.faults = faults;
  config.observability.enabled = observability;
  core::Pipeline pipeline(config);
  auto run = pipeline.Run();
  TT_CHECK_OK(run.status());
  return std::move(run).value();
}

const core::StudyResults& SerialReference() {
  static const core::StudyResults reference = RunWithThreads(0);
  return reference;
}

void ExpectIdenticalResults(const core::StudyResults& a,
                            const core::StudyResults& b) {
  // Simulation output.
  EXPECT_EQ(a.raw_trips, b.raw_trips);

  // Cleaning report, every counter.
  const clean::CleaningReport& ca = a.cleaning_report;
  const clean::CleaningReport& cb = b.cleaning_report;
  EXPECT_EQ(ca.raw_trips, cb.raw_trips);
  EXPECT_EQ(ca.raw_points, cb.raw_points);
  EXPECT_EQ(ca.order.trips_consistent, cb.order.trips_consistent);
  EXPECT_EQ(ca.order.trips_repaired_by_id, cb.order.trips_repaired_by_id);
  EXPECT_EQ(ca.order.trips_repaired_by_timestamp,
            cb.order.trips_repaired_by_timestamp);
  EXPECT_EQ(ca.outliers.duplicates_removed, cb.outliers.duplicates_removed);
  EXPECT_EQ(ca.outliers.spikes_removed, cb.outliers.spikes_removed);
  EXPECT_EQ(ca.outliers.implied_speed_removed,
            cb.outliers.implied_speed_removed);
  EXPECT_EQ(ca.interpolation.gaps_restored, cb.interpolation.gaps_restored);
  EXPECT_EQ(ca.interpolation.points_inserted,
            cb.interpolation.points_inserted);
  for (int r = 0; r < 5; ++r) {
    EXPECT_EQ(ca.segmentation.splits_by_rule[r],
              cb.segmentation.splits_by_rule[r]);
  }
  EXPECT_EQ(ca.segmentation.trips_in, cb.segmentation.trips_in);
  EXPECT_EQ(ca.segmentation.segments_out, cb.segmentation.segments_out);
  EXPECT_EQ(ca.filter.removed_too_few_points,
            cb.filter.removed_too_few_points);
  EXPECT_EQ(ca.filter.removed_too_long, cb.filter.removed_too_long);
  EXPECT_EQ(ca.filter.kept, cb.filter.kept);
  EXPECT_EQ(ca.clean_segments, cb.clean_segments);
  EXPECT_EQ(ca.clean_points, cb.clean_points);

  // Fault accounting (all counters; ToString prints every nonzero one).
  EXPECT_EQ(ca.faults.TotalInjected(), cb.faults.TotalInjected());
  EXPECT_EQ(ca.faults.TotalDropped(), cb.faults.TotalDropped());
  EXPECT_EQ(ca.faults.ToString(), cb.faults.ToString());

  // Table 3 funnel.
  ASSERT_EQ(a.table3.size(), b.table3.size());
  for (size_t i = 0; i < a.table3.size(); ++i) {
    EXPECT_EQ(a.table3[i].car_id, b.table3[i].car_id);
    EXPECT_EQ(a.table3[i].segments_total, b.table3[i].segments_total);
    EXPECT_EQ(a.table3[i].filtered_cleaned, b.table3[i].filtered_cleaned);
    EXPECT_EQ(a.table3[i].transitions_total, b.table3[i].transitions_total);
    EXPECT_EQ(a.table3[i].transitions_central,
              b.table3[i].transitions_central);
    EXPECT_EQ(a.table3[i].post_filtered, b.table3[i].post_filtered);
  }

  // Matched transitions: same population, same order, same records.
  ASSERT_EQ(a.transitions.size(), b.transitions.size());
  for (size_t i = 0; i < a.transitions.size(); ++i) {
    const core::MatchedTransition& ta = a.transitions[i];
    const core::MatchedTransition& tb = b.transitions[i];
    EXPECT_EQ(ta.record.trip_id, tb.record.trip_id);
    EXPECT_EQ(ta.record.car_id, tb.record.car_id);
    EXPECT_EQ(ta.record.direction, tb.record.direction);
    EXPECT_EQ(ta.record.start_time_s, tb.record.start_time_s);
    EXPECT_EQ(ta.record.route_time_h, tb.record.route_time_h);
    EXPECT_EQ(ta.record.route_distance_km, tb.record.route_distance_km);
    EXPECT_EQ(ta.record.low_speed_share, tb.record.low_speed_share);
    EXPECT_EQ(ta.record.normal_speed_share, tb.record.normal_speed_share);
    EXPECT_EQ(ta.record.fuel_ml, tb.record.fuel_ml);
    EXPECT_EQ(ta.route.length_m, tb.route.length_m);
    EXPECT_EQ(ta.route.steps.size(), tb.route.steps.size());
    EXPECT_EQ(ta.transition.segment.points.size(),
              tb.transition.segment.points.size());
  }

  // Grid joins.
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].cell, b.cells[i].cell);
    EXPECT_EQ(a.cells[i].num_points, b.cells[i].num_points);
    EXPECT_EQ(a.cells[i].mean_speed_kmh, b.cells[i].mean_speed_kmh);
    EXPECT_EQ(a.cells[i].speed_variance, b.cells[i].speed_variance);
  }
  EXPECT_EQ(a.cells_by_direction.size(), b.cells_by_direction.size());
  for (const auto& [direction, cells] : a.cells_by_direction) {
    const auto it = b.cells_by_direction.find(direction);
    ASSERT_NE(it, b.cells_by_direction.end()) << direction;
    EXPECT_EQ(cells.size(), it->second.size()) << direction;
  }

  // Mixed model: the REML fit folds observations in merged trip order,
  // so even its doubles must agree exactly.
  EXPECT_EQ(a.cell_model.mu, b.cell_model.mu);
  EXPECT_EQ(a.cell_model.lambda, b.cell_model.lambda);
  EXPECT_EQ(a.cell_model.sigma2_group, b.cell_model.sigma2_group);
  EXPECT_EQ(a.cell_model.sigma2_residual, b.cell_model.sigma2_residual);
  EXPECT_EQ(a.cell_model.num_observations, b.cell_model.num_observations);
  EXPECT_EQ(a.cell_model.blup, b.cell_model.blup);
  ASSERT_EQ(a.model_cells.size(), b.model_cells.size());
  for (size_t i = 0; i < a.model_cells.size(); ++i) {
    EXPECT_EQ(a.model_cells[i], b.model_cells[i]);
  }
  EXPECT_EQ(a.geography_lrt.statistic, b.geography_lrt.statistic);
  EXPECT_EQ(a.geography_lrt.p_value, b.geography_lrt.p_value);

  // Match report, including its order-dependent running mean.
  EXPECT_EQ(a.match_report.routes, b.match_report.routes);
  EXPECT_EQ(a.match_report.matched_points, b.match_report.matched_points);
  EXPECT_EQ(a.match_report.skipped_points, b.match_report.skipped_points);
  EXPECT_EQ(a.match_report.gaps_filled, b.match_report.gaps_filled);
  EXPECT_EQ(a.match_report.mean_snap_distance_m,
            b.match_report.mean_snap_distance_m);
  EXPECT_EQ(a.match_report.max_snap_distance_m,
            b.match_report.max_snap_distance_m);
  EXPECT_EQ(a.match_report.total_length_km, b.match_report.total_length_km);

  // Point-speed aggregates.
  EXPECT_EQ(a.total_point_speeds, b.total_point_speeds);
  EXPECT_EQ(a.overall_mean_speed_kmh, b.overall_mean_speed_kmh);
  for (int s = 0; s < analysis::kNumSeasons; ++s) {
    EXPECT_EQ(a.seasonal[s].n, b.seasonal[s].n);
    EXPECT_EQ(a.seasonal[s].mean_kmh, b.seasonal[s].mean_kmh);
    EXPECT_EQ(a.seasonal[s].delta_kmh, b.seasonal[s].delta_kmh);
  }
}

TEST(ParallelDeterminismTest, OneWorkerMatchesSerial) {
  ExpectIdenticalResults(SerialReference(), RunWithThreads(1));
}

TEST(ParallelDeterminismTest, TwoWorkersMatchSerial) {
  ExpectIdenticalResults(SerialReference(), RunWithThreads(2));
}

TEST(ParallelDeterminismTest, EightWorkersMatchSerial) {
  ExpectIdenticalResults(SerialReference(), RunWithThreads(8));
}

// The same contract holds with fault injection on: the injector draws
// from per-trip / per-row MixSeed streams, so the corrupted input — and
// everything downstream of it — is a pure function of the plan.
const core::StudyResults& FaultedSerialReference() {
  static const core::StudyResults reference =
      RunWithThreads(0, fault::FaultPlan::Uniform(0.02));
  return reference;
}

TEST(ParallelDeterminismTest, FaultedStudyInjectsAndDrops) {
  const fault::FaultReport& faults =
      FaultedSerialReference().cleaning_report.faults;
  EXPECT_GT(faults.TotalInjected(), 0);
  EXPECT_GT(faults.TotalDropped(), 0);
}

TEST(ParallelDeterminismTest, FaultedOneWorkerMatchesSerial) {
  ExpectIdenticalResults(FaultedSerialReference(),
                         RunWithThreads(1, fault::FaultPlan::Uniform(0.02)));
}

TEST(ParallelDeterminismTest, FaultedTwoWorkersMatchSerial) {
  ExpectIdenticalResults(FaultedSerialReference(),
                         RunWithThreads(2, fault::FaultPlan::Uniform(0.02)));
}

TEST(ParallelDeterminismTest, FaultedEightWorkersMatchSerial) {
  ExpectIdenticalResults(FaultedSerialReference(),
                         RunWithThreads(8, fault::FaultPlan::Uniform(0.02)));
}

// Observability legs. Two contracts at once: collecting metrics must
// not perturb StudyResults (a metrics-on run equals the metrics-off
// serial reference, field for field), and the deterministic half of the
// snapshot — the funnel ledger and the counters — must be identical at
// any worker count. Gauges and spans are run-dependent by design and
// are deliberately not compared.
const core::StudyResults& ObservedSerialReference() {
  static const core::StudyResults reference =
      RunWithThreads(0, {}, /*observability=*/true);
  return reference;
}

void ExpectIdenticalObservability(const core::StudyResults& a,
                                  const core::StudyResults& b) {
  ASSERT_TRUE(a.observability.enabled);
  ASSERT_TRUE(b.observability.enabled);
  EXPECT_EQ(a.observability.funnel, b.observability.funnel);
  EXPECT_EQ(a.observability.counters, b.observability.counters);
}

TEST(ParallelDeterminismTest, MetricsOffRunHasEmptySnapshot) {
  const core::StudyResults& r = SerialReference();
  EXPECT_FALSE(r.observability.enabled);
  EXPECT_TRUE(r.observability.funnel.empty());
  EXPECT_TRUE(r.observability.counters.empty());
  EXPECT_TRUE(r.observability.spans.empty());
}

TEST(ParallelDeterminismTest, MetricsDoNotPerturbSerialResults) {
  ExpectIdenticalResults(SerialReference(), ObservedSerialReference());
  const Status reconciles =
      ObservedSerialReference().observability.funnel.CheckReconciles();
  EXPECT_TRUE(reconciles.ok()) << reconciles.ToString();
}

TEST(ParallelDeterminismTest, MetricsOnOneWorkerMatchesSerial) {
  const core::StudyResults run = RunWithThreads(1, {}, true);
  ExpectIdenticalResults(SerialReference(), run);
  ExpectIdenticalObservability(ObservedSerialReference(), run);
}

TEST(ParallelDeterminismTest, MetricsOnTwoWorkersMatchSerial) {
  const core::StudyResults run = RunWithThreads(2, {}, true);
  ExpectIdenticalResults(SerialReference(), run);
  ExpectIdenticalObservability(ObservedSerialReference(), run);
}

TEST(ParallelDeterminismTest, MetricsOnEightWorkersMatchSerial) {
  const core::StudyResults run = RunWithThreads(8, {}, true);
  ExpectIdenticalResults(SerialReference(), run);
  ExpectIdenticalObservability(ObservedSerialReference(), run);
}

// Shard legs: a study never builds the raw trace store. Each
// simulation worker cleans and matches its own shards and a reorder
// buffer folds them in (car, day, trip) order, so the results, the
// funnel and every counter equal the serial reference at any worker
// count. Every study publishes the buffer's high-water mark (the
// faulted legs below check it too); the mark depends on scheduling and
// is published as a gauge, never a counter.
TEST(ParallelDeterminismTest, StreamedMetricsOnMatchBatchAtAnyWorkerCount) {
  for (const int workers : {0, 1, 2, 8}) {
    core::StudyConfig config = core::StudyConfig::SmallStudy();
    config.num_threads = workers;
    config.observability.enabled = true;
    auto run = core::Pipeline(config).Run();
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ExpectIdenticalResults(SerialReference(), *run);
    ExpectIdenticalObservability(ObservedSerialReference(), *run);

    double peak = -1.0;
    for (const obs::GaugeSample& g : run->observability.gauges) {
      if (g.name == "synth.peak_buffered_shards") peak = g.value;
    }
    EXPECT_GE(peak, 1.0) << workers << " workers";
    if (workers == 0) {
      EXPECT_EQ(peak, 1.0);
    }
  }
}

// Online-ingest legs: a fault-free ingest study takes the shard source
// too, with one day buffer per car in front of the car's session, so
// it publishes the largest of those buffers' high-water marks (1 on a
// serial run) and never builds the store. Within the lossless bound
// its results equal the serial batch reference, and its funnel and
// counters (the ingest rows and stream.* included) are the same at any
// worker count.
TEST(ParallelDeterminismTest, IngestPublishesShardBufferAtAnyWorkerCount) {
  std::optional<core::StudyResults> serial;
  for (const int workers : {0, 1, 2, 8}) {
    core::StudyConfig config = core::StudyConfig::SmallStudy();
    config.num_threads = workers;
    config.stream_ingestion = true;
    config.ingest.reorder_lag = 64;
    config.ingest.arrival_shuffle_window = 32;
    config.observability.enabled = true;
    auto run = core::Pipeline(config).Run();
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ExpectIdenticalResults(SerialReference(), *run);
    if (serial.has_value()) {
      ExpectIdenticalObservability(*serial, *run);
    }

    double peak = -1.0;
    for (const obs::GaugeSample& g : run->observability.gauges) {
      if (g.name == "synth.peak_buffered_shards") peak = g.value;
    }
    EXPECT_GE(peak, 1.0) << workers << " workers";
    if (workers == 0) {
      EXPECT_EQ(peak, 1.0);
      serial.emplace(std::move(run).value());
    }
  }
}

// With fault injection on, the funnel gains the per-shard duplicate
// drop (`trips.store_rebuild`) and, with file faults, the CSV parse
// stages — and still reconciles exactly, in == out + dropped, at every
// stage, batch and online ingest alike. Faults are a transform of each
// shard, so a faulted study takes the shard sources too and publishes
// their buffer's high-water mark (1 on a serial run).
TEST(ParallelDeterminismTest, FaultedFunnelReconcilesAcrossWorkers) {
  const auto peak_buffered_shards = [](const core::StudyResults& run) {
    double peak = -1.0;
    for (const obs::GaugeSample& g : run.observability.gauges) {
      if (g.name == "synth.peak_buffered_shards") peak = g.value;
    }
    return peak;
  };
  const auto expect_reconciles = [](const core::StudyResults& run) {
    const Status reconciles = run.observability.funnel.CheckReconciles();
    EXPECT_TRUE(reconciles.ok()) << reconciles.ToString();
    EXPECT_NE(run.observability.funnel.Find("trips.store_rebuild"),
              nullptr);
    EXPECT_NE(run.observability.funnel.Find("rows.csv_lenient_parse"),
              nullptr);
  };
  const core::StudyResults serial =
      RunWithThreads(0, fault::FaultPlan::Uniform(0.02), true);
  ExpectIdenticalResults(FaultedSerialReference(), serial);
  expect_reconciles(serial);
  EXPECT_EQ(peak_buffered_shards(serial), 1.0);

  const core::StudyResults parallel =
      RunWithThreads(8, fault::FaultPlan::Uniform(0.02), true);
  ExpectIdenticalResults(FaultedSerialReference(), parallel);
  ExpectIdenticalObservability(serial, parallel);
  EXPECT_GE(peak_buffered_shards(parallel), 1.0);

  // Online ingest (lossless: lag 64, shuffle 32) of the same corrupted
  // shards: the batch results, and one funnel at 0 and 8 workers.
  std::optional<core::StudyResults> serial_ingest;
  for (const int workers : {0, 8}) {
    SCOPED_TRACE(testing::Message() << "ingest, " << workers << " workers");
    core::StudyConfig config = core::StudyConfig::SmallStudy();
    config.num_threads = workers;
    config.faults = fault::FaultPlan::Uniform(0.02);
    config.stream_ingestion = true;
    config.ingest.reorder_lag = 64;
    config.ingest.arrival_shuffle_window = 32;
    config.observability.enabled = true;
    auto run = core::Pipeline(config).Run();
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ExpectIdenticalResults(FaultedSerialReference(), *run);
    expect_reconciles(*run);
    EXPECT_NE(run->observability.funnel.Find("points.ingested"), nullptr);
    if (workers == 0) {
      EXPECT_EQ(peak_buffered_shards(*run), 1.0);
      serial_ingest.emplace(std::move(run).value());
    } else {
      EXPECT_GE(peak_buffered_shards(*run), 1.0);
      ExpectIdenticalObservability(*serial_ingest, *run);
    }
  }
}

// Route-cache legs. The gap-fill memo only skips repeat searches, so a
// cache-off run (capacity 0) must reproduce the cache-on results
// exactly — field for field and down to the golden digest — at every
// worker count. (The cache-on legs are the default-config tests above.)
core::StudyResults RunWithCacheOff(int num_threads) {
  core::StudyConfig config = core::StudyConfig::SmallStudy();
  config.num_threads = num_threads;
  config.matcher.gap.route_cache_capacity = 0;
  core::Pipeline pipeline(config);
  auto run = pipeline.Run();
  TT_CHECK_OK(run.status());
  return std::move(run).value();
}

TEST(ParallelDeterminismTest, CacheOffSerialMatchesSerial) {
  const core::StudyResults run = RunWithCacheOff(0);
  ExpectIdenticalResults(SerialReference(), run);
  EXPECT_EQ(core::StudyDigestJson(SerialReference()),
            core::StudyDigestJson(run));
}

TEST(ParallelDeterminismTest, CacheOffOneWorkerMatchesSerial) {
  ExpectIdenticalResults(SerialReference(), RunWithCacheOff(1));
}

TEST(ParallelDeterminismTest, CacheOffTwoWorkersMatchSerial) {
  ExpectIdenticalResults(SerialReference(), RunWithCacheOff(2));
}

TEST(ParallelDeterminismTest, CacheOffEightWorkersMatchSerial) {
  const core::StudyResults run = RunWithCacheOff(8);
  ExpectIdenticalResults(SerialReference(), run);
  EXPECT_EQ(core::StudyDigestJson(SerialReference()),
            core::StudyDigestJson(run));
}

// The router's work counters are sums of per-search deterministic work
// (goal-directed or not is decided by the search arguments alone), and
// the route-cache tallies fold per trip in cleaned order, so the whole
// counter snapshot — including the Dijkstra-vs-A* mix — is identical at
// any worker count.
TEST(ParallelDeterminismTest, RouterCountersDeterministicAcrossWorkers) {
  const std::vector<obs::CounterSample>& counters =
      ObservedSerialReference().observability.counters;
  for (const char* name :
       {"roadnet.router.searches", "roadnet.router.direct_connections",
        "roadnet.router.heap_pops",
        "roadnet.router.settled_vertices",
        "roadnet.router.goal_directed_searches",
        "mapmatch.route_cache.hits", "mapmatch.route_cache.misses",
        "mapmatch.route_cache.evictions"}) {
    bool found = false;
    for (const obs::CounterSample& c : counters) found |= c.name == name;
    EXPECT_TRUE(found) << "missing counter " << name;
  }
  const core::StudyResults run = RunWithThreads(8, {}, true);
  EXPECT_EQ(counters, run.observability.counters);
}

// Serve-layer legs. The snapshot builder shards the matched points over
// a fixed shard count and folds the shards in shard order, so the
// serialized snapshot — one flat byte string — must be byte-identical
// at every worker count. The replay harness makes the same promise for
// its funnel tallies and result digest: queries live in fixed shards,
// every random choice is counter-derived, and per-shard engine stats
// fold in shard order.
std::string SnapshotBytesWithThreads(int num_threads) {
  const Executor executor(num_threads);
  auto bytes = serve::SnapshotBuilder().Build(SerialReference(), &executor);
  TT_CHECK_OK(bytes.status());
  return std::move(bytes).value();
}

TEST(ParallelDeterminismTest, SnapshotBytesIdenticalAcrossWorkers) {
  const std::string serial = SnapshotBytesWithThreads(0);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, SnapshotBytesWithThreads(1));
  EXPECT_EQ(serial, SnapshotBytesWithThreads(2));
  EXPECT_EQ(serial, SnapshotBytesWithThreads(8));
}

TEST(ParallelDeterminismTest, ReplayStatsAndDigestIdenticalAcrossWorkers) {
  auto snapshot = serve::Snapshot::FromBytes(SnapshotBytesWithThreads(0));
  TT_CHECK_OK(snapshot.status());
  serve::WorkloadOptions options;
  options.num_queries = 20000;
  auto replay_with = [&](int num_threads) {
    const Executor executor(num_threads);
    auto replayed = serve::ReplayWorkload(*snapshot, options, &executor);
    TT_CHECK_OK(replayed.status());
    return std::move(replayed).value();
  };
  const serve::ReplayResult serial = replay_with(0);
  EXPECT_EQ(serial.stats.offered, options.num_queries);
  for (const int num_threads : {1, 2, 8}) {
    const serve::ReplayResult run = replay_with(num_threads);
    EXPECT_EQ(run.stats, serial.stats) << num_threads << " workers";
    EXPECT_EQ(run.digest, serial.digest) << num_threads << " workers";
  }
}

// A worker count above the executor's pool cap is a configuration
// error, reported before any work; no pool is built, so no thread
// starts.
TEST(ParallelDeterminismTest, WorkerCountAboveCapIsInvalidArgument) {
  for (const int threads : {kMaxExecutorWorkers + 1, INT_MAX}) {
    core::StudyConfig config = core::StudyConfig::SmallStudy();
    config.num_threads = threads;
    const auto run = core::Pipeline(config).Run();
    ASSERT_FALSE(run.ok()) << threads;
    EXPECT_TRUE(run.status().IsInvalidArgument()) << run.status().ToString();
  }
}

TEST(ParallelDeterminismTest, ThreadCountsAreRecorded) {
  EXPECT_EQ(RunWithThreads(1).timings.workers, 1);
  EXPECT_EQ(RunWithThreads(2).timings.workers, 2);
  EXPECT_EQ(RunWithThreads(8).timings.workers, 8);
  EXPECT_EQ(SerialReference().timings.workers, 0);
}

}  // namespace
}  // namespace taxitrace
