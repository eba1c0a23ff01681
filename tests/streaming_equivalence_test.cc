// The batch shard path's contract: a study without a fault plan or
// online ingestion cleans and matches each simulated shard on its
// worker and folds the finished trips in (car, day, trip) order, never
// building the raw trace store, and produces StudyResults
// byte-identical to a store-order run. The reference is online
// ingestion in canonical arrival order (arrival_shuffle_window = 0),
// which loses nothing (IngestEquivalenceTest.CanonicalOrderHasZeroLatency).
// It is shard-sourced too, but through other code: per-car day buffers
// feed each car's session, the fused unit runs per released window and
// the transitions fold car by car. That each session sees its car's
// trips in store order is held by
// IngestEquivalenceTest.ShardFedIngestMatchesStoreReplay, which
// compares its windows with a replay of FleetSimulator::Run's store.
// Faulted studies build the store and clean it in store order; they are
// held to a faulted canonical-ingest run, which replays that store.
// Checked at 0/1/2/8 workers on what both runs produce: the golden
// digest, which hashes the full downstream output, the cleaning report
// and the funnel stages and counters they share; doubles compared
// exactly.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "taxitrace/common/check.h"
#include "taxitrace/core/pipeline.h"
#include "taxitrace/core/reports.h"

namespace taxitrace {
namespace {

// `store_order` runs online ingestion with no arrival shuffle: each
// car's trips in store order, one window per trip, nothing buffered or
// lost. Otherwise the study takes its default source.
core::StudyResults RunStudy(int num_threads, bool store_order,
                            const fault::FaultPlan& faults = {},
                            bool observability = false) {
  core::StudyConfig config = core::StudyConfig::SmallStudy();
  config.num_threads = num_threads;
  config.stream_ingestion = store_order;
  config.ingest.reorder_lag = 64;
  config.ingest.arrival_shuffle_window = 0;
  config.faults = faults;
  config.observability.enabled = observability;
  core::Pipeline pipeline(config);
  auto run = pipeline.Run();
  TT_CHECK_OK(run.status());
  return std::move(run).value();
}

const core::StudyResults& StoreOrderReference() {
  static const core::StudyResults reference =
      RunStudy(0, /*store_order=*/true);
  return reference;
}

const std::string& StoreOrderDigest() {
  static const std::string digest =
      core::StudyDigestJson(StoreOrderReference());
  return digest;
}

// Field-level comparison of everything the digest does not cover:
// the cleaning report (all counters), the simulation totals, and the
// funnel rows. The digest handles transitions, cells, and the model.
void ExpectSameReports(const core::StudyResults& a,
                       const core::StudyResults& b) {
  EXPECT_EQ(a.raw_trips, b.raw_trips);
  const clean::CleaningReport& ca = a.cleaning_report;
  const clean::CleaningReport& cb = b.cleaning_report;
  EXPECT_EQ(ca.raw_trips, cb.raw_trips);
  EXPECT_EQ(ca.raw_points, cb.raw_points);
  EXPECT_EQ(ca.points_after_sanitize, cb.points_after_sanitize);
  EXPECT_EQ(ca.points_after_outliers, cb.points_after_outliers);
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
  EXPECT_EQ(ca.faults.ToString(), cb.faults.ToString());

  ASSERT_EQ(a.table3.size(), b.table3.size());
  for (size_t i = 0; i < a.table3.size(); ++i) {
    EXPECT_EQ(a.table3[i].segments_total, b.table3[i].segments_total);
    EXPECT_EQ(a.table3[i].post_filtered, b.table3[i].post_filtered);
  }
  EXPECT_EQ(a.transitions.size(), b.transitions.size());
  EXPECT_EQ(a.total_point_speeds, b.total_point_speeds);
  EXPECT_EQ(a.overall_mean_speed_kmh, b.overall_mean_speed_kmh);
  EXPECT_EQ(a.match_report.routes, b.match_report.routes);
  EXPECT_EQ(a.match_report.mean_snap_distance_m,
            b.match_report.mean_snap_distance_m);
}

TEST(StreamingEquivalenceTest, SerialStreamingMatchesInMemory) {
  const core::StudyResults run = RunStudy(0, /*store_order=*/false);
  ExpectSameReports(StoreOrderReference(), run);
  EXPECT_EQ(StoreOrderDigest(), core::StudyDigestJson(run));
}

TEST(StreamingEquivalenceTest, OneWorkerStreamingMatchesInMemory) {
  const core::StudyResults run = RunStudy(1, /*store_order=*/false);
  ExpectSameReports(StoreOrderReference(), run);
  EXPECT_EQ(StoreOrderDigest(), core::StudyDigestJson(run));
}

TEST(StreamingEquivalenceTest, TwoWorkersStreamingMatchesInMemory) {
  const core::StudyResults run = RunStudy(2, /*store_order=*/false);
  ExpectSameReports(StoreOrderReference(), run);
  EXPECT_EQ(StoreOrderDigest(), core::StudyDigestJson(run));
}

TEST(StreamingEquivalenceTest, EightWorkersStreamingMatchesInMemory) {
  const core::StudyResults run = RunStudy(8, /*store_order=*/false);
  ExpectSameReports(StoreOrderReference(), run);
  EXPECT_EQ(StoreOrderDigest(), core::StudyDigestJson(run));
}

// A faulted study builds the store and runs the fused unit per store
// trip, moving each trip out of it; a faulted canonical-ingest run
// replays the same corrupted store window by window. Both must fold to
// the same results at any worker count.
const core::StudyResults& FaultedReference() {
  static const core::StudyResults reference =
      RunStudy(0, /*store_order=*/true, fault::FaultPlan::Uniform(0.02));
  return reference;
}

TEST(StreamingEquivalenceTest, FaultedSerialMatchesCanonicalIngest) {
  const core::StudyResults run =
      RunStudy(0, /*store_order=*/false, fault::FaultPlan::Uniform(0.02));
  ExpectSameReports(FaultedReference(), run);
  EXPECT_GT(run.cleaning_report.faults.TotalDropped(), 0);
  EXPECT_EQ(core::StudyDigestJson(FaultedReference()),
            core::StudyDigestJson(run));
}

TEST(StreamingEquivalenceTest, FaultedEightWorkersMatchCanonicalIngest) {
  const core::StudyResults run =
      RunStudy(8, /*store_order=*/false, fault::FaultPlan::Uniform(0.02));
  ExpectSameReports(FaultedReference(), run);
  EXPECT_EQ(core::StudyDigestJson(FaultedReference()),
            core::StudyDigestJson(run));
}

// Observability must agree on what both runs publish: every funnel
// stage of the shard run (the trips.simulated / points.simulated source
// stages included) and every counter — clean.* included, which both
// publish via the same helper — are deterministic data counts. The
// reference has only the ingestion stages and stream.* counters on top.
TEST(StreamingEquivalenceTest, FunnelAndCountersMatchInMemory) {
  const core::StudyResults store_order =
      RunStudy(0, /*store_order=*/true, {}, /*observability=*/true);
  ASSERT_TRUE(store_order.observability.enabled);
  std::vector<obs::FunnelStage> shared_stages;
  for (const obs::FunnelStage& stage :
       store_order.observability.funnel.stages()) {
    if (stage.name != "points.ingested" && stage.name != "windows.closed" &&
        stage.name != "segments.emitted_online") {
      shared_stages.push_back(stage);
    }
  }
  EXPECT_LT(shared_stages.size(),
            store_order.observability.funnel.stages().size());
  std::vector<obs::CounterSample> shared_counters;
  for (const obs::CounterSample& c : store_order.observability.counters) {
    if (!c.name.starts_with("stream.")) shared_counters.push_back(c);
  }
  for (const int workers : {2, 8}) {
    const core::StudyResults streamed =
        RunStudy(workers, /*store_order=*/false, {},
                 /*observability=*/true);
    ASSERT_TRUE(streamed.observability.enabled);
    EXPECT_NE(streamed.observability.funnel.Find("points.simulated"),
              nullptr);
    EXPECT_EQ(shared_stages, streamed.observability.funnel.stages())
        << workers << " workers";
    EXPECT_EQ(shared_counters, streamed.observability.counters)
        << workers << " workers";
    const Status reconciles =
        streamed.observability.funnel.CheckReconciles();
    EXPECT_TRUE(reconciles.ok()) << reconciles.ToString();
  }
}

}  // namespace
}  // namespace taxitrace
