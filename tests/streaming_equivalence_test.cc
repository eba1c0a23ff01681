// The streaming pipeline's contract: cleaning and matching each
// simulated shard on its worker and folding the finished trips in
// (car, day, trip) order (stream_simulation = true) produces
// StudyResults byte-identical to the in-memory path — the same trips
// reach the same per-trip stages, and every counter folds in the same
// order. Checked on fault-free and faulted studies at 0/1/2/8 workers;
// doubles compared exactly, plus the golden digest, which hashes the
// full downstream output.

#include <gtest/gtest.h>

#include "taxitrace/common/check.h"
#include "taxitrace/core/pipeline.h"
#include "taxitrace/core/reports.h"

namespace taxitrace {
namespace {

core::StudyResults RunStudy(int num_threads, bool streaming,
                            const fault::FaultPlan& faults = {},
                            bool observability = false) {
  core::StudyConfig config = core::StudyConfig::SmallStudy();
  config.num_threads = num_threads;
  config.stream_simulation = streaming;
  config.faults = faults;
  config.observability.enabled = observability;
  core::Pipeline pipeline(config);
  auto run = pipeline.Run();
  TT_CHECK_OK(run.status());
  return std::move(run).value();
}

const core::StudyResults& InMemoryReference() {
  static const core::StudyResults reference =
      RunStudy(0, /*streaming=*/false);
  return reference;
}

const std::string& InMemoryDigest() {
  static const std::string digest =
      core::StudyDigestJson(InMemoryReference());
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
  const core::StudyResults run = RunStudy(0, /*streaming=*/true);
  ExpectSameReports(InMemoryReference(), run);
  EXPECT_EQ(InMemoryDigest(), core::StudyDigestJson(run));
}

TEST(StreamingEquivalenceTest, OneWorkerStreamingMatchesInMemory) {
  const core::StudyResults run = RunStudy(1, /*streaming=*/true);
  ExpectSameReports(InMemoryReference(), run);
  EXPECT_EQ(InMemoryDigest(), core::StudyDigestJson(run));
}

TEST(StreamingEquivalenceTest, TwoWorkersStreamingMatchesInMemory) {
  const core::StudyResults run = RunStudy(2, /*streaming=*/true);
  ExpectSameReports(InMemoryReference(), run);
  EXPECT_EQ(InMemoryDigest(), core::StudyDigestJson(run));
}

TEST(StreamingEquivalenceTest, EightWorkersStreamingMatchesInMemory) {
  const core::StudyResults run = RunStudy(8, /*streaming=*/true);
  ExpectSameReports(InMemoryReference(), run);
  EXPECT_EQ(InMemoryDigest(), core::StudyDigestJson(run));
}

// A faulted study falls back to the in-memory path (file faults
// corrupt one CSV view of the whole store), so the flag must be a
// no-op there — same results at every worker count, not a silently
// different code path.
const core::StudyResults& FaultedReference() {
  static const core::StudyResults reference =
      RunStudy(0, /*streaming=*/false, fault::FaultPlan::Uniform(0.02));
  return reference;
}

TEST(StreamingEquivalenceTest, FaultedStudyStreamingFlagIsIdentity) {
  const core::StudyResults run =
      RunStudy(0, /*streaming=*/true, fault::FaultPlan::Uniform(0.02));
  ExpectSameReports(FaultedReference(), run);
  EXPECT_GT(run.cleaning_report.faults.TotalDropped(), 0);
  EXPECT_EQ(core::StudyDigestJson(FaultedReference()),
            core::StudyDigestJson(run));
}

TEST(StreamingEquivalenceTest, FaultedEightWorkersStreamingMatches) {
  const core::StudyResults run =
      RunStudy(8, /*streaming=*/true, fault::FaultPlan::Uniform(0.02));
  ExpectSameReports(FaultedReference(), run);
  EXPECT_EQ(core::StudyDigestJson(FaultedReference()),
            core::StudyDigestJson(run));
}

// Observability must agree too: the funnel ledger (including the new
// trips.simulated / points.simulated source stages) and every counter
// — clean.* included, which streaming publishes via the same helper —
// are deterministic data counts in both modes.
TEST(StreamingEquivalenceTest, FunnelAndCountersMatchInMemory) {
  const core::StudyResults in_memory =
      RunStudy(0, /*streaming=*/false, {}, /*observability=*/true);
  ASSERT_TRUE(in_memory.observability.enabled);
  EXPECT_NE(in_memory.observability.funnel.Find("points.simulated"),
            nullptr);
  for (const int workers : {2, 8}) {
    const core::StudyResults streamed =
        RunStudy(workers, /*streaming=*/true, {}, /*observability=*/true);
    ASSERT_TRUE(streamed.observability.enabled);
    EXPECT_EQ(in_memory.observability.funnel, streamed.observability.funnel)
        << workers << " workers";
    EXPECT_EQ(in_memory.observability.counters,
              streamed.observability.counters)
        << workers << " workers";
    const Status reconciles =
        streamed.observability.funnel.CheckReconciles();
    EXPECT_TRUE(reconciles.ok()) << reconciles.ToString();
  }
}

}  // namespace
}  // namespace taxitrace
