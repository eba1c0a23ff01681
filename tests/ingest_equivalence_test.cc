// The online-ingestion contract (stream_ingestion = true): replaying
// each car's raw trace as a reorder-perturbed arrival stream, undoing
// the reordering under a bounded watermark lag, and cleaning + matching
// each window as it closes produces StudyResults byte-identical to the
// batch pipeline — whenever every arrival displacement fits the
// lossless bound (reorder_lag / 2). Checked on fault-free and faulted
// studies at 0/1/2/8 workers via field compare plus the golden digest,
// and the funnel must reconcile the new stages exactly. Direct
// IngestSession tests pin the watermark/buffer invariants, empty
// windows, implicit opens, and late/duplicate drop accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "taxitrace/common/check.h"
#include "taxitrace/core/pipeline.h"
#include "taxitrace/core/reports.h"
#include "taxitrace/obs/funnel.h"
#include "taxitrace/stream/ingest_session.h"
#include "taxitrace/stream/stream_source.h"
#include "taxitrace/trace/trip_sink.h"

namespace taxitrace {
namespace {

constexpr int64_t kLag = 64;

core::StudyResults RunStudy(int num_threads, bool stream_ingest,
                            const fault::FaultPlan& faults = {},
                            bool observability = false,
                            int64_t shuffle_window = kLag / 2) {
  core::StudyConfig config = core::StudyConfig::SmallStudy();
  config.num_threads = num_threads;
  config.stream_ingestion = stream_ingest;
  config.ingest.reorder_lag = kLag;
  config.ingest.arrival_shuffle_window = stream_ingest ? shuffle_window : 0;
  config.faults = faults;
  config.observability.enabled = observability;
  core::Pipeline pipeline(config);
  auto run = pipeline.Run();
  TT_CHECK_OK(run.status());
  return std::move(run).value();
}

const core::StudyResults& BatchReference() {
  static const core::StudyResults reference =
      RunStudy(0, /*stream_ingest=*/false);
  return reference;
}

const std::string& BatchDigest() {
  static const std::string digest =
      core::StudyDigestJson(BatchReference());
  return digest;
}

// Field-level comparison of everything the digest does not cover: the
// cleaning report (all counters), trip totals, table 3, and matching
// health. The digest hashes transitions, cells, and the model.
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

// Within the lossless bound (shuffle window == reorder_lag / 2) the
// streamed run must lose nothing and reproduce the batch results bit
// for bit — at every worker count.
void ExpectLossless(const core::StudyResults& run) {
  const stream::IngestStats& s = run.ingest_stats;
  EXPECT_GT(s.points_offered, 0);
  EXPECT_EQ(s.points_released, s.points_offered);
  EXPECT_EQ(s.trip_markers_released, s.trip_markers_offered);
  EXPECT_EQ(s.points_dropped_late, 0);
  EXPECT_EQ(s.trip_markers_dropped_late, 0);
  EXPECT_EQ(s.slots_declared_lost, 0);
  EXPECT_EQ(s.windows_opened_implicit, 0);
  EXPECT_EQ(s.windows_closed, s.trip_markers_offered);
  EXPECT_LE(s.peak_buffered_records, kLag);
}

TEST(IngestEquivalenceTest, SerialStreamIngestMatchesBatch) {
  const core::StudyResults run = RunStudy(0, /*stream_ingest=*/true);
  ExpectLossless(run);
  ExpectSameReports(BatchReference(), run);
  EXPECT_EQ(BatchDigest(), core::StudyDigestJson(run));
}

TEST(IngestEquivalenceTest, OneWorkerStreamIngestMatchesBatch) {
  const core::StudyResults run = RunStudy(1, /*stream_ingest=*/true);
  ExpectLossless(run);
  ExpectSameReports(BatchReference(), run);
  EXPECT_EQ(BatchDigest(), core::StudyDigestJson(run));
}

TEST(IngestEquivalenceTest, TwoWorkersStreamIngestMatchesBatch) {
  const core::StudyResults run = RunStudy(2, /*stream_ingest=*/true);
  ExpectLossless(run);
  ExpectSameReports(BatchReference(), run);
  EXPECT_EQ(BatchDigest(), core::StudyDigestJson(run));
}

TEST(IngestEquivalenceTest, EightWorkersStreamIngestMatchesBatch) {
  const core::StudyResults run = RunStudy(8, /*stream_ingest=*/true);
  ExpectLossless(run);
  ExpectSameReports(BatchReference(), run);
  EXPECT_EQ(BatchDigest(), core::StudyDigestJson(run));
}

// Canonical arrival order (no shuffle) must flow straight through with
// zero buffering and zero latency — the contiguous-release rule.
TEST(IngestEquivalenceTest, CanonicalOrderHasZeroLatency) {
  const core::StudyResults run =
      RunStudy(0, /*stream_ingest=*/true, {}, false, /*shuffle_window=*/0);
  ExpectLossless(run);
  EXPECT_EQ(stream::IngestLatencyMax(run.ingest_stats), 0);
  EXPECT_EQ(run.ingest_stats.peak_buffered_records, 0);
  ExpectSameReports(BatchReference(), run);
  EXPECT_EQ(BatchDigest(), core::StudyDigestJson(run));
}

// Ingestion consumes the materialised, fault-corrupted store — exactly
// what batch cleaning would have seen — so a faulted study must stream
// to the same results too, at any worker count.
const core::StudyResults& FaultedReference() {
  static const core::StudyResults reference = RunStudy(
      0, /*stream_ingest=*/false, fault::FaultPlan::Uniform(0.02));
  return reference;
}

TEST(IngestEquivalenceTest, FaultedSerialStreamIngestMatchesBatch) {
  const core::StudyResults run =
      RunStudy(0, /*stream_ingest=*/true, fault::FaultPlan::Uniform(0.02));
  ExpectLossless(run);
  EXPECT_GT(run.cleaning_report.faults.TotalDropped(), 0);
  ExpectSameReports(FaultedReference(), run);
  EXPECT_EQ(core::StudyDigestJson(FaultedReference()),
            core::StudyDigestJson(run));
}

TEST(IngestEquivalenceTest, FaultedEightWorkersStreamIngestMatchesBatch) {
  const core::StudyResults run =
      RunStudy(8, /*stream_ingest=*/true, fault::FaultPlan::Uniform(0.02));
  ExpectLossless(run);
  ExpectSameReports(FaultedReference(), run);
  EXPECT_EQ(core::StudyDigestJson(FaultedReference()),
            core::StudyDigestJson(run));
}

// The funnel ledger must reconcile exactly — points.ingested's
// in == out + drops is the "nothing silently lost" proof — and the
// stages shared with batch must carry identical counts.
TEST(IngestEquivalenceTest, FunnelReconcilesAndSharedStagesMatchBatch) {
  const core::StudyResults batch =
      RunStudy(0, /*stream_ingest=*/false, {}, /*observability=*/true);
  const core::StudyResults streamed =
      RunStudy(2, /*stream_ingest=*/true, {}, /*observability=*/true);
  ASSERT_TRUE(streamed.observability.enabled);

  const Status reconciles = streamed.observability.funnel.CheckReconciles();
  EXPECT_TRUE(reconciles.ok()) << reconciles.ToString();

  const obs::FunnelStage* ingested =
      streamed.observability.funnel.Find("points.ingested");
  ASSERT_NE(ingested, nullptr);
  EXPECT_EQ(ingested->in, streamed.ingest_stats.points_offered);
  EXPECT_EQ(ingested->out, streamed.ingest_stats.points_released);
  EXPECT_EQ(ingested->in, ingested->out + ingested->TotalDropped());

  const obs::FunnelStage* windows =
      streamed.observability.funnel.Find("windows.closed");
  ASSERT_NE(windows, nullptr);
  EXPECT_EQ(windows->out, streamed.ingest_stats.windows_closed);

  const obs::FunnelStage* online =
      streamed.observability.funnel.Find("segments.emitted_online");
  ASSERT_NE(online, nullptr);
  EXPECT_EQ(online->out,
            streamed.cleaning_report.clean_segments);

  // Stages both modes populate must agree count for count.
  for (const char* name :
       {"points.sanitize", "points.outlier_filter", "segments.filter",
        "segments.gate_selection", "transitions.selection"}) {
    const obs::FunnelStage* sb = batch.observability.funnel.Find(name);
    const obs::FunnelStage* ss = streamed.observability.funnel.Find(name);
    ASSERT_NE(sb, nullptr) << name;
    ASSERT_NE(ss, nullptr) << name;
    EXPECT_EQ(sb->in, ss->in) << name;
    EXPECT_EQ(sb->out, ss->out) << name;
    EXPECT_EQ(sb->TotalDropped(), ss->TotalDropped()) << name;
  }
}

// Latency bound: with displacement d = lag / 2 every record is released
// within 2d = lag arrival slots, so p99 and the max both sit under the
// configured lag.
TEST(IngestEquivalenceTest, LatencyBoundedByConfiguredLag) {
  const core::StudyResults run = RunStudy(0, /*stream_ingest=*/true);
  const stream::IngestStats& s = run.ingest_stats;
  EXPECT_LE(stream::IngestLatencyQuantile(s, 0.99), kLag);
  EXPECT_LE(stream::IngestLatencyMax(s), kLag);
  EXPECT_GT(stream::IngestLatencyMax(s), 0);  // The shuffle did shuffle.
}

// A negative lag is a configuration error: the study reports it before
// any simulation work instead of failing a check on a worker.
TEST(IngestEquivalenceTest, NegativeReorderLagIsInvalidArgument) {
  core::StudyConfig config = core::StudyConfig::SmallStudy();
  config.stream_ingestion = true;
  config.ingest.reorder_lag = -1;
  for (const int threads : {0, 2}) {
    config.num_threads = threads;
    const auto run = core::Pipeline(config).Run();
    ASSERT_FALSE(run.ok());
    EXPECT_TRUE(run.status().IsInvalidArgument()) << run.status().ToString();
  }
}

// ---------------------------------------------------------------------
// Direct IngestSession tests: the invariants the pipeline relies on.

trace::RoutePoint MakePoint(int64_t trip_id, int64_t point_id) {
  trace::RoutePoint p;
  p.point_id = point_id;
  p.trip_id = trip_id;
  p.timestamp_s = 60.0 * static_cast<double>(point_id);
  p.position = geo::LatLon{39.9 + 1e-4 * static_cast<double>(point_id),
                           116.4};
  p.speed_kmh = 30.0;
  return p;
}

// marker + n points for one trip, seqs appended after `next_seq`.
void AppendTrip(std::vector<stream::StreamRecord>* records,
                int64_t trip_id, int n_points, int64_t* next_seq) {
  stream::StreamRecord marker;
  marker.kind = stream::StreamRecord::Kind::kTripBegin;
  marker.seq = (*next_seq)++;
  marker.car_id = 1;
  marker.trip_id = trip_id;
  marker.total_time_s = 60.0 * n_points;
  records->push_back(marker);
  for (int i = 0; i < n_points; ++i) {
    stream::StreamRecord rec;
    rec.kind = stream::StreamRecord::Kind::kPoint;
    rec.seq = (*next_seq)++;
    rec.car_id = 1;
    rec.trip_id = trip_id;
    rec.point = MakePoint(trip_id, i);
    records->push_back(rec);
  }
}

class CollectSink final : public trace::TripSink {
 public:
  Status Consume(trace::Trip trip) override {
    trips.push_back(std::move(trip));
    return Status::OK();
  }
  std::vector<trace::Trip> trips;
};

// After every single Ingest call: the stream head never runs more than
// the lag ahead of the release point, and the buffer never holds more
// than lag records — the memory bound that makes ingestion "online".
TEST(IngestSessionTest, WatermarkAndBufferInvariantsHoldPerArrival) {
  std::vector<stream::StreamRecord> records;
  int64_t next_seq = 0;
  for (int t = 0; t < 20; ++t) AppendTrip(&records, 100 + t, 9, &next_seq);
  stream::IngestOptions options;
  options.reorder_lag = 8;
  stream::ShuffleArrivals(&records, /*seed=*/7, /*max_displacement=*/4);

  CollectSink sink;
  stream::IngestSession session(1, options, &sink);
  for (const stream::StreamRecord& rec : records) {
    TT_CHECK_OK(session.Ingest(rec));
    EXPECT_LE(session.max_seq_seen() - session.next_expected_seq(),
              options.reorder_lag);
    EXPECT_LE(session.buffered_records(), options.reorder_lag);
  }
  TT_CHECK_OK(session.FinishStream());
  EXPECT_EQ(session.stats().slots_declared_lost, 0);
  EXPECT_EQ(session.stats().windows_closed, 20);
  EXPECT_EQ(sink.trips.size(), 20u);
}

// Displacement <= lag / 2 releases the canonical order exactly; the
// sink sees every trip with every point, in stream order.
TEST(IngestSessionTest, BoundedShuffleReleasesCanonicalOrder) {
  std::vector<stream::StreamRecord> records;
  int64_t next_seq = 0;
  for (int t = 0; t < 12; ++t) AppendTrip(&records, 500 + t, 7, &next_seq);
  stream::IngestOptions options;
  options.reorder_lag = 16;
  stream::ShuffleArrivals(&records, /*seed=*/42, /*max_displacement=*/8);

  CollectSink sink;
  stream::IngestSession session(1, options, &sink);
  for (const stream::StreamRecord& rec : records) {
    TT_CHECK_OK(session.Ingest(rec));
  }
  TT_CHECK_OK(session.FinishStream());

  ASSERT_EQ(sink.trips.size(), 12u);
  for (int t = 0; t < 12; ++t) {
    EXPECT_EQ(sink.trips[t].trip_id, 500 + t);
    EXPECT_EQ(sink.trips[t].points.size(), 7u);
    for (size_t i = 0; i < sink.trips[t].points.size(); ++i) {
      EXPECT_EQ(sink.trips[t].points[i].point_id,
                static_cast<int64_t>(i));
    }
  }
  EXPECT_LE(stream::IngestLatencyMax(session.stats()), 16);
}

// An empty window — marker immediately followed by the next marker —
// must still close (and flush an empty trip) rather than stall the
// release index. This is the empty-shard regression at session level.
TEST(IngestSessionTest, EmptyWindowStillClosesAndAdvances) {
  std::vector<stream::StreamRecord> records;
  int64_t next_seq = 0;
  AppendTrip(&records, 1, 3, &next_seq);
  AppendTrip(&records, 2, 0, &next_seq);  // Engine on, engine off.
  AppendTrip(&records, 3, 0, &next_seq);
  AppendTrip(&records, 4, 2, &next_seq);

  CollectSink sink;
  stream::IngestSession session(1, stream::IngestOptions{}, &sink);
  for (const stream::StreamRecord& rec : records) {
    TT_CHECK_OK(session.Ingest(rec));
  }
  TT_CHECK_OK(session.FinishStream());

  ASSERT_EQ(sink.trips.size(), 4u);
  EXPECT_EQ(sink.trips[1].trip_id, 2);
  EXPECT_TRUE(sink.trips[1].points.empty());
  EXPECT_TRUE(sink.trips[2].points.empty());
  EXPECT_EQ(sink.trips[3].points.size(), 2u);
  EXPECT_EQ(session.stats().windows_closed, 4);
  EXPECT_EQ(session.stats().windows_opened_implicit, 0);
}

// A lost marker must not strand its points: the first point of an
// unknown container opens the window implicitly (zeroed totals).
TEST(IngestSessionTest, LostMarkerOpensWindowImplicitly) {
  std::vector<stream::StreamRecord> records;
  int64_t next_seq = 0;
  AppendTrip(&records, 7, 5, &next_seq);
  // Drop the marker: the 5 points arrive orphaned.
  records.erase(records.begin());

  CollectSink sink;
  stream::IngestOptions options;
  options.reorder_lag = 2;
  stream::IngestSession session(1, options, &sink);
  for (const stream::StreamRecord& rec : records) {
    TT_CHECK_OK(session.Ingest(rec));
  }
  TT_CHECK_OK(session.FinishStream());

  ASSERT_EQ(sink.trips.size(), 1u);
  EXPECT_EQ(sink.trips[0].trip_id, 7);
  EXPECT_EQ(sink.trips[0].points.size(), 5u);
  EXPECT_EQ(sink.trips[0].total_time_s, 0.0);  // Synthesised container.
  EXPECT_EQ(session.stats().windows_opened_implicit, 1);
  EXPECT_EQ(session.stats().slots_declared_lost, 1);  // The marker's slot.
}

// Arrivals behind the watermark and duplicate seqs are counted drops,
// and the ledger reconciles exactly: offered == released + dropped.
TEST(IngestSessionTest, LateAndDuplicateArrivalsAreCountedDrops) {
  std::vector<stream::StreamRecord> records;
  int64_t next_seq = 0;
  AppendTrip(&records, 9, 10, &next_seq);

  stream::IngestOptions options;
  options.reorder_lag = 2;
  CollectSink sink;
  stream::IngestSession session(1, options, &sink);

  // Send seq 0..7 in order, then replay seq 1 (already released: late),
  // then seq 3 twice in a row from the buffer-side (duplicate), then
  // the rest.
  for (int i = 0; i < 8; ++i) TT_CHECK_OK(session.Ingest(records[i]));
  TT_CHECK_OK(session.Ingest(records[1]));  // Late replay.
  stream::StreamRecord ahead = records[9];
  TT_CHECK_OK(session.Ingest(ahead));           // Buffered out of order.
  TT_CHECK_OK(session.Ingest(ahead));           // Duplicate of a buffered seq.
  TT_CHECK_OK(session.Ingest(records[8]));      // Fills the gap.
  TT_CHECK_OK(session.Ingest(records[10]));
  TT_CHECK_OK(session.FinishStream());

  const stream::IngestStats& s = session.stats();
  EXPECT_EQ(s.points_dropped_late, 2);
  EXPECT_EQ(s.points_offered,
            s.points_released + s.points_dropped_late);
  EXPECT_EQ(s.trip_markers_offered, s.trip_markers_released);
  ASSERT_EQ(sink.trips.size(), 1u);
  EXPECT_EQ(sink.trips[0].points.size(), 10u);
}

// Once the watermark declares a slot lost, a window older than the
// configured lag never survives the advance: everything before the
// gap flushes, the straggler that eventually arrives is dropped.
TEST(IngestSessionTest, WatermarkAdvanceClosesStaleWindows) {
  std::vector<stream::StreamRecord> records;
  int64_t next_seq = 0;
  AppendTrip(&records, 11, 4, &next_seq);  // seqs 0..4
  AppendTrip(&records, 12, 4, &next_seq);  // seqs 5..9

  stream::IngestOptions options;
  options.reorder_lag = 3;
  CollectSink sink;
  stream::IngestSession session(1, options, &sink);

  // Hold back seq 3; stream everything else in order. When seq 7
  // arrives, max_seq - next_expected = 7 - 3 > 3 forces the watermark
  // past the gap, flushing window 11 without its held point.
  for (const stream::StreamRecord& rec : records) {
    if (rec.seq == 3) continue;
    TT_CHECK_OK(session.Ingest(rec));
    EXPECT_LE(session.max_seq_seen() - session.next_expected_seq(),
              options.reorder_lag);
  }
  EXPECT_EQ(session.stats().slots_declared_lost, 1);
  ASSERT_GE(sink.trips.size(), 1u);
  EXPECT_EQ(sink.trips[0].trip_id, 11);
  EXPECT_EQ(sink.trips[0].points.size(), 3u);  // One point lost.

  TT_CHECK_OK(session.Ingest(records[3]));  // The straggler: late drop.
  EXPECT_EQ(session.stats().points_dropped_late, 1);
  TT_CHECK_OK(session.FinishStream());
  ASSERT_EQ(sink.trips.size(), 2u);
  const stream::IngestStats& s = session.stats();
  EXPECT_EQ(s.points_offered,
            s.points_released + s.points_dropped_late);
}

}  // namespace
}  // namespace taxitrace
