#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "taxitrace/clean/cleaning_pipeline.h"
#include "taxitrace/clean/order_repair.h"
#include "taxitrace/clean/outlier_filter.h"
#include "taxitrace/clean/segmentation.h"
#include "taxitrace/clean/trip_filter.h"
#include "taxitrace/common/random.h"

namespace taxitrace {
namespace clean {
namespace {

// Points along a straight south-north street, ~22 m apart, 10 s apart.
std::vector<trace::RoutePoint> StraightDrive(int n, double t0 = 0.0,
                                             int64_t first_id = 1) {
  std::vector<trace::RoutePoint> pts;
  for (int i = 0; i < n; ++i) {
    trace::RoutePoint p;
    p.point_id = first_id + i;
    p.trip_id = 1;
    p.timestamp_s = t0 + 10.0 * i;
    p.position = geo::LatLon{65.0 + 0.0002 * i, 25.47};
    p.speed_kmh = 30.0;
    p.fuel_delta_ml = 2.0;
    pts.push_back(p);
  }
  return pts;
}

// --- Order repair -------------------------------------------------------------

TEST(OrderRepairTest, ConsistentSequenceUntouched) {
  std::vector<trace::RoutePoint> pts = StraightDrive(10);
  const std::vector<trace::RoutePoint> original = pts;
  EXPECT_EQ(RepairPointOrder(&pts), ChosenOrder::kConsistent);
  for (size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(pts[i].point_id, original[i].point_id);
    EXPECT_EQ(pts[i].timestamp_s, original[i].timestamp_s);
  }
}

TEST(OrderRepairTest, ScrambledStorageOrderIsCanonicalised) {
  std::vector<trace::RoutePoint> pts = StraightDrive(10);
  std::swap(pts[2], pts[7]);  // storage order wrong, fields consistent
  EXPECT_EQ(RepairPointOrder(&pts), ChosenOrder::kConsistent);
  for (size_t i = 1; i < pts.size(); ++i) {
    EXPECT_LT(pts[i - 1].point_id, pts[i].point_id);
  }
}

TEST(OrderRepairTest, TimestampGlitchRepairedById) {
  std::vector<trace::RoutePoint> pts = StraightDrive(10);
  std::swap(pts[4].timestamp_s, pts[5].timestamp_s);
  EXPECT_EQ(RepairPointOrder(&pts), ChosenOrder::kById);
  for (size_t i = 1; i < pts.size(); ++i) {
    EXPECT_LE(pts[i - 1].timestamp_s, pts[i].timestamp_s);
    EXPECT_LT(pts[i - 1].point_id, pts[i].point_id);
    // Geometry still the straight drive: monotone latitude.
    EXPECT_LT(pts[i - 1].position.lat_deg, pts[i].position.lat_deg);
  }
}

TEST(OrderRepairTest, IdGlitchRepairedByTimestamp) {
  std::vector<trace::RoutePoint> pts = StraightDrive(10);
  std::swap(pts[3].point_id, pts[4].point_id);
  EXPECT_EQ(RepairPointOrder(&pts), ChosenOrder::kByTimestamp);
  for (size_t i = 1; i < pts.size(); ++i) {
    EXPECT_LT(pts[i - 1].position.lat_deg, pts[i].position.lat_deg);
  }
}

TEST(OrderRepairTest, PreservesFieldMultisets) {
  std::vector<trace::RoutePoint> pts = StraightDrive(8);
  std::swap(pts[2].timestamp_s, pts[3].timestamp_s);
  std::vector<double> times_before;
  std::vector<int64_t> ids_before;
  for (const auto& p : pts) {
    times_before.push_back(p.timestamp_s);
    ids_before.push_back(p.point_id);
  }
  RepairPointOrder(&pts);
  std::vector<double> times_after;
  std::vector<int64_t> ids_after;
  for (const auto& p : pts) {
    times_after.push_back(p.timestamp_s);
    ids_after.push_back(p.point_id);
  }
  std::sort(times_before.begin(), times_before.end());
  std::sort(ids_before.begin(), ids_before.end());
  EXPECT_EQ(times_after, times_before);  // already monotone after repair
  EXPECT_EQ(ids_after, ids_before);
}

TEST(OrderRepairTest, ShortSequencesAreConsistent) {
  std::vector<trace::RoutePoint> empty;
  EXPECT_EQ(RepairPointOrder(&empty), ChosenOrder::kConsistent);
  std::vector<trace::RoutePoint> one = StraightDrive(1);
  EXPECT_EQ(RepairPointOrder(&one), ChosenOrder::kConsistent);
}

// --- Order repair fast path ------------------------------------------------
//
// A sequence already non-decreasing in both fields comes back untouched
// without being sorted; anything else takes the general path. The
// expected answers are those of the repair that always sorted.

// Whole-record identity, NaN fields included (RoutePoint has no padding).
bool SameRecords(const std::vector<trace::RoutePoint>& a,
                 const std::vector<trace::RoutePoint>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(),
                      a.size() * sizeof(trace::RoutePoint)) == 0);
}

std::vector<int64_t> Ids(const std::vector<trace::RoutePoint>& pts) {
  std::vector<int64_t> ids;
  for (const trace::RoutePoint& p : pts) ids.push_back(p.point_id);
  return ids;
}

TEST(OrderRepairFastPathTest, TiesInIdAndTimestampAreLeftUntouched) {
  std::vector<trace::RoutePoint> pts = StraightDrive(6);
  pts[2].point_id = pts[1].point_id;        // id tie
  pts[4].timestamp_s = pts[3].timestamp_s;  // timestamp tie
  const std::vector<trace::RoutePoint> original = pts;
  EXPECT_EQ(RepairPointOrder(&pts), ChosenOrder::kConsistent);
  EXPECT_TRUE(SameRecords(pts, original));
}

TEST(OrderRepairFastPathTest, NanTimestampTakesTheGeneralPath) {
  // Otherwise in order: both sorts leave the NaN where it is.
  std::vector<trace::RoutePoint> pts = StraightDrive(6);
  pts[3].timestamp_s = std::nan("");
  const std::vector<trace::RoutePoint> original = pts;
  EXPECT_EQ(RepairPointOrder(&pts), ChosenOrder::kConsistent);
  EXPECT_TRUE(SameRecords(pts, original));

  // With two ids swapped as well, timestamp order wins and the ids are
  // realigned; the NaN keeps its slot.
  pts = StraightDrive(8);
  pts[2].timestamp_s = std::nan("");
  std::swap(pts[4].point_id, pts[5].point_id);
  std::vector<trace::RoutePoint> expected = StraightDrive(8);
  expected[2].timestamp_s = std::nan("");
  EXPECT_EQ(RepairPointOrder(&pts), ChosenOrder::kByTimestamp);
  EXPECT_TRUE(SameRecords(pts, expected));
}

TEST(OrderRepairFastPathTest, SingleOutOfOrderIdIsRepairedByTimestamp) {
  std::vector<trace::RoutePoint> pts = StraightDrive(8);
  pts[3].point_id = 99;
  std::vector<trace::RoutePoint> expected = pts;
  EXPECT_EQ(RepairPointOrder(&pts), ChosenOrder::kByTimestamp);
  // The points stay in time order; the ids are realigned monotone.
  const std::vector<int64_t> ids = {1, 2, 3, 5, 6, 7, 8, 99};
  for (size_t i = 0; i < expected.size(); ++i) {
    expected[i].point_id = ids[i];
  }
  EXPECT_TRUE(SameRecords(pts, expected));
}

TEST(OrderRepairFastPathTest, ZeroOneAndTwoPoints) {
  std::vector<trace::RoutePoint> empty;
  EXPECT_EQ(RepairPointOrder(&empty), ChosenOrder::kConsistent);
  EXPECT_TRUE(empty.empty());

  std::vector<trace::RoutePoint> one = StraightDrive(1);
  one[0].timestamp_s = std::nan("");
  const std::vector<trace::RoutePoint> one_before = one;
  EXPECT_EQ(RepairPointOrder(&one), ChosenOrder::kConsistent);
  EXPECT_TRUE(SameRecords(one, one_before));

  std::vector<trace::RoutePoint> two = StraightDrive(2);
  const std::vector<trace::RoutePoint> two_before = two;
  EXPECT_EQ(RepairPointOrder(&two), ChosenOrder::kConsistent);
  EXPECT_TRUE(SameRecords(two, two_before));

  // Ids disagree with time: the tie in length goes to id order, which
  // reverses the two fixes.
  two = StraightDrive(2);
  std::swap(two[0].point_id, two[1].point_id);
  EXPECT_EQ(RepairPointOrder(&two), ChosenOrder::kById);
  EXPECT_EQ(Ids(two), (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(two[0].timestamp_s, 0.0);
  EXPECT_EQ(two[0].position.lat_deg, two_before[1].position.lat_deg);
  EXPECT_EQ(two[1].position.lat_deg, two_before[0].position.lat_deg);

  // Timestamps disagree with ids: id order wins, the fixes stay put and
  // the timestamps are realigned.
  two = StraightDrive(2);
  std::swap(two[0].timestamp_s, two[1].timestamp_s);
  EXPECT_EQ(RepairPointOrder(&two), ChosenOrder::kById);
  EXPECT_TRUE(SameRecords(two, two_before));
}

TEST(OrderRepairTest, TripWrapperUpdatesTotalsAndStats) {
  trace::Trip trip;
  trip.points = StraightDrive(10);
  std::swap(trip.points[4].timestamp_s, trip.points[5].timestamp_s);
  OrderRepairStats stats;
  RepairTripOrder(&trip, &stats);
  EXPECT_EQ(stats.trips_repaired_by_id, 1);
  EXPECT_GT(trip.total_distance_m, 0.0);
  EXPECT_NEAR(trip.total_time_s, 90.0, 1e-9);
}

// --- Outlier filter -------------------------------------------------------------

TEST(OutlierFilterTest, RemovesExactDuplicates) {
  std::vector<trace::RoutePoint> pts = StraightDrive(6);
  pts.insert(pts.begin() + 3, pts[2]);  // duplicated record
  OutlierFilterStats stats;
  FilterOutliers(&pts, {}, &stats);
  EXPECT_EQ(stats.duplicates_removed, 1);
  EXPECT_EQ(pts.size(), 6u);
}

TEST(OutlierFilterTest, RemovesGpsSpike) {
  std::vector<trace::RoutePoint> pts = StraightDrive(8);
  pts[4].position.lon_deg += 0.01;  // ~470 m sideways jump
  OutlierFilterStats stats;
  FilterOutliers(&pts, {}, &stats);
  EXPECT_EQ(stats.spikes_removed, 1);
  EXPECT_EQ(pts.size(), 7u);
}

TEST(OutlierFilterTest, RemovesChainedSpikes) {
  std::vector<trace::RoutePoint> pts = StraightDrive(10);
  pts[4].position.lon_deg += 0.012;
  pts[5].position.lon_deg += 0.011;
  OutlierFilterStats stats;
  OutlierFilterOptions options;
  FilterOutliers(&pts, options, &stats);
  // Both displaced points disappear. Neither is a spike on the first
  // scan (they shield each other), so the speed pass removes one and
  // the next round's spike scan catches the survivor — the passes
  // iterate to a joint fixpoint. One on-street point (id 7) is
  // collateral of the speed pass while a displaced neighbour remains.
  for (const trace::RoutePoint& p : pts) {
    EXPECT_NE(p.point_id, 5);
    EXPECT_NE(p.point_id, 6);
  }
  EXPECT_EQ(pts.size(), 7u);
  EXPECT_EQ(stats.spikes_removed + stats.implied_speed_removed, 3);
}

TEST(OutlierFilterTest, RemovesImpliedSpeedViolation) {
  std::vector<trace::RoutePoint> pts = StraightDrive(6);
  // Last point teleports 5 km in 10 s (500 m/s) — not a spike pattern
  // (no return), caught by the implied-speed pass.
  pts[5].position.lat_deg += 0.05;
  OutlierFilterStats stats;
  FilterOutliers(&pts, {}, &stats);
  EXPECT_EQ(stats.implied_speed_removed, 1);
  EXPECT_EQ(pts.size(), 5u);
}

TEST(OutlierFilterTest, CleanDataUntouched) {
  std::vector<trace::RoutePoint> pts = StraightDrive(20);
  OutlierFilterStats stats;
  FilterOutliers(&pts, {}, &stats);
  EXPECT_EQ(pts.size(), 20u);
  EXPECT_EQ(stats.duplicates_removed, 0);
  EXPECT_EQ(stats.spikes_removed, 0);
  EXPECT_EQ(stats.implied_speed_removed, 0);
}

// --- Segmentation ----------------------------------------------------------------

// Appends a stationary block (keepalive points every 40 s) at the last
// position of `pts`.
void AppendStationary(std::vector<trace::RoutePoint>* pts,
                      double duration_s) {
  const trace::RoutePoint anchor = pts->back();
  const double t0 = anchor.timestamp_s;
  for (double dt = 40.0; dt <= duration_s; dt += 40.0) {
    trace::RoutePoint p = anchor;
    p.point_id = pts->back().point_id + 1;
    p.timestamp_s = t0 + dt;
    p.speed_kmh = 0.0;
    pts->push_back(p);
  }
}

TEST(SegmentationTest, SplitsAtLongStationaryRun) {
  trace::Trip trip;
  trip.points = StraightDrive(10);
  AppendStationary(&trip.points, 600.0);  // 10 min stand wait
  std::vector<trace::RoutePoint> second =
      StraightDrive(10, trip.points.back().timestamp_s + 40.0,
                    trip.points.back().point_id + 1);
  for (auto& p : second) {
    p.position.lat_deg += 0.005;  // resumes from elsewhere
  }
  trip.points.insert(trip.points.end(), second.begin(), second.end());

  SegmentationStats stats;
  const std::vector<trace::Trip> segments = SegmentTrip(trip, {}, &stats);
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(stats.splits_by_rule[0], 1);  // rule 1
  EXPECT_EQ(segments[0].points.size(), 10u + 4u);  // keeps early waits
  EXPECT_EQ(segments[1].points.size(), 10u);
  // Segment ids derive from the source trip id.
  EXPECT_EQ(segments[0].trip_id, trip.trip_id * 1000);
  EXPECT_EQ(segments[1].trip_id, trip.trip_id * 1000 + 1);
}

TEST(SegmentationTest, ShortRedLightWaitDoesNotSplit) {
  trace::Trip trip;
  trip.points = StraightDrive(10);
  AppendStationary(&trip.points, 120.0);  // < 3 min
  std::vector<trace::RoutePoint> more =
      StraightDrive(5, trip.points.back().timestamp_s + 10.0,
                    trip.points.back().point_id + 1);
  for (auto& p : more) p.position.lat_deg += 0.003;
  trip.points.insert(trip.points.end(), more.begin(), more.end());
  const std::vector<trace::Trip> segments = SegmentTrip(trip, {});
  EXPECT_EQ(segments.size(), 1u);
}

TEST(SegmentationTest, Rule2SplitsLongSilentGap) {
  trace::Trip trip;
  trip.points = StraightDrive(10);
  std::vector<trace::RoutePoint> second = StraightDrive(
      10, trip.points.back().timestamp_s + 480.0,  // 8 min silence
      trip.points.back().point_id + 1);
  for (auto& p : second) p.position.lat_deg += 0.002;  // moved ~200 m
  trip.points.insert(trip.points.end(), second.begin(), second.end());
  SegmentationStats stats;
  const std::vector<trace::Trip> segments = SegmentTrip(trip, {}, &stats);
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(stats.splits_by_rule[1], 1);  // rule 2
}

TEST(SegmentationTest, Rule4SplitsSlowLongGap) {
  SegmentationOptions options;
  trace::Trip trip;
  trip.points = StraightDrive(10);
  trace::RoutePoint far = trip.points.back();
  far.point_id += 1;
  far.timestamp_s += 1000.0;          // > 15 min
  far.position.lat_deg += 0.02;       // ~2.2 km (< 3 km, speed > 0.002)
  trip.points.push_back(far);
  SegmentationStats stats;
  const std::vector<trace::Trip> segments =
      SegmentTrip(trip, options, &stats);
  ASSERT_EQ(segments.size(), 2u);
  // Rule 2 has a shorter window so it wins here; force rule 4 by
  // disabling rule 2.
  SegmentationOptions no_rule2 = options;
  no_rule2.rule2_window_s = 1e9;
  SegmentationStats stats4;
  const auto segments4 = SegmentTrip(trip, no_rule2, &stats4);
  ASSERT_EQ(segments4.size(), 2u);
  EXPECT_EQ(stats4.splits_by_rule[3], 1);
}

TEST(SegmentationTest, Rule5ResplitsOverlongSegments) {
  // A 45 km drive with 100 s pauses (under the 3-minute rule 1 window
  // but over the rule-5 90 s window).
  SegmentationOptions options;
  trace::Trip trip;
  trip.points = StraightDrive(3);
  double t = trip.points.back().timestamp_s;
  double lat = trip.points.back().position.lat_deg;
  int64_t id = trip.points.back().point_id;
  for (int block = 0; block < 5; ++block) {
    // Pause 100 s at the current position.
    trace::RoutePoint pause = trip.points.back();
    pause.point_id = ++id;
    pause.timestamp_s = t + 100.0;
    trip.points.push_back(pause);
    t += 100.0;
    // Drive 10 km north in 100-m steps.
    for (int k = 0; k < 100; ++k) {
      trace::RoutePoint p = trip.points.back();
      p.point_id = ++id;
      p.timestamp_s = (t += 10.0);
      p.position.lat_deg = (lat += 0.0009);
      trip.points.push_back(p);
    }
  }
  SegmentationStats stats;
  const std::vector<trace::Trip> segments =
      SegmentTrip(trip, options, &stats);
  EXPECT_GT(segments.size(), 1u);
  EXPECT_GT(stats.splits_by_rule[4], 0);  // rule 5 fired
  for (const trace::Trip& seg : segments) {
    EXPECT_LE(trace::PathLengthMeters(seg.points),
              options.rule5_length_m + 11000.0);
  }
}

TEST(SegmentationTest, EmptyTripYieldsNothing) {
  trace::Trip trip;
  EXPECT_TRUE(SegmentTrip(trip, {}).empty());
}

TEST(SegmentationTest, SegmentTripsProcessesAll) {
  trace::Trip a;
  a.trip_id = 1;
  a.points = StraightDrive(5);
  trace::Trip b;
  b.trip_id = 2;
  b.points = StraightDrive(5, 5000.0, 100);
  SegmentationStats stats;
  const auto segments = SegmentTrips({a, b}, {}, &stats);
  EXPECT_EQ(segments.size(), 2u);
  EXPECT_EQ(stats.trips_in, 2);
  EXPECT_EQ(stats.segments_out, 2);
}

// --- Trip filter ------------------------------------------------------------------

TEST(TripFilterTest, DropsTinyTrips) {
  trace::Trip small;
  small.points = StraightDrive(4);
  trace::Trip ok;
  ok.points = StraightDrive(5);
  TripFilterStats stats;
  const auto kept = FilterTrips({small, ok}, {}, &stats);
  EXPECT_EQ(kept.size(), 1u);
  EXPECT_EQ(stats.removed_too_few_points, 1);
  EXPECT_EQ(stats.kept, 1);
}

TEST(TripFilterTest, DropsOverlongTrips) {
  trace::Trip monster;
  monster.points = StraightDrive(5);
  monster.points.back().position.lat_deg += 0.5;  // ~55 km hop
  TripFilterStats stats;
  const auto kept = FilterTrips({monster}, {}, &stats);
  EXPECT_TRUE(kept.empty());
  EXPECT_EQ(stats.removed_too_long, 1);
  EXPECT_FALSE(PassesTripFilter(monster));
}

TEST(TripFilterTest, BoundaryCounts) {
  TripFilterOptions options;
  options.min_points = 3;
  trace::Trip exactly;
  exactly.points = StraightDrive(3);
  EXPECT_TRUE(PassesTripFilter(exactly, options));
}

// --- Full pipeline -----------------------------------------------------------------

TEST(CleaningPipelineTest, EndToEnd) {
  trace::TraceStore store;
  // Trip 1: clean drive + long stand wait + second drive.
  trace::Trip t1;
  t1.trip_id = 1;
  t1.car_id = 1;
  t1.points = StraightDrive(12);
  AppendStationary(&t1.points, 400.0);
  auto tail = StraightDrive(12, t1.points.back().timestamp_s + 40.0,
                            t1.points.back().point_id + 1);
  for (auto& p : tail) p.position.lat_deg += 0.004;
  t1.points.insert(t1.points.end(), tail.begin(), tail.end());
  // Inject a timestamp glitch and a spike.
  std::swap(t1.points[3].timestamp_s, t1.points[4].timestamp_s);
  t1.points[6].position.lon_deg += 0.01;
  ASSERT_TRUE(store.AddTrip(t1).ok());

  // Trip 2: too short to survive.
  trace::Trip t2;
  t2.trip_id = 2;
  t2.car_id = 1;
  t2.points = StraightDrive(3, 90000.0, 500);
  ASSERT_TRUE(store.AddTrip(t2).ok());

  CleaningReport report;
  const std::vector<trace::Trip> cleaned =
      CleanTrips(store, {}, &report).value();
  EXPECT_EQ(report.raw_trips, 2);
  EXPECT_EQ(report.order.trips_repaired_by_id, 1);
  EXPECT_EQ(report.outliers.spikes_removed, 1);
  EXPECT_GE(report.segmentation.splits_by_rule[0], 1);
  EXPECT_EQ(report.filter.removed_too_few_points, 1);
  ASSERT_EQ(cleaned.size(), 2u);  // the two drives of trip 1
  for (const trace::Trip& seg : cleaned) {
    EXPECT_GE(seg.points.size(), 5u);
    for (size_t i = 1; i < seg.points.size(); ++i) {
      EXPECT_LE(seg.points[i - 1].timestamp_s, seg.points[i].timestamp_s);
    }
  }
  EXPECT_EQ(report.clean_segments, 2);
  EXPECT_GT(report.clean_points, 0);
}

}  // namespace
}  // namespace clean
}  // namespace taxitrace
