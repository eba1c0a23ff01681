// Table-driven corrupted-input tests: every fault class is injected
// deterministically and pushed through its consumer — trace-level
// classes through the shard transform's duplicate drop and the cleaning
// sanitiser, file-level classes through the CSV round-trip and the
// lenient trace reader — and then every class again through the full
// study pipeline.
// Each path must return a clean Status (no crash, no sanitizer report)
// and account for the loss in FaultReport.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "taxitrace/clean/cleaning_pipeline.h"
#include "taxitrace/core/pipeline.h"
#include "taxitrace/fault/fault_injector.h"
#include "taxitrace/fault/fault_plan.h"
#include "taxitrace/fault/fault_report.h"
#include "taxitrace/geo/coordinates.h"
#include "taxitrace/synth/fleet_simulator.h"
#include "taxitrace/trace/trace_io.h"
#include "taxitrace/trace/trace_store.h"

namespace taxitrace {
namespace fault {
namespace {

// How the class's dropped-side counter must relate to injected_*.
enum class DropRelation {
  kExact,           // dropped == injected: every fault caught one-to-one
  kAtLeast,         // dropped >= injected: one fault drops many records
  kPositiveAtMost,  // 0 < dropped <= injected: a corrupt record can
                    // still parse by luck (e.g. a truncated row)
};

struct FaultCase {
  const char* name;
  double FaultPlan::* prob;
  int64_t FaultReport::* injected;
  int64_t FaultReport::* dropped;  // null: the class drops nothing at
                                   // the sanitiser (handled later, e.g.
                                   // by the trip filter)
  DropRelation relation;
  bool file_level;  // routed through the CSV round-trip
};

const FaultCase kCases[] = {
    {"nan_coord", &FaultPlan::nan_coord_prob,
     &FaultReport::injected_nan_coords, &FaultReport::points_dropped_nonfinite,
     DropRelation::kExact, false},
    {"clock_jump", &FaultPlan::clock_jump_prob,
     &FaultReport::injected_clock_jumps, &FaultReport::points_dropped_clock_jump,
     DropRelation::kExact, false},
    {"negative_speed", &FaultPlan::negative_speed_prob,
     &FaultReport::injected_negative_speeds,
     &FaultReport::points_dropped_negative_speed, DropRelation::kExact, false},
    {"swap_coord", &FaultPlan::swap_coord_prob,
     &FaultReport::injected_swapped_coords,
     &FaultReport::points_dropped_out_of_region, DropRelation::kExact, false},
    {"duplicate_trip", &FaultPlan::duplicate_trip_prob,
     &FaultReport::injected_duplicated_trips,
     &FaultReport::trips_dropped_duplicate_id, DropRelation::kExact, false},
    {"empty_trip", &FaultPlan::empty_trip_prob,
     &FaultReport::injected_emptied_trips, &FaultReport::trips_dropped_empty,
     DropRelation::kExact, false},
    {"single_point_trip", &FaultPlan::single_point_trip_prob,
     &FaultReport::injected_single_point_trips, nullptr, DropRelation::kExact,
     false},
    {"interleave_trip", &FaultPlan::interleave_trip_prob,
     &FaultReport::injected_interleaved_trips,
     &FaultReport::points_dropped_foreign, DropRelation::kAtLeast, false},
    {"truncate_row", &FaultPlan::truncate_row_prob,
     &FaultReport::injected_truncated_rows,
     &FaultReport::rows_dropped_malformed, DropRelation::kPositiveAtMost,
     true},
    {"wrong_columns", &FaultPlan::wrong_columns_prob,
     &FaultReport::injected_wrong_column_rows,
     &FaultReport::rows_dropped_malformed, DropRelation::kExact, true},
    {"junk_bytes", &FaultPlan::junk_bytes_prob,
     &FaultReport::injected_junk_rows, &FaultReport::rows_dropped_non_utf8,
     DropRelation::kExact, true},
};

// A plan with only this case's class enabled.
FaultPlan SingleClassPlan(const FaultCase& c, double rate) {
  FaultPlan plan;
  plan.*(c.prob) = rate;
  return plan;
}

// A well-formed fleet: 40 trips x 40 points, monotone ids and
// timestamps, ~11 m steps inside the test region, no segmentation or
// filter triggers — so every drop the report shows was caused by the
// injected fault class under test.
std::vector<trace::Trip> MakeFleet() {
  std::vector<trace::Trip> trips;
  for (int t = 0; t < 40; ++t) {
    trace::Trip trip;
    trip.trip_id = t + 1;
    trip.car_id = 1 + t % 5;
    for (int k = 0; k < 40; ++k) {
      trace::RoutePoint p;
      p.point_id = k + 1;
      p.trip_id = trip.trip_id;
      p.timestamp_s = 1000.0 * t + 10.0 * k;
      p.position =
          geo::LatLon{65.0 + 1e-3 * t + 1e-4 * k, 25.47 + 1e-4 * k};
      p.speed_kmh = 30.0;
      trip.points.push_back(p);
    }
    trip.RecomputeTotals();
    trips.push_back(trip);
  }
  return trips;
}

clean::CleaningOptions SanitizingOptions() {
  clean::CleaningOptions options;
  options.sanitize.enabled = true;
  options.sanitize.has_region = true;
  options.sanitize.lat_min_deg = 64.9;
  options.sanitize.lat_max_deg = 65.2;
  options.sanitize.lon_min_deg = 25.3;
  options.sanitize.lon_max_deg = 25.7;
  return options;
}

void ExpectRelation(const FaultCase& c, const FaultReport& report) {
  const int64_t injected = report.*(c.injected);
  EXPECT_GT(injected, 0) << "class " << c.name << " never fired";
  if (c.dropped == nullptr) return;
  const int64_t dropped = report.*(c.dropped);
  switch (c.relation) {
    case DropRelation::kExact:
      EXPECT_EQ(dropped, injected);
      break;
    case DropRelation::kAtLeast:
      EXPECT_GE(dropped, injected);
      break;
    case DropRelation::kPositiveAtMost:
      EXPECT_GT(dropped, 0);
      EXPECT_LE(dropped, injected);
      break;
  }
}

TEST(FaultPlanTest, DefaultPlanIsInert) {
  const FaultPlan plan;
  EXPECT_FALSE(plan.Any());
  EXPECT_FALSE(plan.AnyFileFaults());
  const FaultPlan uniform = FaultPlan::Uniform(0.25);
  EXPECT_TRUE(uniform.Any());
  EXPECT_TRUE(uniform.AnyFileFaults());
  for (const FaultCase& c : kCases) {
    EXPECT_EQ(uniform.*(c.prob), 0.25) << c.name;
    EXPECT_EQ(SingleClassPlan(c, 0.25).AnyFileFaults(), c.file_level)
        << c.name;
  }
}

// A probability outside [0, 1] fails the study before any work, NaN
// included (Bernoulli(NaN) would silently never fire); 0 and 1 pass.
TEST(FaultPlanTest, ProbabilityOutsideUnitIntervalIsInvalidArgument) {
  const double kInf = std::numeric_limits<double>::infinity();
  for (const FaultCase& c : kCases) {
    SCOPED_TRACE(c.name);
    EXPECT_TRUE(SingleClassPlan(c, 0.0).Validate().ok());
    EXPECT_TRUE(SingleClassPlan(c, 1.0).Validate().ok());
    for (const double bad : {std::nan(""), -0.01, 1.01, kInf, -kInf}) {
      core::StudyConfig config = core::StudyConfig::SmallStudy();
      config.faults = SingleClassPlan(c, bad);
      const auto run = core::Pipeline(config).Run();
      ASSERT_FALSE(run.ok()) << bad;
      EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument) << bad;
      EXPECT_NE(run.status().message().find(std::string(c.name) + "_prob"),
                std::string::npos)
          << run.status().ToString();
    }
  }
}

// Trace-level classes: transform the trips as one shard -> store ->
// clean with the sanitiser on. The report (injector + duplicate drop +
// cleaning) must show the class firing and its drop counter matching.
TEST(FaultInjectionTest, TraceLevelClassesAccountedInCleaning) {
  for (const FaultCase& c : kCases) {
    if (c.file_level) continue;
    SCOPED_TRACE(c.name);
    const FaultInjector injector(SingleClassPlan(c, 0.1));
    std::vector<trace::Trip> trips = MakeFleet();
    FaultTally tally;
    ASSERT_TRUE(injector.CorruptShard(0, &trips, &tally).ok());
    FaultReport& report = tally.report;
    EXPECT_EQ(tally.trips_in, 40);
    EXPECT_EQ(tally.points_in, 40 * 40);

    trace::TraceStore store;
    for (trace::Trip& trip : trips) {
      ASSERT_TRUE(store.AddTrip(std::move(trip)).ok());
    }

    clean::CleaningReport cleaning;
    const Result<std::vector<trace::Trip>> cleaned =
        clean::CleanTrips(store, SanitizingOptions(), &cleaning);
    ASSERT_TRUE(cleaned.ok()) << cleaned.status().ToString();
    report.Add(cleaning.faults);
    ExpectRelation(c, report);

    // The only losses are the ones the class explains.
    const int64_t expected_drops =
        c.dropped == nullptr ? 0 : report.*(c.dropped);
    EXPECT_EQ(report.TotalDropped(), expected_drops);

    // Single-point trips pass the sanitiser and fall to the trip
    // filter's min-points rule instead.
    if (c.injected == &FaultReport::injected_single_point_trips) {
      EXPECT_GE(cleaning.filter.removed_too_few_points,
                report.injected_single_point_trips);
    }
  }
}

// File-level classes: serialize -> corrupt the CSV -> lenient re-parse.
// The reader never fails; it drops the bad rows and accounts for them.
TEST(FaultInjectionTest, FileLevelClassesAccountedInLenientParse) {
  for (const FaultCase& c : kCases) {
    if (!c.file_level) continue;
    SCOPED_TRACE(c.name);
    const FaultInjector injector(SingleClassPlan(c, 0.1));
    const std::string csv = trace::TripsToCsv(MakeFleet());
    FaultReport report;
    const std::string corrupted = injector.CorruptCsv(csv, 0, &report);
    EXPECT_NE(corrupted, csv);

    trace::TraceIoStats stats;
    const Result<std::vector<trace::Trip>> trips =
        trace::TripsFromCsvLenient(corrupted, &stats);
    ASSERT_TRUE(trips.ok()) << trips.status().ToString();
    EXPECT_FALSE(trips->empty());
    report.rows_dropped_malformed += stats.rows_dropped_malformed;
    report.rows_dropped_non_utf8 += stats.rows_dropped_non_utf8;
    ExpectRelation(c, report);
    EXPECT_EQ(stats.rows_total, 40 * 40);
  }
}

// One (car, day) shard of `car` with index `index`: 6 trips of 12
// points, ids from the shard's own trip-id range.
std::vector<trace::Trip> MakeShard(int64_t index, int car) {
  std::vector<trace::Trip> trips;
  for (int t = 0; t < 6; ++t) {
    trace::Trip trip;
    trip.trip_id = index * synth::kTripIdStride + t + 1;
    trip.car_id = car;
    for (int k = 0; k < 12; ++k) {
      trace::RoutePoint p;
      p.point_id = 12 * t + k + 1;
      p.trip_id = trip.trip_id;
      p.timestamp_s = 1000.0 * t + 10.0 * k;
      p.position = geo::LatLon{65.0 + 1e-3 * t + 1e-4 * k + 1e-2 * car,
                               25.47 + 1e-4 * k};
      p.speed_kmh = 30.0;
      trip.points.push_back(p);
    }
    trip.RecomputeTotals();
    trips.push_back(trip);
  }
  return trips;
}

// Bit for bit, so that injected NaN coordinates compare equal.
void ExpectSameTrips(const std::vector<trace::Trip>& a,
                     const std::vector<trace::Trip>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t t = 0; t < a.size(); ++t) {
    EXPECT_EQ(a[t].trip_id, b[t].trip_id);
    EXPECT_EQ(a[t].car_id, b[t].car_id);
    ASSERT_EQ(a[t].points.size(), b[t].points.size());
    for (size_t i = 0; i < a[t].points.size(); ++i) {
      const trace::RoutePoint& p = a[t].points[i];
      const trace::RoutePoint& q = b[t].points[i];
      EXPECT_EQ(p.point_id, q.point_id);
      EXPECT_EQ(p.trip_id, q.trip_id);
      const double pv[] = {p.timestamp_s, p.position.lat_deg,
                           p.position.lon_deg, p.speed_kmh, p.fuel_delta_ml};
      const double qv[] = {q.timestamp_s, q.position.lat_deg,
                           q.position.lon_deg, q.speed_kmh, q.fuel_delta_ml};
      for (size_t f = 0; f < 5; ++f) {
        EXPECT_EQ(std::bit_cast<uint64_t>(pv[f]), std::bit_cast<uint64_t>(qv[f]));
      }
    }
  }
}

// Every trip interleaved, over the first day of two cars: each splice
// stays inside its shard, which is one car's day, so no point leaves
// its shard's trip-id range, and the first trip of the second car's
// shard splices into nothing. Each shard's transform depends only on
// its own trips: either order gives the same trips and report.
TEST(FaultInjectionTest, InterleaveStaysInsideItsShard) {
  constexpr int kDays = 3;
  const int64_t index[2] = {0, kDays};  // Car 1 day 0, car 2 day 0.
  FaultPlan mixed = FaultPlan::Uniform(0.1);
  mixed.interleave_trip_prob = 1.0;
  FaultPlan interleave_only;
  interleave_only.interleave_trip_prob = 1.0;
  for (const FaultPlan& plan : {interleave_only, mixed}) {
    SCOPED_TRACE(plan.AnyFileFaults() ? "mixed" : "interleave only");
    const FaultInjector injector(plan);
    std::vector<trace::Trip> forward[2] = {MakeShard(index[0], 1),
                                           MakeShard(index[1], 2)};
    std::vector<trace::Trip> backward[2] = {forward[0], forward[1]};
    FaultTally forward_tally;
    FaultTally backward_tally;
    for (const int s : {0, 1}) {
      ASSERT_TRUE(
          injector.CorruptShard(index[s], &forward[s], &forward_tally).ok());
    }
    for (const int s : {1, 0}) {
      ASSERT_TRUE(
          injector.CorruptShard(index[s], &backward[s], &backward_tally).ok());
    }
    for (const int s : {0, 1}) {
      ExpectSameTrips(forward[s], backward[s]);
      for (const trace::Trip& trip : forward[s]) {
        for (const trace::RoutePoint& p : trip.points) {
          EXPECT_GE(p.trip_id, index[s] * synth::kTripIdStride + 1);
          EXPECT_LE(p.trip_id, (index[s] + 1) * synth::kTripIdStride);
        }
      }
    }
    EXPECT_EQ(forward_tally.report.ToString(),
              backward_tally.report.ToString());
    if (!plan.AnyFileFaults()) {
      // Every trip but the first of each shard donates its lead.
      EXPECT_EQ(forward_tally.report.injected_interleaved_trips, 2 * 5);
    }
  }
}

// Every class end to end: a SmallStudy with one fault class enabled
// must finish with a clean Status and surface the class in
// StudyResults. The per-class relations still hold because a
// trace-only plan skips the CSV round-trip.
TEST(FaultInjectionTest, EveryClassRunsTheFullPipeline) {
  for (const FaultCase& c : kCases) {
    SCOPED_TRACE(c.name);
    core::StudyConfig config = core::StudyConfig::SmallStudy();
    config.num_threads = 0;
    config.faults = SingleClassPlan(c, 0.05);
    core::Pipeline pipeline(config);
    const auto run = pipeline.Run();
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ExpectRelation(c, run->cleaning_report.faults);
    EXPECT_GT(run->cleaning_report.clean_segments, 0);
  }
}

// All classes at once: the pipeline still finishes and still produces
// analysable output on a heavily corrupted fleet.
TEST(FaultInjectionTest, MixedPlanPipelineDegradesGracefully) {
  core::StudyConfig config = core::StudyConfig::SmallStudy();
  // -1: resolve workers from TAXITRACE_THREADS, so the CI fault-matrix
  // job runs this corrupted study at 8 workers under the sanitizers.
  config.num_threads = -1;
  config.faults = FaultPlan::Uniform(0.03);
  core::Pipeline pipeline(config);
  const auto run = pipeline.Run();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const FaultReport& report = run->cleaning_report.faults;
  EXPECT_GT(report.TotalInjected(), 0);
  EXPECT_GT(report.TotalDropped(), 0);
  EXPECT_GT(run->cleaning_report.clean_segments, 0);
  EXPECT_GT(run->total_point_speeds, 0);
}

}  // namespace
}  // namespace fault
}  // namespace taxitrace
