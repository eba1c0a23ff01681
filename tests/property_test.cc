// Cross-module property tests: parameterised sweeps asserting the
// invariants that hold across option ranges, seeds and noise levels.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <tuple>
#include <type_traits>
#include <vector>

#include "taxitrace/clean/cleaning_pipeline.h"
#include "taxitrace/common/histogram.h"
#include "taxitrace/common/random.h"
#include "taxitrace/fault/fault_injector.h"
#include "taxitrace/stream/ingest_session.h"
#include "taxitrace/stream/stream_source.h"
#include "taxitrace/trace/trip_sink.h"
#include "taxitrace/mapmatch/incremental_matcher.h"
#include "taxitrace/mapmatch/match_quality.h"
#include "taxitrace/model/one_way_reml.h"
#include "taxitrace/roadnet/router.h"
#include "taxitrace/synth/city_map_generator.h"
#include "taxitrace/synth/driver_model.h"
#include "taxitrace/synth/sensor_model.h"

namespace taxitrace {
namespace {

const synth::CityMap& TestMap() {
  static const synth::CityMap* map = [] {
    auto result = synth::GenerateCityMap();
    return new synth::CityMap(std::move(result).value());
  }();
  return *map;
}

// --- Projection round trips across origins -----------------------------------

class ProjectionSweepTest
    : public testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(ProjectionSweepTest, RoundTripAndMetricAccuracy) {
  const geo::LatLon origin{std::get<0>(GetParam()),
                           std::get<1>(GetParam())};
  const geo::LocalProjection proj(origin);
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    const geo::EnPoint p{rng.Uniform(-3000, 3000),
                         rng.Uniform(-3000, 3000)};
    const geo::EnPoint back = proj.Forward(proj.Inverse(p));
    EXPECT_NEAR(back.x, p.x, 1e-6);
    EXPECT_NEAR(back.y, p.y, 1e-6);
    // Planar distance agrees with the great circle to < 0.1%.
    const geo::LatLon a = proj.Inverse(geo::EnPoint{0, 0});
    const geo::LatLon b = proj.Inverse(p);
    const double planar = geo::Norm(p);
    if (planar > 100.0) {
      EXPECT_NEAR(geo::HaversineMeters(a, b) / planar, 1.0, 1e-3);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Origins, ProjectionSweepTest,
    testing::Values(std::make_tuple(65.0121, 25.4682),  // Oulu
                    std::make_tuple(60.17, 24.94),      // Helsinki
                    std::make_tuple(0.0, 0.0),          // equator
                    std::make_tuple(-33.87, 151.21)));  // Sydney

// --- Router metric properties --------------------------------------------------

TEST(RouterPropertyTest, SymmetricOnTwoWayPairsAndTriangleInequality) {
  const roadnet::RoadNetwork& net = TestMap().network;
  const roadnet::Router router(&net);
  Rng rng(13);
  int checked = 0;
  for (int trial = 0; trial < 60 && checked < 20; ++trial) {
    const auto a = static_cast<roadnet::VertexId>(rng.UniformInt(
        0, static_cast<int64_t>(net.num_vertices()) - 1));
    const auto b = static_cast<roadnet::VertexId>(rng.UniformInt(
        0, static_cast<int64_t>(net.num_vertices()) - 1));
    const auto c = static_cast<roadnet::VertexId>(rng.UniformInt(
        0, static_cast<int64_t>(net.num_vertices()) - 1));
    const auto ab = router.ShortestPath(a, b);
    const auto ba = router.ShortestPath(b, a);
    const auto ac = router.ShortestPath(a, c);
    const auto cb = router.ShortestPath(c, b);
    if (!ab.ok() || !ba.ok() || !ac.ok() || !cb.ok()) continue;
    // One-way streets break symmetry only by bounded detours.
    EXPECT_LT(std::abs(ab->length_m - ba->length_m), 900.0);
    // Triangle inequality holds exactly for shortest paths.
    EXPECT_LE(ab->length_m, ac->length_m + cb->length_m + 1e-6);
    ++checked;
  }
  EXPECT_GE(checked, 20);
}

TEST(RouterPropertyTest, PathLengthMatchesGeometryLength) {
  const roadnet::RoadNetwork& net = TestMap().network;
  const roadnet::Router router(&net);
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    const auto a = static_cast<roadnet::VertexId>(rng.UniformInt(
        0, static_cast<int64_t>(net.num_vertices()) - 1));
    const auto b = static_cast<roadnet::VertexId>(rng.UniformInt(
        0, static_cast<int64_t>(net.num_vertices()) - 1));
    const auto path = router.ShortestPath(a, b);
    if (!path.ok()) continue;
    EXPECT_NEAR(path->geometry.Length(), path->length_m,
                1e-6 * std::max(1.0, path->length_m));
  }
}

// --- Segmentation monotonicity ---------------------------------------------

class SegmentationWindowTest : public testing::TestWithParam<double> {};

TEST_P(SegmentationWindowTest, ShorterWindowNeverMergesMore) {
  // A drive with pauses of many durations.
  trace::Trip trip;
  Rng rng(19);
  double t = 0.0, lat = 65.0;
  int64_t id = 1;
  for (int block = 0; block < 12; ++block) {
    for (int k = 0; k < 8; ++k) {
      trace::RoutePoint p;
      p.point_id = id++;
      p.timestamp_s = (t += 10.0);
      p.position = geo::LatLon{lat += 0.0003, 25.47};
      trip.points.push_back(p);
    }
    // A pause of 30..600 s expressed as 30 s keepalives.
    const double pause = rng.Uniform(30.0, 600.0);
    for (double dt = 30.0; dt <= pause; dt += 30.0) {
      trace::RoutePoint p = trip.points.back();
      p.point_id = id++;
      p.timestamp_s = t + dt;
      trip.points.push_back(p);
    }
    t += pause;
  }
  clean::SegmentationOptions narrow;
  narrow.rule1_window_s = GetParam();
  clean::SegmentationOptions wide;
  wide.rule1_window_s = GetParam() * 2.0;
  const auto segments_narrow = clean::SegmentTrip(trip, narrow);
  const auto segments_wide = clean::SegmentTrip(trip, wide);
  EXPECT_GE(segments_narrow.size(), segments_wide.size());
  // Every produced segment is internally time-monotone.
  for (const trace::Trip& seg : segments_narrow) {
    for (size_t i = 1; i < seg.points.size(); ++i) {
      EXPECT_LE(seg.points[i - 1].timestamp_s, seg.points[i].timestamp_s);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, SegmentationWindowTest,
                         testing::Values(60.0, 120.0, 180.0, 300.0));

// --- Order repair under random glitches -----------------------------------

class OrderRepairSweepTest : public testing::TestWithParam<int> {};

TEST_P(OrderRepairSweepTest, RepairRestoresGeometryOrder) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  for (int trial = 0; trial < 20; ++trial) {
    // A straight drive with strictly increasing latitude.
    std::vector<trace::RoutePoint> pts;
    const int n = 8 + static_cast<int>(rng.UniformInt(0, 20));
    for (int i = 0; i < n; ++i) {
      trace::RoutePoint p;
      p.point_id = i + 1;
      p.timestamp_s = 10.0 * i;
      p.position = geo::LatLon{65.0 + 0.0004 * i, 25.47};
      pts.push_back(p);
    }
    // Glitch: swap one field of a few adjacent pairs.
    const bool timestamps = rng.Bernoulli(0.5);
    const int swaps = 1 + static_cast<int>(rng.UniformInt(0, 2));
    for (int s = 0; s < swaps; ++s) {
      const size_t i = static_cast<size_t>(
          rng.UniformInt(1, static_cast<int64_t>(pts.size()) - 2));
      if (timestamps) {
        std::swap(pts[i].timestamp_s, pts[i + 1].timestamp_s);
      } else {
        std::swap(pts[i].point_id, pts[i + 1].point_id);
      }
    }
    clean::RepairPointOrder(&pts);
    for (size_t i = 1; i < pts.size(); ++i) {
      EXPECT_GT(pts[i].position.lat_deg, pts[i - 1].position.lat_deg);
      EXPECT_LE(pts[i - 1].timestamp_s, pts[i].timestamp_s);
      EXPECT_LE(pts[i - 1].point_id, pts[i].point_id);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderRepairSweepTest,
                         testing::Values(1, 2, 3, 4, 5));

// --- REML recovery across variance regimes ---------------------------------

class RemlSweepTest
    : public testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(RemlSweepTest, RecoversVarianceComponents) {
  const double tau = std::get<0>(GetParam());
  const double sigma = std::get<1>(GetParam());
  Rng rng(static_cast<uint64_t>(tau * 100 + sigma));
  model::OneWayReml reml;
  for (int g = 0; g < 150; ++g) {
    const double effect = rng.Gaussian(0.0, tau);
    for (int i = 0; i < 25; ++i) {
      reml.Add(static_cast<size_t>(g),
               20.0 + effect + rng.Gaussian(0.0, sigma));
    }
  }
  const model::OneWayRemlFit fit = reml.Fit().value();
  EXPECT_NEAR(fit.sigma2_residual, sigma * sigma,
              0.15 * sigma * sigma + 0.05);
  EXPECT_NEAR(fit.sigma2_group, tau * tau,
              0.35 * tau * tau + 0.3 * sigma * sigma / 25.0 + 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, RemlSweepTest,
    testing::Values(std::make_tuple(0.5, 4.0), std::make_tuple(2.0, 4.0),
                    std::make_tuple(5.0, 4.0), std::make_tuple(2.0, 1.0),
                    std::make_tuple(2.0, 8.0)));

// --- Matching under increasing GPS noise ------------------------------------

class MatcherNoiseTest : public testing::TestWithParam<double> {};

TEST_P(MatcherNoiseTest, RecoveryDegradesGracefully) {
  const roadnet::SpatialIndex index(&TestMap().network);
  const mapmatch::IncrementalMatcher matcher(&TestMap().network, &index);
  const synth::WeatherModel weather(3, 30);
  const synth::DriverModel driver(&TestMap(), &weather);
  const roadnet::Router router(&TestMap().network);
  synth::SensorOptions sensor_options;
  sensor_options.gps_sigma_m = GetParam();
  sensor_options.outlier_prob = 0.0;
  sensor_options.timestamp_glitch_prob = 0.0;
  sensor_options.id_glitch_prob = 0.0;
  const synth::SensorModel sensor(sensor_options);

  Rng rng(23);
  double jaccard_sum = 0.0;
  int n = 0;
  while (n < 6) {
    const auto a = static_cast<roadnet::VertexId>(rng.UniformInt(
        0, static_cast<int64_t>(TestMap().network.num_vertices()) - 1));
    const auto b = static_cast<roadnet::VertexId>(rng.UniformInt(
        0, static_cast<int64_t>(TestMap().network.num_vertices()) - 1));
    const auto path = router.ShortestPath(a, b);
    if (!path.ok() || path->length_m < 900.0) continue;
    const auto samples = driver.Drive(*path, 3600.0, 1.0, &rng);
    trace::Trip trip;
    int64_t next_id = 1;
    trip.points = sensor.Observe(samples, 1, &next_id,
                                 TestMap().network.projection(), &rng);
    const auto matched = matcher.Match(trip);
    if (!matched.ok()) continue;
    std::vector<roadnet::EdgeId> truth_edges;
    for (const roadnet::PathStep& s : path->steps) {
      truth_edges.push_back(s.edge);
    }
    jaccard_sum +=
        mapmatch::EdgeJaccard(matched->DistinctEdges(), truth_edges);
    ++n;
  }
  // Recovery stays useful even at 3x the calibrated noise.
  EXPECT_GT(jaccard_sum / n, GetParam() <= 8.0 ? 0.6 : 0.4);
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, MatcherNoiseTest,
                         testing::Values(2.0, 6.0, 12.0, 18.0));

// --- Pipeline-integrated interpolation ------------------------------------

TEST(CleaningInterpolationTest, FlagRestoresPoints) {
  // One trip with a moving silent gap.
  trace::TraceStore store;
  trace::Trip trip;
  trip.trip_id = 1;
  trip.car_id = 1;
  for (int i = 0; i < 6; ++i) {
    trace::RoutePoint p;
    p.point_id = i + 1;
    p.timestamp_s = 10.0 * i;
    p.position = geo::LatLon{65.0 + 0.0003 * i, 25.47};
    p.speed_kmh = 30.0;
    trip.points.push_back(p);
  }
  trace::RoutePoint far = trip.points.back();
  far.point_id = 7;
  far.timestamp_s += 120.0;
  far.position.lat_deg += 0.008;  // ~900 m silent hop
  trip.points.push_back(far);
  ASSERT_TRUE(store.AddTrip(trip).ok());

  clean::CleaningOptions off;
  clean::CleaningReport report_off;
  const std::vector<trace::Trip> plain =
      clean::CleanTrips(store, off, &report_off).value();
  clean::CleaningOptions on = off;
  on.restore_lost_points = true;
  clean::CleaningReport report_on;
  const std::vector<trace::Trip> restored =
      clean::CleanTrips(store, on, &report_on).value();

  EXPECT_EQ(report_off.interpolation.points_inserted, 0);
  EXPECT_GT(report_on.interpolation.points_inserted, 0);
  ASSERT_EQ(plain.size(), 1u);
  ASSERT_EQ(restored.size(), 1u);
  EXPECT_GT(restored[0].points.size(), plain[0].points.size());
}

// --- Cleaning-stage properties over random messy traces ---------------------

constexpr uint64_t kTraceSweepSeed = 0x74726163;  // "trac"
constexpr int kTraceSweepSize = 200;

// A deliberately messy trace: a random walk with stand pauses, GPS
// spikes, duplicated points and shuffled arrival order — the same
// defect classes the cleaning stages exist for, each drawn from the
// trace's own MixSeed substream so the sweep is reproducible.
trace::Trip RandomMessyTrace(int index) {
  Rng rng(MixSeed(kTraceSweepSeed, static_cast<uint64_t>(index), 0));
  trace::Trip trip;
  trip.trip_id = index + 1;
  trip.car_id = 1 + index % 7;

  double t = rng.Uniform(0.0, 3600.0);
  geo::LatLon pos{65.0 + rng.Uniform(-0.01, 0.01),
                  25.47 + rng.Uniform(-0.01, 0.01)};
  int64_t id = 1;
  const int blocks = static_cast<int>(rng.UniformInt(2, 6));
  for (int block = 0; block < blocks; ++block) {
    // Driving stretch.
    const int drive_points = static_cast<int>(rng.UniformInt(5, 25));
    for (int k = 0; k < drive_points; ++k) {
      trace::RoutePoint p;
      p.point_id = id++;
      p.trip_id = trip.trip_id;
      p.timestamp_s = t;
      p.position = pos;
      p.speed_kmh = rng.Uniform(5.0, 60.0);
      trip.points.push_back(p);
      t += rng.Uniform(5.0, 45.0);
      pos.lat_deg += rng.Gaussian(0.0, 8e-4);
      pos.lon_deg += rng.Gaussian(0.0, 8e-4);
    }
    // Stand pause: stationary points over a window of minutes.
    if (rng.Bernoulli(0.7)) {
      const int pause_points = static_cast<int>(rng.UniformInt(2, 8));
      for (int k = 0; k < pause_points; ++k) {
        trace::RoutePoint p;
        p.point_id = id++;
        p.trip_id = trip.trip_id;
        p.timestamp_s = t;
        p.position = geo::LatLon{pos.lat_deg + rng.Uniform(-5e-5, 5e-5),
                                 pos.lon_deg + rng.Uniform(-5e-5, 5e-5)};
        p.speed_kmh = 0.0;
        trip.points.push_back(p);
        t += rng.Uniform(60.0, 240.0);
      }
    }
  }

  // GPS spikes.
  for (trace::RoutePoint& p : trip.points) {
    if (rng.Bernoulli(0.03)) p.position.lat_deg += rng.Uniform(0.02, 0.05);
  }
  // Duplicated uploads: same id and timestamp stored twice.
  if (rng.Bernoulli(0.5) && trip.points.size() > 2) {
    const size_t at = static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(trip.points.size()) - 1));
    trip.points.insert(trip.points.begin() + static_cast<ptrdiff_t>(at),
                       trip.points[at]);
  }
  // Out-of-order arrival: a few random swaps.
  const int swaps = static_cast<int>(rng.UniformInt(0, 6));
  for (int s = 0; s < swaps; ++s) {
    const size_t a = static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(trip.points.size()) - 1));
    const size_t b = static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(trip.points.size()) - 1));
    std::swap(trip.points[a], trip.points[b]);
  }
  trip.RecomputeTotals();
  return trip;
}

// Flattened view of the cleaned output that ignores the segment ids
// (re-segmenting renames trip_id*1000+k to (trip_id*1000+k)*1000+0).
std::vector<std::tuple<int64_t, double, double, double, double>>
FlattenPoints(const std::vector<trace::Trip>& trips) {
  std::vector<std::tuple<int64_t, double, double, double, double>> out;
  for (const trace::Trip& t : trips) {
    for (const trace::RoutePoint& p : t.points) {
      out.emplace_back(p.point_id, p.timestamp_s, p.position.lat_deg,
                       p.position.lon_deg, p.speed_kmh);
    }
  }
  return out;
}

TEST(CleaningSweepTest, CleaningIsIdempotent) {
  trace::TraceStore store;
  for (int i = 0; i < kTraceSweepSize; ++i) {
    ASSERT_TRUE(store.AddTrip(RandomMessyTrace(i)).ok());
  }
  clean::CleaningReport first_report;
  const std::vector<trace::Trip> once =
      clean::CleanTrips(store, {}, &first_report).value();
  ASSERT_GT(once.size(), 0u);

  trace::TraceStore cleaned_store;
  for (const trace::Trip& t : once) {
    ASSERT_TRUE(cleaned_store.AddTrip(t).ok());
  }
  clean::CleaningReport second_report;
  const std::vector<trace::Trip> twice =
      clean::CleanTrips(cleaned_store, {}, &second_report).value();

  // Already-clean input: nothing repaired, filtered or re-split.
  EXPECT_EQ(second_report.order.trips_repaired_by_id, 0);
  EXPECT_EQ(second_report.order.trips_repaired_by_timestamp, 0);
  EXPECT_EQ(second_report.outliers.duplicates_removed, 0);
  EXPECT_EQ(second_report.outliers.spikes_removed, 0);
  EXPECT_EQ(second_report.outliers.implied_speed_removed, 0);
  EXPECT_EQ(twice.size(), once.size());
  EXPECT_EQ(FlattenPoints(twice), FlattenPoints(once));
}

TEST(CleaningSweepTest, OrderRepairOutputIsMonotoneInTimestamp) {
  for (int i = 0; i < kTraceSweepSize; ++i) {
    trace::Trip trip = RandomMessyTrace(i);
    clean::OrderRepairStats stats;
    clean::RepairTripOrder(&trip, &stats);
    for (size_t k = 1; k < trip.points.size(); ++k) {
      ASSERT_LE(trip.points[k - 1].timestamp_s, trip.points[k].timestamp_s)
          << "trace " << i << " not monotone at point " << k;
      ASSERT_LE(trip.points[k - 1].point_id, trip.points[k].point_id)
          << "trace " << i << " ids not monotone at point " << k;
    }
  }
}

TEST(CleaningSweepTest, SegmentationNeverKeepsAStopGapInsideASegment) {
  const clean::SegmentationOptions opt;
  for (int i = 0; i < kTraceSweepSize; ++i) {
    trace::Trip trip = RandomMessyTrace(i);
    clean::RepairTripOrder(&trip);  // segmentation expects monotone time
    const std::vector<trace::Trip> segments = clean::SegmentTrip(trip, opt);
    for (const trace::Trip& seg : segments) {
      // No rule-1 stop gap survives in an emitted segment. Replay the
      // splitter's anchor semantics: the anchor moves whenever a point
      // drifts beyond the tolerance, so only time spent near the
      // *current* anchor counts towards the stand-still window.
      if (!seg.points.empty()) {
        trace::RoutePoint anchor = seg.points.front();
        for (size_t k = 1; k < seg.points.size(); ++k) {
          const trace::RoutePoint& p = seg.points[k];
          if (geo::HaversineMeters(anchor.position, p.position) >
              opt.no_change_tolerance_m) {
            anchor = p;
            continue;
          }
          ASSERT_LT(p.timestamp_s - anchor.timestamp_s, opt.rule1_window_s)
              << "trace " << i << ": stationary run of the rule-1 window "
              << "length kept inside segment " << seg.trip_id;
        }
      }
      // And re-segmenting an emitted segment is a no-op (the segment
      // contains no remaining split point under any rule).
      if (trace::PathLengthMeters(seg.points) <= opt.rule5_length_m) {
        const std::vector<trace::Trip> again =
            clean::SegmentTrip(seg, opt);
        ASSERT_EQ(again.size(), 1u)
            << "trace " << i << ": segment " << seg.trip_id
            << " split again on re-segmentation";
        EXPECT_EQ(FlattenPoints(again),
                  FlattenPoints(std::vector<trace::Trip>{seg}));
      }
    }
  }
}

// --- CleanOneTrip against the stage chain it replaced ------------------------
//
// `reference` is the per-trip cleaning chain as it stood before the
// stages shared their step distances: order repair always copies and
// sorts, every stage computes its own great-circle distances, and every
// stage recomputes the trip totals. CleanOneTrip and the public stage
// functions must reproduce it bit for bit on traces that reach every
// branch of it. The only edit is RestoreLostPoints' piece count, clamped
// in double (the generated gaps never reach the clamp).

namespace reference {

using clean::ChosenOrder;

bool SameOrder(const std::vector<trace::RoutePoint>& a,
               const std::vector<trace::RoutePoint>& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].point_id != b[i].point_id) return false;
  }
  return true;
}

void AlignMonotone(std::vector<trace::RoutePoint>* points) {
  std::vector<int64_t> ids;
  std::vector<double> times;
  for (const trace::RoutePoint& p : *points) {
    ids.push_back(p.point_id);
    times.push_back(p.timestamp_s);
  }
  std::sort(ids.begin(), ids.end());
  std::sort(times.begin(), times.end());
  for (size_t i = 0; i < points->size(); ++i) {
    (*points)[i].point_id = ids[i];
    (*points)[i].timestamp_s = times[i];
  }
}

ChosenOrder RepairPointOrder(std::vector<trace::RoutePoint>* points) {
  if (points->size() < 2) return ChosenOrder::kConsistent;
  std::vector<trace::RoutePoint> by_id = *points;
  std::stable_sort(by_id.begin(), by_id.end(),
                   [](const trace::RoutePoint& a, const trace::RoutePoint& b) {
                     return a.point_id < b.point_id;
                   });
  std::vector<trace::RoutePoint> by_time = *points;
  std::stable_sort(by_time.begin(), by_time.end(),
                   [](const trace::RoutePoint& a, const trace::RoutePoint& b) {
                     return a.timestamp_s < b.timestamp_s;
                   });
  if (SameOrder(by_id, by_time)) {
    *points = std::move(by_id);
    return ChosenOrder::kConsistent;
  }
  const double len_id = trace::PathLengthMeters(by_id);
  const double len_time = trace::PathLengthMeters(by_time);
  if (len_id <= len_time) {
    *points = std::move(by_id);
    AlignMonotone(points);
    return ChosenOrder::kById;
  }
  *points = std::move(by_time);
  AlignMonotone(points);
  return ChosenOrder::kByTimestamp;
}

void RepairTripOrder(trace::Trip* trip, clean::OrderRepairStats* stats) {
  const ChosenOrder order = RepairPointOrder(&trip->points);
  trip->RecomputeTotals();
  switch (order) {
    case ChosenOrder::kConsistent:
      ++stats->trips_consistent;
      break;
    case ChosenOrder::kById:
      ++stats->trips_repaired_by_id;
      break;
    case ChosenOrder::kByTimestamp:
      ++stats->trips_repaired_by_timestamp;
      break;
  }
}

bool IsSpike(const trace::RoutePoint& a, const trace::RoutePoint& b,
             const trace::RoutePoint& c,
             const clean::OutlierFilterOptions& options) {
  const double ab = geo::HaversineMeters(a.position, b.position);
  const double bc = geo::HaversineMeters(b.position, c.position);
  if (ab < options.spike_distance_m || bc < options.spike_distance_m) {
    return false;
  }
  const double ac = geo::HaversineMeters(a.position, c.position);
  return ac < options.spike_closeness_ratio * (ab + bc);
}

bool ImpliedSpeedTooHigh(const trace::RoutePoint& a,
                         const trace::RoutePoint& b,
                         const clean::OutlierFilterOptions& options) {
  const double dt = b.timestamp_s - a.timestamp_s;
  if (dt <= 0.0) return false;
  const double d = geo::HaversineMeters(a.position, b.position);
  return d / dt > options.max_implied_speed_ms;
}

void FilterTripOutliers(trace::Trip* trip,
                        const clean::OutlierFilterOptions& options,
                        clean::OutlierFilterStats* stats) {
  std::vector<trace::RoutePoint>& pts = trip->points;
  {
    size_t kept = 0;
    for (size_t r = 0; r < pts.size(); ++r) {
      if (kept > 0 && pts[kept - 1].point_id == pts[r].point_id &&
          pts[kept - 1].timestamp_s == pts[r].timestamp_s) {
        ++stats->duplicates_removed;
        continue;
      }
      if (kept != r) pts[kept] = pts[r];
      ++kept;
    }
    pts.resize(kept);
  }
  bool round_changed = true;
  while (round_changed) {
    round_changed = false;
    size_t i = 1;
    while (pts.size() >= 3 && i + 1 < pts.size()) {
      if (IsSpike(pts[i - 1], pts[i], pts[i + 1], options)) {
        pts.erase(pts.begin() + static_cast<ptrdiff_t>(i));
        ++stats->spikes_removed;
        round_changed = true;
        if (i > 1) --i;
      } else {
        ++i;
      }
    }
    size_t kept = 0;
    for (size_t r = 0; r < pts.size(); ++r) {
      if (kept > 0 && ImpliedSpeedTooHigh(pts[kept - 1], pts[r], options)) {
        ++stats->implied_speed_removed;
        round_changed = true;
        continue;
      }
      if (kept != r) pts[kept] = pts[r];
      ++kept;
    }
    pts.resize(kept);
  }
  trip->RecomputeTotals();
}

void RestoreTripLostPoints(trace::Trip* trip,
                           const clean::InterpolationOptions& options,
                           clean::InterpolationStats* stats) {
  std::vector<trace::RoutePoint>& pts = trip->points;
  if (pts.size() >= 2) {
    std::vector<trace::RoutePoint> out;
    for (size_t i = 0; i < pts.size(); ++i) {
      if (i > 0) {
        const trace::RoutePoint& a = pts[i - 1];
        const trace::RoutePoint& b = pts[i];
        const double dt = b.timestamp_s - a.timestamp_s;
        const double d = geo::HaversineMeters(a.position, b.position);
        if (dt > options.min_gap_s && d > options.min_gap_distance_m) {
          const int pieces = static_cast<int>(
              std::min(static_cast<double>(options.max_points_per_gap) + 1.0,
                       std::floor(dt / options.restored_interval_s)));
          for (int k = 1; k < pieces; ++k) {
            const double t = static_cast<double>(k) / pieces;
            trace::RoutePoint restored = a;
            restored.timestamp_s = a.timestamp_s + t * dt;
            restored.position.lat_deg =
                a.position.lat_deg +
                t * (b.position.lat_deg - a.position.lat_deg);
            restored.position.lon_deg =
                a.position.lon_deg +
                t * (b.position.lon_deg - a.position.lon_deg);
            restored.speed_kmh =
                a.speed_kmh + t * (b.speed_kmh - a.speed_kmh);
            restored.fuel_delta_ml = 0.0;
            out.push_back(restored);
            ++stats->points_inserted;
          }
          if (pieces > 1) ++stats->gaps_restored;
        }
      }
      out.push_back(pts[i]);
    }
    pts = std::move(out);
  }
  trip->RecomputeTotals();
}

int PairStopRule(const trace::RoutePoint& a, const trace::RoutePoint& b,
                 const clean::SegmentationOptions& opt) {
  const double dt = b.timestamp_s - a.timestamp_s;
  if (dt <= 0.0) return 0;
  const double d = geo::HaversineMeters(a.position, b.position);
  const double implied_speed = d / dt;
  if (implied_speed < opt.rule3_speed_ms && dt >= opt.rule1_window_s) {
    return 3;
  }
  if (dt > opt.rule2_window_s && d < opt.rule2_max_move_m) return 2;
  if (dt > opt.rule4_window_s && d < opt.rule4_max_move_m &&
      implied_speed > opt.rule3_speed_ms) {
    return 4;
  }
  return 0;
}

std::vector<std::vector<trace::RoutePoint>> SplitAtStops(
    const std::vector<trace::RoutePoint>& points, double window_s,
    const clean::SegmentationOptions& opt, clean::SegmentationStats* stats,
    int window_rule_index) {
  std::vector<std::vector<trace::RoutePoint>> segments;
  std::vector<trace::RoutePoint> current;
  geo::LatLon anchor_pos{};
  double anchor_time = 0.0;
  bool in_stop = false;
  const auto close_current = [&]() {
    if (!current.empty()) segments.push_back(std::move(current));
    current.clear();
  };
  for (const trace::RoutePoint& p : points) {
    if (in_stop) {
      if (geo::HaversineMeters(anchor_pos, p.position) <=
          opt.no_change_tolerance_m) {
        continue;
      }
      in_stop = false;
      current.clear();
      anchor_pos = p.position;
      anchor_time = p.timestamp_s;
      current.push_back(p);
      continue;
    }
    if (current.empty()) {
      anchor_pos = p.position;
      anchor_time = p.timestamp_s;
      current.push_back(p);
      continue;
    }
    const int pair_rule = PairStopRule(current.back(), p, opt);
    if (pair_rule != 0) {
      ++stats->splits_by_rule[pair_rule - 1];
      close_current();
      anchor_pos = p.position;
      anchor_time = p.timestamp_s;
      current.push_back(p);
      continue;
    }
    if (geo::HaversineMeters(anchor_pos, p.position) >
        opt.no_change_tolerance_m) {
      anchor_pos = p.position;
      anchor_time = p.timestamp_s;
      current.push_back(p);
      continue;
    }
    if (p.timestamp_s - anchor_time >= window_s) {
      ++stats->splits_by_rule[window_rule_index];
      close_current();
      in_stop = true;
      continue;
    }
    current.push_back(p);
  }
  close_current();
  return segments;
}

std::vector<trace::Trip> SegmentTrip(const trace::Trip& trip,
                                     const clean::SegmentationOptions& opt,
                                     clean::SegmentationStats* stats) {
  ++stats->trips_in;
  std::vector<std::vector<trace::RoutePoint>> segments =
      SplitAtStops(trip.points, opt.rule1_window_s, opt, stats, 0);
  std::vector<std::vector<trace::RoutePoint>> final_segments;
  for (std::vector<trace::RoutePoint>& seg : segments) {
    if (trace::PathLengthMeters(seg) <= opt.rule5_length_m) {
      final_segments.push_back(std::move(seg));
      continue;
    }
    for (auto& part : SplitAtStops(seg, opt.rule5_window_s, opt, stats, 4)) {
      final_segments.push_back(std::move(part));
    }
  }
  std::vector<trace::Trip> out;
  for (size_t k = 0; k < final_segments.size(); ++k) {
    trace::Trip seg;
    seg.trip_id = trip.trip_id * 1000 + static_cast<int64_t>(k);
    seg.car_id = trip.car_id;
    seg.points = std::move(final_segments[k]);
    seg.RecomputeTotals();
    out.push_back(std::move(seg));
  }
  stats->segments_out += static_cast<int64_t>(out.size());
  return out;
}

std::vector<trace::Trip> FilterTrips(std::vector<trace::Trip> trips,
                                     const clean::TripFilterOptions& options,
                                     clean::TripFilterStats* stats) {
  std::vector<trace::Trip> out;
  for (trace::Trip& trip : trips) {
    if (trip.points.size() < options.min_points) {
      ++stats->removed_too_few_points;
      continue;
    }
    if (trace::PathLengthMeters(trip.points) > options.max_length_m) {
      ++stats->removed_too_long;
      continue;
    }
    ++stats->kept;
    out.push_back(std::move(trip));
  }
  return out;
}

clean::TripCleanOutput CleanOneTrip(trace::Trip trip,
                                    const clean::CleaningOptions& options) {
  clean::TripCleanOutput out;
  clean::SanitizeTrip(&trip, options.sanitize, &out.faults);
  out.points_after_sanitize = static_cast<int64_t>(trip.points.size());
  if (options.sanitize.enabled && trip.points.empty()) {
    ++out.faults.trips_dropped_empty;
    return out;
  }
  reference::RepairTripOrder(&trip, &out.order);
  reference::FilterTripOutliers(&trip, options.outliers, &out.outliers);
  out.points_after_outliers = static_cast<int64_t>(trip.points.size());
  if (options.restore_lost_points) {
    reference::RestoreTripLostPoints(&trip, options.interpolation,
                                     &out.interpolation);
  }
  out.segments = reference::FilterTrips(
      reference::SegmentTrip(trip, options.segmentation, &out.segmentation),
      options.filter, &out.filter);
  return out;
}

}  // namespace reference

constexpr uint64_t kOracleSeed = 0x6f72636c;  // "orcl"
constexpr int kOracleTrips = 400;

struct OracleCase {
  trace::Trip trip;
  clean::CleaningOptions options;
};

// A trace built to walk every branch of the chain: Table 2 stops of each
// rule, long hauls that only rule 5 re-splits, moving gaps for the
// interpolator, single and chained spikes, implied-speed offenders (a
// leading one included), duplicates, equal timestamps, scrambled storage
// order and swapped ids or timestamps; every fourth trace adds foreign,
// non-finite and out-of-region points under the sanitiser, and a few
// others carry a NaN timestamp straight into order repair.
OracleCase MakeOracleCase(int index) {
  Rng rng(MixSeed(kOracleSeed, static_cast<uint64_t>(index), 0));
  OracleCase c;
  trace::Trip& trip = c.trip;
  trip.trip_id = index + 1;
  trip.car_id = 1 + index % 7;
  std::vector<trace::RoutePoint>& pts = trip.points;

  double t = rng.Uniform(0.0, 3600.0);
  geo::LatLon pos{65.0 + rng.Uniform(-0.01, 0.01),
                  25.47 + rng.Uniform(-0.01, 0.01)};
  int64_t id = 1;
  const auto emit = [&](const geo::LatLon& at, double speed_kmh) {
    trace::RoutePoint p;
    p.point_id = id++;
    p.trip_id = trip.trip_id;
    p.timestamp_s = t;
    p.position = at;
    p.speed_kmh = speed_kmh;
    p.fuel_delta_ml = rng.Uniform(0.0, 5.0);
    pts.push_back(p);
  };
  const auto jitter = [&](const geo::LatLon& at) {
    return geo::LatLon{at.lat_deg + rng.Uniform(-5e-5, 5e-5),
                       at.lon_deg + rng.Uniform(-5e-5, 5e-5)};
  };

  // Long hauls run over 40 km between stops, with short stands that
  // only the 1.5-minute rule-5 window sees.
  const bool long_haul = index % 5 == 0;
  const int blocks = static_cast<int>(rng.UniformInt(2, 6));
  for (int block = 0; block < blocks; ++block) {
    const int drive_points = static_cast<int>(
        long_haul ? rng.UniformInt(180, 260) : rng.UniformInt(5, 25));
    const double step_deg = long_haul ? 2.2e-3 : 8e-4;
    for (int k = 0; k < drive_points; ++k) {
      emit(pos, rng.Uniform(5.0, 60.0));
      if (long_haul && rng.Bernoulli(0.04)) {
        const geo::LatLon stand = pos;
        for (int s = 0; s < 3; ++s) {
          t += rng.Uniform(45.0, 55.0);
          emit(jitter(stand), 0.0);
        }
      }
      t += long_haul ? rng.Uniform(25.0, 45.0) : rng.Uniform(5.0, 45.0);
      pos.lat_deg += rng.Gaussian(0.0, step_deg);
      pos.lon_deg += rng.Gaussian(0.0, step_deg);
    }
    const geo::LatLon last = pts.back().position;
    switch (rng.UniformInt(0, 4)) {
      case 0:  // rule 1: jittered stand over several minutes
        for (int k = static_cast<int>(rng.UniformInt(2, 8)); k > 0; --k) {
          t += rng.Uniform(60.0, 240.0);
          emit(jitter(last), 0.0);
        }
        break;
      case 1:  // rule 3: the very same fix after a long silence
        t += rng.Uniform(200.0, 400.0);
        emit(last, 0.0);
        break;
      case 2:  // rule 2: long silence, short move
        t += rng.Uniform(430.0, 880.0);
        pos.lat_deg += rng.Uniform(0.001, 0.01);
        break;
      case 3:  // rule 4 (when rule 2 is off): longer silence, short move
        t += rng.Uniform(920.0, 1500.0);
        pos.lat_deg += rng.Uniform(0.001, 0.01);
        break;
      default:  // a moving gap the interpolator restores
        t += rng.Uniform(100.0, 400.0);
        pos.lat_deg += rng.Uniform(0.003, 0.015);
        break;
    }
  }

  const auto any_inner = [&]() {
    return static_cast<size_t>(
        rng.UniformInt(1, static_cast<int64_t>(pts.size()) - 2));
  };
  // Single spikes, 2-5 km off the track.
  for (trace::RoutePoint& p : pts) {
    if (rng.Bernoulli(0.03)) p.position.lat_deg += rng.Uniform(0.02, 0.05);
  }
  // A chained spike: two neighbours displaced together.
  if (rng.Bernoulli(0.3) && pts.size() > 4) {
    const size_t k = any_inner() - 1;
    const double off = rng.Uniform(0.01, 0.02);
    pts[k].position.lon_deg += off;
    pts[k + 1].position.lon_deg += off - 0.001;
  }
  // An implied-speed offender too close to be a spike: ~220 m away, 1 s
  // after its predecessor.
  if (rng.Bernoulli(0.4) && pts.size() > 3) {
    const size_t k = any_inner();
    pts[k].position.lat_deg += 0.002;
    pts[k].timestamp_s = pts[k - 1].timestamp_s + 1.0;
  }
  // A leading offender: the first fix is off by ~2 km, 1 s before the
  // second, so the filter drops its successors instead.
  if (rng.Bernoulli(0.1) && pts.size() > 3) {
    pts[0].position.lat_deg += 0.02;
    pts[0].timestamp_s = pts[1].timestamp_s - 1.0;
  }
  // Equal timestamps (dt = 0) on distinct fixes.
  if (rng.Bernoulli(0.3) && pts.size() > 3) {
    const size_t k = any_inner();
    pts[k].timestamp_s = pts[k - 1].timestamp_s;
  }
  // Duplicated uploads.
  if (rng.Bernoulli(0.5) && pts.size() > 2) {
    const size_t k = any_inner();
    pts.insert(pts.begin() + static_cast<ptrdiff_t>(k), pts[k]);
  }
  // Scrambles: storage order (repair keeps it consistent), swapped
  // timestamps (repaired by id) or swapped ids (repaired by timestamp).
  const int64_t scramble = rng.UniformInt(0, 3);
  for (int s = static_cast<int>(rng.UniformInt(1, 4)); s > 0 && scramble > 0;
       --s) {
    const size_t a = any_inner();
    const size_t b = std::min(pts.size() - 1, a + 2);
    if (scramble == 1) std::swap(pts[a], pts[b]);
    if (scramble == 2) std::swap(pts[a].timestamp_s, pts[b].timestamp_s);
    if (scramble == 3) std::swap(pts[a].point_id, pts[b].point_id);
  }

  if (index % 4 == 3) {
    clean::SanitizeOptions& san = c.options.sanitize;
    san.enabled = true;
    san.has_region = true;
    san.lat_min_deg = 64.8;
    san.lat_max_deg = 65.2;
    san.lon_min_deg = 25.0;
    san.lon_max_deg = 26.0;
    for (trace::RoutePoint& p : pts) {
      const double u = rng.Uniform(0.0, 1.0);
      if (u < 0.03) p.trip_id += 1;
      else if (u < 0.06) p.position.lat_deg = std::nan("");
      else if (u < 0.09) p.position.lat_deg += 1.0;
    }
    if (index % 40 == 3) {
      for (trace::RoutePoint& p : pts) p.trip_id += 1;  // nothing left
    }
  } else if (rng.Bernoulli(0.05)) {
    pts[any_inner()].timestamp_s = std::nan("");
  }
  c.options.restore_lost_points = index % 3 == 1;
  if (index % 6 == 2) c.options.segmentation.rule2_window_s = 1e9;
  trip.RecomputeTotals();
  return c;
}

// Bit pattern of a double: NaN != NaN, so equality is taken on bits.
uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

// Plain-integer counter structs compare as bytes.
template <typename Counters>
bool SameCounters(const Counters& a, const Counters& b) {
  static_assert(std::has_unique_object_representations_v<Counters>);
  return std::memcmp(&a, &b, sizeof(Counters)) == 0;
}

testing::AssertionResult SameTrips(const std::vector<trace::Trip>& got,
                                   const std::vector<trace::Trip>& want) {
  if (got.size() != want.size()) {
    return testing::AssertionFailure()
           << got.size() << " trips, want " << want.size();
  }
  for (size_t k = 0; k < got.size(); ++k) {
    const trace::Trip& g = got[k];
    const trace::Trip& w = want[k];
    if (g.trip_id != w.trip_id || g.car_id != w.car_id ||
        Bits(g.total_time_s) != Bits(w.total_time_s) ||
        Bits(g.total_distance_m) != Bits(w.total_distance_m) ||
        Bits(g.total_fuel_ml) != Bits(w.total_fuel_ml)) {
      return testing::AssertionFailure()
             << "trip " << k << " (id " << w.trip_id << "): ids or totals "
             << "differ, distance " << g.total_distance_m << " vs "
             << w.total_distance_m;
    }
    if (g.points.size() != w.points.size()) {
      return testing::AssertionFailure()
             << "trip " << k << ": " << g.points.size() << " points, want "
             << w.points.size();
    }
    for (size_t i = 0; i < g.points.size(); ++i) {
      const trace::RoutePoint& p = g.points[i];
      const trace::RoutePoint& q = w.points[i];
      if (p.point_id != q.point_id || p.trip_id != q.trip_id ||
          Bits(p.timestamp_s) != Bits(q.timestamp_s) ||
          Bits(p.position.lat_deg) != Bits(q.position.lat_deg) ||
          Bits(p.position.lon_deg) != Bits(q.position.lon_deg) ||
          Bits(p.speed_kmh) != Bits(q.speed_kmh) ||
          Bits(p.fuel_delta_ml) != Bits(q.fuel_delta_ml)) {
        return testing::AssertionFailure()
               << "trip " << k << ": point " << i << " differs";
      }
    }
  }
  return testing::AssertionSuccess();
}

testing::AssertionResult SameOutput(const clean::TripCleanOutput& got,
                                    const clean::TripCleanOutput& want) {
  if (got.points_after_sanitize != want.points_after_sanitize ||
      got.points_after_outliers != want.points_after_outliers ||
      !SameCounters(got.order, want.order) ||
      !SameCounters(got.outliers, want.outliers) ||
      !SameCounters(got.interpolation, want.interpolation) ||
      !SameCounters(got.segmentation, want.segmentation) ||
      !SameCounters(got.filter, want.filter) ||
      !SameCounters(got.faults, want.faults)) {
    return testing::AssertionFailure() << "a counter differs";
  }
  return SameTrips(got.segments, want.segments);
}

TEST(CleanOneTripOracleTest, MatchesTheUnsharedStageChainBitForBit) {
  clean::CleaningReport reached;
  for (int i = 0; i < kOracleTrips; ++i) {
    const OracleCase c = MakeOracleCase(i);
    const clean::TripCleanOutput want =
        reference::CleanOneTrip(c.trip, c.options);
    ASSERT_TRUE(SameOutput(clean::CleanOneTrip(c.trip, c.options), want))
        << "trace " << i;
    clean::FoldTripCleanOutput(want, &reached);
  }
  // The sweep reaches every branch it claims to.
  EXPECT_GT(reached.order.trips_consistent, 0);
  EXPECT_GT(reached.order.trips_repaired_by_id, 0);
  EXPECT_GT(reached.order.trips_repaired_by_timestamp, 0);
  EXPECT_GT(reached.outliers.duplicates_removed, 0);
  EXPECT_GT(reached.outliers.spikes_removed, 0);
  EXPECT_GT(reached.outliers.implied_speed_removed, 0);
  EXPECT_GT(reached.interpolation.points_inserted, 0);
  for (int r = 0; r < 5; ++r) {
    EXPECT_GT(reached.segmentation.splits_by_rule[r], 0) << "rule " << r + 1;
  }
  EXPECT_GT(reached.filter.removed_too_few_points, 0);
  EXPECT_GT(reached.filter.removed_too_long, 0);
  EXPECT_GT(reached.filter.kept, 0);
  EXPECT_GT(reached.faults.points_dropped_foreign, 0);
  EXPECT_GT(reached.faults.points_dropped_nonfinite, 0);
  EXPECT_GT(reached.faults.points_dropped_out_of_region, 0);
  EXPECT_GT(reached.faults.trips_dropped_empty, 0);
}

// The public stage functions one at a time, as the benchmark's layer
// pass calls them: each must leave the same points, totals and counters
// as its reference stage.
TEST(CleanOneTripOracleTest, PublicStagesMatchTheirReferenceStages) {
  for (int i = 0; i < kOracleTrips; ++i) {
    OracleCase c = MakeOracleCase(i);
    const clean::CleaningOptions& opt = c.options;
    fault::FaultReport faults;
    clean::SanitizeTrip(&c.trip, opt.sanitize, &faults);
    if (c.trip.points.empty()) continue;
    trace::Trip got = c.trip;
    trace::Trip want = c.trip;
    clean::CleaningReport g;
    clean::CleaningReport w;

    clean::RepairTripOrder(&got, &g.order);
    reference::RepairTripOrder(&want, &w.order);
    ASSERT_TRUE(SameTrips({got}, {want})) << "order repair, trace " << i;
    ASSERT_TRUE(SameCounters(g.order, w.order)) << "trace " << i;

    clean::FilterTripOutliers(&got, opt.outliers, &g.outliers);
    reference::FilterTripOutliers(&want, opt.outliers, &w.outliers);
    ASSERT_TRUE(SameTrips({got}, {want})) << "outlier filter, trace " << i;
    ASSERT_TRUE(SameCounters(g.outliers, w.outliers)) << "trace " << i;

    if (opt.restore_lost_points) {
      clean::RestoreTripLostPoints(&got, opt.interpolation,
                                   &g.interpolation);
      reference::RestoreTripLostPoints(&want, opt.interpolation,
                                       &w.interpolation);
      ASSERT_TRUE(SameTrips({got}, {want})) << "interpolation, trace " << i;
      ASSERT_TRUE(SameCounters(g.interpolation, w.interpolation))
          << "trace " << i;
    }

    std::vector<trace::Trip> got_segments =
        clean::SegmentTrip(got, opt.segmentation, &g.segmentation);
    std::vector<trace::Trip> want_segments =
        reference::SegmentTrip(want, opt.segmentation, &w.segmentation);
    ASSERT_TRUE(SameTrips(got_segments, want_segments))
        << "segmentation, trace " << i;
    ASSERT_TRUE(SameCounters(g.segmentation, w.segmentation))
        << "trace " << i;

    ASSERT_TRUE(SameTrips(
        clean::FilterTrips(std::move(got_segments), opt.filter, &g.filter),
        reference::FilterTrips(std::move(want_segments), opt.filter,
                               &w.filter)))
        << "trip filter, trace " << i;
    ASSERT_TRUE(SameCounters(g.filter, w.filter)) << "trace " << i;
  }
}

// --- Windowed ingestion over adversarial arrival streams ---------------------

constexpr int64_t kIngestSweepLag = 16;

// The messy-trace sweep pushed through the fault injector: duplicated,
// truncated and interleaved trips with glitched points — the worst
// store a stream source will ever be built from.
trace::TraceStore AdversarialStore() {
  std::vector<trace::Trip> trips;
  trips.reserve(kTraceSweepSize);
  for (int i = 0; i < kTraceSweepSize; ++i) {
    trips.push_back(RandomMessyTrace(i));
  }
  fault::FaultInjector injector(fault::FaultPlan::Uniform(0.05));
  fault::FaultReport report;
  injector.CorruptTrips(&trips, &report);
  return fault::RebuildStoreDroppingDuplicates(std::move(trips), &report)
      .value();
}

// The injector writes non-finite coordinates, and NaN breaks tuple
// equality (NaN != NaN), so the stream comparisons flatten to bit
// patterns (Bits, above): byte-identity is exactly the contract being
// proven.
std::vector<std::tuple<int64_t, uint64_t, uint64_t, uint64_t, uint64_t>>
BitFlattenPoints(const std::vector<trace::Trip>& trips) {
  std::vector<std::tuple<int64_t, uint64_t, uint64_t, uint64_t, uint64_t>>
      out;
  for (const trace::Trip& t : trips) {
    for (const trace::RoutePoint& p : t.points) {
      out.emplace_back(p.point_id, Bits(p.timestamp_s),
                       Bits(p.position.lat_deg), Bits(p.position.lon_deg),
                       Bits(p.speed_kmh));
    }
  }
  return out;
}

class ReplaySink final : public trace::TripSink {
 public:
  Status Consume(trace::Trip trip) override {
    trips.push_back(std::move(trip));
    return Status::OK();
  }
  std::vector<trace::Trip> trips;
};

// Bounded-window order repair over the adversarial sweep: displacement
// up to lag / 2 loses nothing and reproduces the batch (store) order
// exactly — window for window, point for point — and re-ingesting the
// released stream is a fixpoint: nothing buffers, nothing repairs.
TEST(IngestWindowSweepTest, BoundedShuffleMatchesBatchOrderAndIsAFixpoint) {
  const trace::TraceStore store = AdversarialStore();
  stream::IngestOptions options;
  options.reorder_lag = kIngestSweepLag;
  for (const stream::CarStream& canonical : stream::BuildCarStreams(store)) {
    std::vector<stream::StreamRecord> arrivals = canonical.records;
    stream::ShuffleArrivals(
        &arrivals,
        MixSeed(kTraceSweepSeed, static_cast<uint64_t>(canonical.car_id), 1),
        kIngestSweepLag / 2);

    ReplaySink sink;
    stream::IngestSession session(canonical.car_id, options, &sink);
    for (const stream::StreamRecord& rec : arrivals) {
      ASSERT_TRUE(session.Ingest(rec).ok());
    }
    ASSERT_TRUE(session.FinishStream().ok());

    const stream::IngestStats& s = session.stats();
    ASSERT_EQ(s.points_dropped_late, 0) << "car " << canonical.car_id;
    ASSERT_EQ(s.trip_markers_dropped_late, 0) << "car " << canonical.car_id;
    ASSERT_EQ(s.slots_declared_lost, 0) << "car " << canonical.car_id;
    ASSERT_EQ(s.windows_opened_implicit, 0) << "car " << canonical.car_id;
    ASSERT_LE(stream::IngestLatencyMax(s), kIngestSweepLag);
    ASSERT_LE(s.peak_buffered_records, kIngestSweepLag);

    // Batch order repair of the same arrivals is the store walk itself:
    // the released windows must replay it exactly.
    std::vector<trace::Trip> batch;
    for (const trace::Trip& t : store.trips()) {
      if (t.car_id == canonical.car_id) batch.push_back(t);
    }
    ASSERT_EQ(sink.trips.size(), batch.size()) << "car " << canonical.car_id;
    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(sink.trips[i].trip_id, batch[i].trip_id);
      ASSERT_EQ(sink.trips[i].total_time_s, batch[i].total_time_s);
    }
    ASSERT_EQ(BitFlattenPoints(sink.trips), BitFlattenPoints(batch))
        << "car " << canonical.car_id;

    // Fixpoint: the released stream is already in canonical order, so a
    // second ingestion repairs nothing — zero latency, zero buffering,
    // zero drops, byte-identical output.
    trace::TraceStore released_store;
    for (const trace::Trip& t : sink.trips) {
      ASSERT_TRUE(released_store.AddTrip(t).ok());
    }
    const stream::CarStream replay =
        stream::BuildCarStream(released_store, canonical.car_id);
    ReplaySink sink_again;
    stream::IngestSession second(canonical.car_id, options, &sink_again);
    for (const stream::StreamRecord& rec : replay.records) {
      ASSERT_TRUE(second.Ingest(rec).ok());
    }
    ASSERT_TRUE(second.FinishStream().ok());
    EXPECT_EQ(stream::IngestLatencyMax(second.stats()), 0);
    EXPECT_EQ(second.stats().peak_buffered_records, 0);
    EXPECT_EQ(second.stats().points_dropped_late, 0);
    EXPECT_EQ(second.stats().slots_declared_lost, 0);
    EXPECT_EQ(BitFlattenPoints(sink_again.trips), BitFlattenPoints(sink.trips));
  }
}

// Displacement far beyond the window (4x the lag) must overwhelm it —
// and every overwhelmed record shows up in the ledger: offered ==
// released + dropped for points and markers alike, the sink holds
// exactly the released points, and the watermark bound still holds.
// Nothing is ever silently lost.
TEST(IngestWindowSweepTest, OutOfWindowArrivalsAreCountedNeverSilent) {
  const trace::TraceStore store = AdversarialStore();
  stream::IngestOptions options;
  options.reorder_lag = kIngestSweepLag;
  int64_t total_dropped = 0;
  int64_t total_lost = 0;
  for (const stream::CarStream& canonical : stream::BuildCarStreams(store)) {
    std::vector<stream::StreamRecord> arrivals = canonical.records;
    stream::ShuffleArrivals(
        &arrivals,
        MixSeed(kTraceSweepSeed, static_cast<uint64_t>(canonical.car_id), 2),
        4 * kIngestSweepLag);

    ReplaySink sink;
    stream::IngestSession session(canonical.car_id, options, &sink);
    for (const stream::StreamRecord& rec : arrivals) {
      ASSERT_TRUE(session.Ingest(rec).ok());
      ASSERT_LE(session.buffered_records(), kIngestSweepLag);
    }
    ASSERT_TRUE(session.FinishStream().ok());

    const stream::IngestStats& s = session.stats();
    ASSERT_EQ(s.points_offered, s.points_released + s.points_dropped_late)
        << "car " << canonical.car_id;
    ASSERT_EQ(s.trip_markers_offered,
              s.trip_markers_released + s.trip_markers_dropped_late)
        << "car " << canonical.car_id;
    int64_t sunk_points = 0;
    for (const trace::Trip& t : sink.trips) {
      sunk_points += static_cast<int64_t>(t.points.size());
    }
    ASSERT_EQ(sunk_points, s.points_released) << "car " << canonical.car_id;
    ASSERT_EQ(static_cast<int64_t>(sink.trips.size()), s.windows_closed);
    total_dropped += s.points_dropped_late + s.trip_markers_dropped_late;
    total_lost += s.slots_declared_lost;
  }
  // The sweep genuinely exercised the overload path.
  EXPECT_GT(total_dropped, 0);
  EXPECT_GT(total_lost, 0);
}

// --- Histogram invariants across seeds and shapes -----------------------------

class HistogramSweepTest : public testing::TestWithParam<int> {};

TEST_P(HistogramSweepTest, QuantilesAreMonotoneAndBounded) {
  const int seed = GetParam();
  Rng rng(static_cast<uint64_t>(seed));
  const double lo = rng.Uniform(-50.0, 0.0);
  const double hi = lo + rng.Uniform(1.0, 100.0);
  Histogram h(lo, hi, 1 + static_cast<int>(rng.UniformInt(1, 64)));
  for (int i = 0; i < 500; ++i) {
    // Deliberately overshoot the range so clamping is exercised too.
    h.Add(rng.Gaussian((lo + hi) / 2.0, (hi - lo)));
  }
  // Quantile is non-decreasing in q and never leaves [lo, hi].
  double prev = h.Quantile(0.0);
  EXPECT_GE(prev, lo);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double cur = h.Quantile(q);
    EXPECT_GE(cur, prev) << "seed " << seed << " q " << q;
    prev = cur;
  }
  EXPECT_LE(h.Quantile(1.0), hi);
  // The mode is the low edge of some bin, so it lies in [lo, hi).
  EXPECT_GE(h.Mode(), lo);
  EXPECT_LT(h.Mode(), hi);
}

TEST_P(HistogramSweepTest, NonFiniteMassNeverMovesQuantiles) {
  const int seed = GetParam();
  Rng rng(static_cast<uint64_t>(seed));
  Histogram clean(0.0, 50.0, 25);
  Histogram dirty(0.0, 50.0, 25);
  for (int i = 0; i < 300; ++i) {
    const double v = rng.Gaussian(25.0, 10.0);
    clean.Add(v);
    dirty.Add(v);
    if (i % 7 == 0) {
      dirty.Add(std::numeric_limits<double>::quiet_NaN());
      dirty.Add(std::numeric_limits<double>::infinity());
    }
  }
  EXPECT_EQ(dirty.total(), clean.total());
  EXPECT_GT(dirty.nonfinite(), 0);
  for (double q = 0.0; q <= 1.0; q += 0.1) {
    EXPECT_DOUBLE_EQ(dirty.Quantile(q), clean.Quantile(q))
        << "seed " << seed << " q " << q;
  }
  EXPECT_DOUBLE_EQ(dirty.Mode(), clean.Mode());
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramSweepTest,
                         testing::Values(1, 2, 3, 5, 8, 13, 21));

}  // namespace
}  // namespace taxitrace
