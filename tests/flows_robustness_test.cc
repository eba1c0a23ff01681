// Tests for the flow/diagnostic utilities plus fuzz-style robustness
// checks: random garbage into every parser must yield a Status, never a
// crash or an invalid object.

#include <gtest/gtest.h>

#include "taxitrace/analysis/od_matrix.h"
#include "taxitrace/common/csv.h"
#include "taxitrace/common/random.h"
#include "taxitrace/mapmatch/match_report.h"
#include "taxitrace/roadnet/map_io.h"
#include "taxitrace/synth/fleet_simulator.h"
#include "taxitrace/trace/trace_io.h"

namespace taxitrace {
namespace {

// --- OD matrix ---------------------------------------------------------------

trace::Trip TripBetween(const geo::LocalProjection& proj,
                        const geo::EnPoint& from, const geo::EnPoint& to,
                        double t0 = 0.0) {
  trace::Trip trip;
  for (int i = 0; i <= 4; ++i) {
    trace::RoutePoint p;
    p.point_id = i + 1;
    p.timestamp_s = t0 + 60.0 * i;
    const double t = i / 4.0;
    p.position = proj.Inverse(from + t * (to - from));
    trip.points.push_back(p);
  }
  return trip;
}

TEST(OdMatrixTest, CountsFlowsBetweenZones) {
  const geo::LocalProjection proj(geo::LatLon{65.0, 25.47});
  // Zones are 600 m: (100,100) is zone (0,0); (1500,100) is zone (2,0).
  const trace::Trip a = TripBetween(proj, {100, 100}, {1500, 100});
  const trace::Trip b = TripBetween(proj, {200, 150}, {1400, 50});
  const trace::Trip back = TripBetween(proj, {1500, 100}, {100, 100});
  const trace::Trip intra = TripBetween(proj, {100, 100}, {300, 100});
  const auto flows =
      analysis::BuildOdMatrix({&a, &b, &back, &intra}, proj);
  ASSERT_GE(flows.size(), 3u);
  // The (0,0)->(2,0) flow has two trips and sorts first.
  EXPECT_EQ(flows[0].trips, 2);
  EXPECT_EQ(flows[0].origin, (analysis::CellId{0, 0}));
  EXPECT_EQ(flows[0].destination, (analysis::CellId{2, 0}));
  EXPECT_NEAR(flows[0].mean_distance_km, 1.35, 0.15);
  EXPECT_NEAR(flows[0].mean_duration_min, 4.0, 1e-6);
  EXPECT_EQ(analysis::TotalFlows(flows), 4);
  EXPECT_NEAR(analysis::IntraZoneShare(flows), 0.25, 1e-9);
}

TEST(OdMatrixTest, IgnoresDegenerateTrips) {
  const geo::LocalProjection proj(geo::LatLon{65.0, 25.47});
  trace::Trip tiny;
  tiny.points.resize(1);
  EXPECT_TRUE(analysis::BuildOdMatrix({&tiny, nullptr}, proj).empty());
  EXPECT_DOUBLE_EQ(analysis::IntraZoneShare({}), 0.0);
}

// --- Match report --------------------------------------------------------------

TEST(MatchReportTest, Aggregates) {
  mapmatch::MatchedRoute a;
  a.points = {mapmatch::MatchedPoint{0, {}, 4.0},
              mapmatch::MatchedPoint{1, {}, 8.0}};
  a.points_skipped = 1;
  a.gaps_filled = 2;
  a.length_m = 2000.0;
  mapmatch::MatchedRoute b;
  b.points = {mapmatch::MatchedPoint{0, {}, 12.0}};
  b.length_m = 1000.0;

  mapmatch::MatchReport report;
  report.Add(a);
  report.Add(b);
  EXPECT_EQ(report.routes, 2);
  EXPECT_EQ(report.matched_points, 3);
  EXPECT_EQ(report.skipped_points, 1);
  EXPECT_NEAR(report.mean_snap_distance_m, 8.0, 1e-9);
  EXPECT_DOUBLE_EQ(report.max_snap_distance_m, 12.0);
  EXPECT_NEAR(report.SkipRate(), 0.25, 1e-9);
  EXPECT_NEAR(report.GapsPerKm(), 2.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(mapmatch::MatchReport{}.SkipRate(), 0.0);
  EXPECT_DOUBLE_EQ(mapmatch::MatchReport{}.GapsPerKm(), 0.0);
}

// --- Demand curve -----------------------------------------------------------------

TEST(TaxiDemandTest, WeekdayPeaksAndNightLull) {
  EXPECT_GT(synth::TaxiDemandWeight(8.0, false),
            synth::TaxiDemandWeight(12.0, false));
  EXPECT_GT(synth::TaxiDemandWeight(16.0, false),
            synth::TaxiDemandWeight(12.0, false));
  EXPECT_LT(synth::TaxiDemandWeight(3.0, false),
            synth::TaxiDemandWeight(12.0, false));
  // Weekend: the evening peak dominates the morning.
  EXPECT_GT(synth::TaxiDemandWeight(22.0, true),
            synth::TaxiDemandWeight(8.0, true));
  // Wrap-around hours behave.
  EXPECT_DOUBLE_EQ(synth::TaxiDemandWeight(25.0, false),
                   synth::TaxiDemandWeight(1.0, false));
  EXPECT_DOUBLE_EQ(synth::TaxiDemandWeight(-2.0, false),
                   synth::TaxiDemandWeight(22.0, false));
}

// --- Parser robustness (fuzz-style) ------------------------------------------------

std::string RandomGarbage(Rng* rng, size_t max_len) {
  const size_t len =
      static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(max_len)));
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    // Bias towards structural characters to hit parser states.
    const char structural[] = {',', '"', '\n', '\r', ':', '|', '.', '-'};
    if (rng->Bernoulli(0.4)) {
      out.push_back(structural[rng->UniformInt(0, 7)]);
    } else {
      out.push_back(static_cast<char>(rng->UniformInt(32, 126)));
    }
  }
  return out;
}

TEST(ParserRobustnessTest, CsvNeverCrashes) {
  Rng rng(101);
  for (int trial = 0; trial < 500; ++trial) {
    const std::string garbage = RandomGarbage(&rng, 300);
    const auto parsed = ParseCsv(garbage);
    if (parsed.ok()) {
      // Parsed rows must serialise and re-parse identically.
      const auto again = ParseCsv(WriteCsv(*parsed));
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(*again, *parsed);
    }
  }
}

TEST(ParserRobustnessTest, TripsFromCsvNeverCrashes) {
  Rng rng(103);
  for (int trial = 0; trial < 300; ++trial) {
    std::string garbage =
        "trip_id,car_id,point_id,timestamp_s,lat,lon,speed_kmh,"
        "fuel_delta_ml\n" +
        RandomGarbage(&rng, 200);
    const auto parsed = trace::TripsFromCsv(garbage);
    if (parsed.ok()) {
      for (const trace::Trip& t : *parsed) {
        EXPECT_GE(t.points.size(), 1u);
      }
    }
  }
}

TEST(ParserRobustnessTest, ElementsFromCsvNeverCrashes) {
  Rng rng(107);
  for (int trial = 0; trial < 300; ++trial) {
    std::string garbage =
        "id,name,functional_class,speed_limit_kmh,direction,geometry\n" +
        RandomGarbage(&rng, 200);
    const auto parsed = roadnet::ElementsFromCsv(garbage);
    if (parsed.ok()) {
      for (const roadnet::TrafficElement& el : *parsed) {
        EXPECT_GE(el.geometry.size(), 1u);
      }
    }
  }
}

TEST(ParserRobustnessTest, FeaturesFromCsvNeverCrashes) {
  Rng rng(109);
  for (int trial = 0; trial < 300; ++trial) {
    const std::string garbage =
        "type,x,y\n" + RandomGarbage(&rng, 150);
    const auto parsed = roadnet::FeaturesFromCsv(garbage);
    (void)parsed;  // must simply not crash / UB
  }
}

}  // namespace
}  // namespace taxitrace
