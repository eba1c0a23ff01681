#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "taxitrace/clean/interpolation.h"

namespace taxitrace {
namespace clean {
namespace {

trace::RoutePoint Point(int64_t id, double t, double lat, double lon,
                        double speed = 30.0) {
  trace::RoutePoint p;
  p.point_id = id;
  p.timestamp_s = t;
  p.position = geo::LatLon{lat, lon};
  p.speed_kmh = speed;
  p.fuel_delta_ml = 1.0;
  return p;
}

TEST(InterpolationTest, RestoresMovingGap) {
  // 120 s silent gap across ~1.1 km of movement.
  std::vector<trace::RoutePoint> pts = {
      Point(1, 0.0, 65.000, 25.47, 30.0),
      Point(2, 120.0, 65.010, 25.47, 40.0),
  };
  InterpolationStats stats;
  InterpolationOptions options;
  RestoreLostPoints(&pts, options, &stats);
  EXPECT_EQ(stats.gaps_restored, 1);
  EXPECT_EQ(stats.points_inserted, 3);  // 120/30 = 4 pieces -> 3 points
  ASSERT_EQ(pts.size(), 5u);
  // Interpolated points are monotone in time and position, with
  // interpolated speed and zero fuel.
  for (size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GT(pts[i].timestamp_s, pts[i - 1].timestamp_s);
    EXPECT_GT(pts[i].position.lat_deg, pts[i - 1].position.lat_deg);
  }
  EXPECT_NEAR(pts[2].timestamp_s, 60.0, 1e-9);
  EXPECT_NEAR(pts[2].position.lat_deg, 65.005, 1e-9);
  EXPECT_NEAR(pts[2].speed_kmh, 35.0, 1e-9);
  EXPECT_DOUBLE_EQ(pts[2].fuel_delta_ml, 0.0);
}

TEST(InterpolationTest, StationaryGapUntouched) {
  // 10-minute stand wait: a genuine stop, not lost data.
  std::vector<trace::RoutePoint> pts = {
      Point(1, 0.0, 65.0, 25.47, 0.0),
      Point(2, 600.0, 65.0001, 25.47, 0.0),  // ~11 m of GPS wobble
  };
  InterpolationStats stats;
  RestoreLostPoints(&pts, {}, &stats);
  EXPECT_EQ(stats.gaps_restored, 0);
  EXPECT_EQ(pts.size(), 2u);
}

TEST(InterpolationTest, DenseTraceUntouched) {
  std::vector<trace::RoutePoint> pts;
  for (int i = 0; i < 20; ++i) {
    pts.push_back(Point(i + 1, 10.0 * i, 65.0 + 0.0005 * i, 25.47));
  }
  InterpolationStats stats;
  RestoreLostPoints(&pts, {}, &stats);
  EXPECT_EQ(stats.points_inserted, 0);
  EXPECT_EQ(pts.size(), 20u);
}

TEST(InterpolationTest, CapsPointsPerGap) {
  std::vector<trace::RoutePoint> pts = {
      Point(1, 0.0, 65.00, 25.47),
      Point(2, 3600.0, 65.05, 25.47),  // one hour, ~5.5 km
  };
  InterpolationOptions options;
  options.max_points_per_gap = 5;
  InterpolationStats stats;
  RestoreLostPoints(&pts, options, &stats);
  EXPECT_EQ(stats.points_inserted, 5);
  EXPECT_EQ(pts.size(), 7u);
}

TEST(InterpolationTest, HugeAndInfiniteGapsInsertTheCap) {
  // The piece count of these gaps (3.3e10 and infinity) does not fit an
  // int; it is clamped to the cap before the cast.
  const double gaps[] = {1e12, std::numeric_limits<double>::infinity()};
  for (const double end : gaps) {
    std::vector<trace::RoutePoint> pts = {
        Point(1, 0.0, 65.00, 25.47),
        Point(2, end, 65.05, 25.47),
    };
    InterpolationOptions options;
    InterpolationStats stats;
    RestoreLostPoints(&pts, options, &stats);
    EXPECT_EQ(stats.gaps_restored, 1) << end;
    EXPECT_EQ(stats.points_inserted, options.max_points_per_gap) << end;
    ASSERT_EQ(pts.size(),
              2u + static_cast<size_t>(options.max_points_per_gap));
    for (size_t i = 1; i < pts.size(); ++i) {
      EXPECT_GT(pts[i].position.lat_deg, pts[i - 1].position.lat_deg);
    }
  }
}

TEST(InterpolationTest, TripWrapperRecomputesTotals) {
  trace::Trip trip;
  trip.points = {Point(1, 0.0, 65.000, 25.47),
                 Point(2, 150.0, 65.010, 25.47)};
  RestoreTripLostPoints(&trip);
  EXPECT_GT(trip.points.size(), 2u);
  EXPECT_NEAR(trip.total_time_s, 150.0, 1e-9);
  EXPECT_GT(trip.total_distance_m, 1000.0);
}

TEST(InterpolationTest, ShortSequencesIgnored) {
  std::vector<trace::RoutePoint> empty;
  RestoreLostPoints(&empty);
  EXPECT_TRUE(empty.empty());
  std::vector<trace::RoutePoint> one = {Point(1, 0, 65, 25)};
  RestoreLostPoints(&one);
  EXPECT_EQ(one.size(), 1u);
}

}  // namespace
}  // namespace clean
}  // namespace taxitrace
