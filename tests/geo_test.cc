#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "taxitrace/common/random.h"
#include "taxitrace/geo/coordinates.h"
#include "taxitrace/geo/geometry.h"
#include "taxitrace/geo/polygon.h"
#include "taxitrace/geo/polyline.h"

namespace taxitrace {
namespace geo {
namespace {

const LatLon kOulu{65.0121, 25.4682};

// --- Coordinates -------------------------------------------------------------

TEST(HaversineTest, ZeroForSamePoint) {
  EXPECT_DOUBLE_EQ(HaversineMeters(kOulu, kOulu), 0.0);
}

TEST(HaversineTest, OneDegreeLatitudeIsAbout111Km) {
  const LatLon a{60.0, 25.0};
  const LatLon b{61.0, 25.0};
  EXPECT_NEAR(HaversineMeters(a, b), 111194.9, 200.0);
}

TEST(HaversineTest, LongitudeShrinksWithLatitude) {
  const LatLon eq_a{0.0, 25.0}, eq_b{0.0, 26.0};
  const LatLon hi_a{65.0, 25.0}, hi_b{65.0, 26.0};
  const double at_equator = HaversineMeters(eq_a, eq_b);
  const double at_oulu = HaversineMeters(hi_a, hi_b);
  EXPECT_NEAR(at_oulu / at_equator, std::cos(65.0 * M_PI / 180.0), 0.01);
}

TEST(LocalProjectionTest, OriginMapsToZero) {
  const LocalProjection proj(kOulu);
  const EnPoint p = proj.Forward(kOulu);
  EXPECT_NEAR(p.x, 0.0, 1e-9);
  EXPECT_NEAR(p.y, 0.0, 1e-9);
}

TEST(LocalProjectionTest, RoundTripIsExact) {
  const LocalProjection proj(kOulu);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const EnPoint p{rng.Uniform(-2000, 2000), rng.Uniform(-2000, 2000)};
    const EnPoint back = proj.Forward(proj.Inverse(p));
    EXPECT_NEAR(back.x, p.x, 1e-6);
    EXPECT_NEAR(back.y, p.y, 1e-6);
  }
}

TEST(LocalProjectionTest, AgreesWithHaversineNearOrigin) {
  const LocalProjection proj(kOulu);
  const LatLon other{65.0221, 25.4882};
  const EnPoint p = proj.Forward(other);
  EXPECT_NEAR(Norm(p), HaversineMeters(kOulu, other), 2.0);
}

TEST(LocalProjectionTest, NorthIsPositiveYEastPositiveX) {
  const LocalProjection proj(kOulu);
  EXPECT_GT(proj.Forward(LatLon{65.02, 25.4682}).y, 0.0);
  EXPECT_GT(proj.Forward(LatLon{65.0121, 25.48}).x, 0.0);
}

TEST(WktTest, FormatMatchesTable1Style) {
  EXPECT_EQ(ToWktPoint(LatLon{65.0252, 25.5244}),
            "POINT(25.5244, 65.0252)");
  EXPECT_EQ(ToWktPoint(LatLon{65.5, 25.5}, 1), "POINT(25.5, 65.5)");
}

// --- Vector ops ---------------------------------------------------------------

TEST(GeometryTest, VectorArithmetic) {
  const EnPoint a{1, 2}, b{3, -1};
  EXPECT_EQ(a + b, (EnPoint{4, 1}));
  EXPECT_EQ(a - b, (EnPoint{-2, 3}));
  EXPECT_EQ(2.0 * a, (EnPoint{2, 4}));
  EXPECT_DOUBLE_EQ(Dot(a, b), 1.0);
  EXPECT_DOUBLE_EQ(Cross(a, b), -7.0);
  EXPECT_DOUBLE_EQ(Norm(EnPoint{3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(Distance(a, b), std::sqrt(13.0));
}

TEST(GeometryTest, SegmentHeading) {
  EXPECT_NEAR((Segment{{0, 0}, {1, 0}}).Heading(), 0.0, 1e-12);
  EXPECT_NEAR((Segment{{0, 0}, {0, 1}}).Heading(), M_PI / 2, 1e-12);
  EXPECT_NEAR((Segment{{0, 0}, {-1, 0}}).Heading(), M_PI, 1e-12);
  EXPECT_NEAR((Segment{{0, 0}, {0, 0}}).Heading(), 0.0, 1e-12);
}

TEST(GeometryTest, ProjectOntoSegmentInterior) {
  const Segment s{{0, 0}, {10, 0}};
  const PointProjection p = ProjectOntoSegment(EnPoint{4, 3}, s);
  EXPECT_NEAR(p.t, 0.4, 1e-12);
  EXPECT_NEAR(p.point.x, 4.0, 1e-12);
  EXPECT_NEAR(p.distance, 3.0, 1e-12);
}

TEST(GeometryTest, ProjectOntoSegmentClampsToEnds) {
  const Segment s{{0, 0}, {10, 0}};
  EXPECT_EQ(ProjectOntoSegment(EnPoint{-5, 0}, s).t, 0.0);
  EXPECT_EQ(ProjectOntoSegment(EnPoint{15, 0}, s).t, 1.0);
}

TEST(GeometryTest, ProjectOntoDegenerateSegment) {
  const Segment s{{2, 2}, {2, 2}};
  const PointProjection p = ProjectOntoSegment(EnPoint{5, 6}, s);
  EXPECT_EQ(p.point, (EnPoint{2, 2}));
  EXPECT_NEAR(p.distance, 5.0, 1e-12);
}

TEST(GeometryTest, SegmentIntersectionCrossing) {
  const auto hit = SegmentIntersection(Segment{{0, -1}, {0, 1}},
                                       Segment{{-1, 0}, {1, 0}});
  ASSERT_TRUE(hit.has_value());
  EXPECT_NEAR(hit->x, 0.0, 1e-9);
  EXPECT_NEAR(hit->y, 0.0, 1e-9);
}

TEST(GeometryTest, SegmentIntersectionDisjoint) {
  EXPECT_FALSE(SegmentIntersection(Segment{{0, 0}, {1, 0}},
                                   Segment{{0, 1}, {1, 1}})
                   .has_value());
  EXPECT_FALSE(SegmentIntersection(Segment{{0, 0}, {1, 0}},
                                   Segment{{2, -1}, {2, 1}})
                   .has_value());
}

TEST(GeometryTest, SegmentIntersectionTouchingEndpoint) {
  const auto hit = SegmentIntersection(Segment{{0, 0}, {1, 1}},
                                       Segment{{1, 1}, {2, 0}});
  ASSERT_TRUE(hit.has_value());
  EXPECT_NEAR(hit->x, 1.0, 1e-9);
}

TEST(GeometryTest, SegmentIntersectionCollinearOverlap) {
  const auto hit = SegmentIntersection(Segment{{0, 0}, {4, 0}},
                                       Segment{{2, 0}, {6, 0}});
  ASSERT_TRUE(hit.has_value());
  EXPECT_NEAR(hit->y, 0.0, 1e-9);
  EXPECT_GE(hit->x, 2.0 - 1e-9);
  EXPECT_LE(hit->x, 4.0 + 1e-9);
}

TEST(GeometryTest, SegmentIntersectionCollinearDisjoint) {
  EXPECT_FALSE(SegmentIntersection(Segment{{0, 0}, {1, 0}},
                                   Segment{{2, 0}, {3, 0}})
                   .has_value());
}

TEST(GeometryTest, AngleBetweenHeadings) {
  EXPECT_NEAR(AngleBetweenHeadings(0.0, M_PI / 2), M_PI / 2, 1e-12);
  EXPECT_NEAR(AngleBetweenHeadings(0.0, 2 * M_PI), 0.0, 1e-12);
  EXPECT_NEAR(AngleBetweenHeadings(-M_PI + 0.1, M_PI - 0.1), 0.2, 1e-9);
}

// AngleBetweenHeadings calls fmod only at or above 2 pi; below it fmod
// would return its argument exactly. The reference takes fmod always,
// and both must agree bit for bit, NaN payloads included.
TEST(GeometryTest, AngleBetweenHeadingsMatchesFmodReference) {
  const auto reference = [](double h1, double h2) {
    double d = std::fmod(std::abs(h1 - h2), 2.0 * M_PI);
    if (d > M_PI) d = 2.0 * M_PI - d;
    return d;
  };
  const auto expect_same = [&](double h1, double h2) {
    EXPECT_EQ(std::bit_cast<uint64_t>(AngleBetweenHeadings(h1, h2)),
              std::bit_cast<uint64_t>(reference(h1, h2)))
        << "h1=" << h1 << " h2=" << h2;
  };
  Rng rng(20121018);
  for (int i = 0; i < 10000; ++i) {
    // Headings in (-pi, pi], the range Segment::Heading returns.
    const double h1 = -rng.Uniform(-M_PI, M_PI);
    const double h2 = -rng.Uniform(-M_PI, M_PI);
    expect_same(h1, h2);
    expect_same(h1, h2 + M_PI);  // HeadingScore's backward one-way case
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double two_pi = 2.0 * M_PI;
  for (const double x :
       {two_pi, std::nextafter(two_pi, 0.0), std::nextafter(two_pi, kInf),
        1e300, std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
    expect_same(0.0, x);
    expect_same(x, 0.0);
    expect_same(-x, 0.0);
  }
}

TEST(GeometryTest, UndirectedAngleTreatsOppositeAsEqual) {
  EXPECT_NEAR(UndirectedAngleBetweenHeadings(0.0, M_PI), 0.0, 1e-12);
  EXPECT_NEAR(UndirectedAngleBetweenHeadings(0.0, M_PI / 2), M_PI / 2,
              1e-12);
  EXPECT_NEAR(UndirectedAngleBetweenHeadings(0.0, 3 * M_PI / 4), M_PI / 4,
              1e-12);
}

TEST(BboxTest, ExtendAndContains) {
  Bbox box = Bbox::Empty();
  EXPECT_FALSE(box.IsValid());
  box.Extend(EnPoint{1, 2});
  box.Extend(EnPoint{-1, 5});
  EXPECT_TRUE(box.IsValid());
  EXPECT_TRUE(box.Contains(EnPoint{0, 3}));
  EXPECT_FALSE(box.Contains(EnPoint{2, 3}));
  EXPECT_TRUE(box.Contains(EnPoint{1, 2}));  // boundary
}

TEST(BboxTest, InflateAndIntersect) {
  Bbox a = Bbox::Empty();
  a.Extend(EnPoint{0, 0});
  a.Extend(EnPoint{1, 1});
  const Bbox b = a.Inflated(1.0);
  EXPECT_TRUE(b.Contains(EnPoint{-0.5, 1.5}));
  Bbox c = Bbox::Empty();
  c.Extend(EnPoint{3, 3});
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_TRUE(a.Inflated(2.0).Intersects(c));
}

TEST(BboxTest, ExtendWithBox) {
  Bbox a = Bbox::Empty();
  a.Extend(EnPoint{0, 0});
  Bbox b = Bbox::Empty();
  b.Extend(EnPoint{5, -2});
  a.Extend(b);
  EXPECT_TRUE(a.Contains(EnPoint{4, -1}));
  a.Extend(Bbox::Empty());  // no-op
  EXPECT_TRUE(a.IsValid());
}

// --- Polyline ------------------------------------------------------------------

Polyline MakeL() {
  return Polyline({{0, 0}, {10, 0}, {10, 10}});
}

TEST(PolylineTest, Length) {
  EXPECT_DOUBLE_EQ(MakeL().Length(), 20.0);
  EXPECT_DOUBLE_EQ(Polyline().Length(), 0.0);
  EXPECT_DOUBLE_EQ(Polyline({{1, 1}}).Length(), 0.0);
}

TEST(PolylineTest, Interpolate) {
  const Polyline line = MakeL();
  EXPECT_EQ(line.Interpolate(-1.0), (EnPoint{0, 0}));
  EXPECT_EQ(line.Interpolate(5.0), (EnPoint{5, 0}));
  EXPECT_EQ(line.Interpolate(15.0), (EnPoint{10, 5}));
  EXPECT_EQ(line.Interpolate(99.0), (EnPoint{10, 10}));
}

TEST(PolylineTest, ProjectFindsNearestAcrossSegments) {
  const Polyline line = MakeL();
  const PolylineProjection p = line.Project(EnPoint{12, 5});
  EXPECT_EQ(p.segment_index, 1u);
  EXPECT_NEAR(p.distance, 2.0, 1e-12);
  EXPECT_NEAR(p.arc_length, 15.0, 1e-12);
}

TEST(PolylineTest, ProjectOntoCorner) {
  const PolylineProjection p = MakeL().Project(EnPoint{12, -2});
  EXPECT_NEAR(p.point.x, 10.0, 1e-12);
  EXPECT_NEAR(p.point.y, 0.0, 1e-12);
}

TEST(PolylineTest, SegmentHeading) {
  const Polyline line = MakeL();
  EXPECT_NEAR(line.SegmentHeading(0), 0.0, 1e-12);
  EXPECT_NEAR(line.SegmentHeading(1), M_PI / 2, 1e-12);
}

TEST(PolylineTest, Reversed) {
  const Polyline rev = MakeL().Reversed();
  EXPECT_EQ(rev.front(), (EnPoint{10, 10}));
  EXPECT_EQ(rev.back(), (EnPoint{0, 0}));
  EXPECT_DOUBLE_EQ(rev.Length(), 20.0);
}

TEST(PolylineTest, ExtendDropsDuplicateJunctionVertex) {
  Polyline a({{0, 0}, {5, 0}});
  a.Extend(Polyline({{5, 0}, {5, 5}}));
  EXPECT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a.Length(), 10.0);
}

TEST(PolylineTest, ExtendKeepsDistinctVertex) {
  Polyline a({{0, 0}, {5, 0}});
  a.Extend(Polyline({{6, 0}, {6, 5}}));
  EXPECT_EQ(a.size(), 4u);
}

TEST(PolylineTest, ResampleRespectsSpacing) {
  const Polyline dense = MakeL().Resample(1.0);
  EXPECT_GE(dense.size(), 20u);
  EXPECT_NEAR(dense.Length(), 20.0, 1e-9);
  EXPECT_EQ(dense.front(), (EnPoint{0, 0}));
  EXPECT_EQ(dense.back(), (EnPoint{10, 10}));
}

TEST(PolylineTest, SubLineForward) {
  const Polyline sub = MakeL().SubLine(5.0, 15.0);
  EXPECT_NEAR(sub.Length(), 10.0, 1e-9);
  EXPECT_EQ(sub.front(), (EnPoint{5, 0}));
  EXPECT_EQ(sub.back(), (EnPoint{10, 5}));
  EXPECT_EQ(sub.size(), 3u);  // includes the corner vertex
}

TEST(PolylineTest, SubLineReversed) {
  const Polyline sub = MakeL().SubLine(15.0, 5.0);
  EXPECT_EQ(sub.front(), (EnPoint{10, 5}));
  EXPECT_EQ(sub.back(), (EnPoint{5, 0}));
  EXPECT_NEAR(sub.Length(), 10.0, 1e-9);
}

TEST(PolylineTest, SubLineDegenerate) {
  const Polyline sub = MakeL().SubLine(5.0, 5.0);
  EXPECT_GE(sub.size(), 2u);
  EXPECT_NEAR(sub.Length(), 0.0, 1e-9);
}

TEST(PolylineTest, SubLineClamps) {
  const Polyline sub = MakeL().SubLine(-10.0, 100.0);
  EXPECT_NEAR(sub.Length(), 20.0, 1e-9);
}

// Property: splitting at any interior arc preserves total length.
class SubLineSplitTest : public testing::TestWithParam<double> {};

TEST_P(SubLineSplitTest, LengthAdditivity) {
  const Polyline line({{0, 0}, {7, 3}, {10, 10}, {4, 12}});
  const double total = line.Length();
  const double cut = GetParam() * total;
  const double l1 = line.SubLine(0.0, cut).Length();
  const double l2 = line.SubLine(cut, total).Length();
  EXPECT_NEAR(l1 + l2, total, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Cuts, SubLineSplitTest,
                         testing::Values(0.1, 0.25, 0.5, 0.61803, 0.75,
                                         0.9, 0.999));

// --- Polygon --------------------------------------------------------------------

Polygon UnitSquare() {
  return Polygon({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
}

TEST(PolygonTest, ContainsInterior) {
  EXPECT_TRUE(UnitSquare().Contains(EnPoint{0.5, 0.5}));
  EXPECT_FALSE(UnitSquare().Contains(EnPoint{1.5, 0.5}));
  EXPECT_FALSE(UnitSquare().Contains(EnPoint{-0.1, 0.5}));
}

TEST(PolygonTest, ContainsBoundary) {
  EXPECT_TRUE(UnitSquare().Contains(EnPoint{0.0, 0.5}));
  EXPECT_TRUE(UnitSquare().Contains(EnPoint{1.0, 1.0}));
}

TEST(PolygonTest, EmptyPolygonContainsNothing) {
  EXPECT_TRUE(Polygon().empty());
  EXPECT_FALSE(Polygon().Contains(EnPoint{0, 0}));
  EXPECT_FALSE(Polygon({{0, 0}, {1, 1}}).Contains(EnPoint{0.5, 0.5}));
}

TEST(PolygonTest, ConcaveContainment) {
  // A "U" shape: the notch is outside.
  const Polygon u({{0, 0}, {3, 0}, {3, 3}, {2, 3}, {2, 1}, {1, 1},
                   {1, 3}, {0, 3}});
  EXPECT_TRUE(u.Contains(EnPoint{0.5, 2.0}));
  EXPECT_TRUE(u.Contains(EnPoint{2.5, 2.0}));
  EXPECT_FALSE(u.Contains(EnPoint{1.5, 2.0}));  // inside the notch
}

TEST(PolygonTest, IntersectsSegment) {
  const Polygon sq = UnitSquare();
  EXPECT_TRUE(sq.IntersectsSegment(Segment{{-1, 0.5}, {2, 0.5}}));  // pass
  EXPECT_TRUE(sq.IntersectsSegment(Segment{{0.4, 0.4}, {0.6, 0.6}}));
  EXPECT_TRUE(sq.IntersectsSegment(Segment{{0.5, 0.5}, {5, 5}}));
  EXPECT_FALSE(sq.IntersectsSegment(Segment{{-1, -1}, {-1, 2}}));
  EXPECT_FALSE(sq.IntersectsSegment(Segment{{2, 0}, {2, 1}}));
}

TEST(PolygonTest, SignedArea) {
  EXPECT_NEAR(UnitSquare().SignedArea(), 1.0, 1e-12);  // CCW
  const Polygon cw({{0, 0}, {0, 1}, {1, 1}, {1, 0}});
  EXPECT_NEAR(cw.SignedArea(), -1.0, 1e-12);
}

TEST(PolygonTest, MakeRectangle) {
  const Polygon rect = MakeRectangle(Bbox{-1, -2, 3, 4});
  EXPECT_TRUE(rect.Contains(EnPoint{0, 0}));
  EXPECT_FALSE(rect.Contains(EnPoint{4, 0}));
  EXPECT_NEAR(std::abs(rect.SignedArea()), 24.0, 1e-9);
}

TEST(BufferPolylineTest, StraightLineBuffer) {
  const Polygon buf = BufferPolyline(Polyline({{0, 0}, {100, 0}}), 10.0);
  ASSERT_FALSE(buf.empty());
  EXPECT_TRUE(buf.Contains(EnPoint{50, 8}));
  EXPECT_TRUE(buf.Contains(EnPoint{50, -8}));
  EXPECT_FALSE(buf.Contains(EnPoint{50, 12}));
  EXPECT_FALSE(buf.Contains(EnPoint{-5, 0}));  // flat end cap
  EXPECT_NEAR(std::abs(buf.SignedArea()), 2000.0, 1.0);
}

TEST(BufferPolylineTest, BentLineCoversCorner) {
  const Polygon buf =
      BufferPolyline(Polyline({{0, 0}, {50, 0}, {50, 50}}), 10.0);
  EXPECT_TRUE(buf.Contains(EnPoint{50, 0}));   // the corner itself
  EXPECT_TRUE(buf.Contains(EnPoint{45, 5}));
  EXPECT_TRUE(buf.Contains(EnPoint{55, 25}));
  EXPECT_FALSE(buf.Contains(EnPoint{30, 30}));
}

TEST(BufferPolylineTest, DegenerateInputs) {
  EXPECT_TRUE(BufferPolyline(Polyline(), 10.0).empty());
  EXPECT_TRUE(BufferPolyline(Polyline({{0, 0}}), 10.0).empty());
  EXPECT_TRUE(
      BufferPolyline(Polyline({{0, 0}, {1, 0}}), 0.0).empty());
}

// Property: every vertex of the source line lies inside its buffer.
class BufferContainmentTest : public testing::TestWithParam<double> {};

TEST_P(BufferContainmentTest, SourceInsideBuffer) {
  Rng rng(static_cast<uint64_t>(GetParam() * 1000));
  std::vector<EnPoint> pts{{0, 0}};
  for (int i = 0; i < 6; ++i) {
    pts.push_back(pts.back() +
                  EnPoint{rng.Uniform(20, 60), rng.Uniform(-30, 30)});
  }
  const Polyline line(pts);
  const Polygon buf = BufferPolyline(line, GetParam());
  for (const EnPoint& p : line.points()) {
    EXPECT_TRUE(buf.Contains(p));
  }
  const Polyline dense = line.Resample(5.0);
  for (const EnPoint& p : dense.points()) {
    EXPECT_TRUE(buf.Contains(p));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BufferContainmentTest,
                         testing::Values(5.0, 10.0, 25.0, 60.0));

}  // namespace
}  // namespace geo
}  // namespace taxitrace
