// Planar geometry kernel on local east/north coordinates.
//
// The arithmetic primitives (vector ops, norms, projections, heading
// math) are defined inline here: the simulator and matcher call them
// tens of millions of times per study, and keeping them visible to the
// caller's optimizer removes the per-call overhead and lets the hot
// loops vectorise.

#ifndef TAXITRACE_GEO_GEOMETRY_H_
#define TAXITRACE_GEO_GEOMETRY_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "taxitrace/geo/coordinates.h"

namespace taxitrace {
namespace geo {

/// Vector arithmetic on EnPoint.
inline EnPoint operator+(const EnPoint& a, const EnPoint& b) {
  return EnPoint{a.x + b.x, a.y + b.y};
}
inline EnPoint operator-(const EnPoint& a, const EnPoint& b) {
  return EnPoint{a.x - b.x, a.y - b.y};
}
inline EnPoint operator*(double s, const EnPoint& p) {
  return EnPoint{s * p.x, s * p.y};
}

/// Dot and 2-D cross products.
inline double Dot(const EnPoint& a, const EnPoint& b) {
  return a.x * b.x + a.y * b.y;
}
inline double Cross(const EnPoint& a, const EnPoint& b) {
  return a.x * b.y - a.y * b.x;
}

/// Euclidean norm and distance, metres. sqrt(x^2 + y^2) rather than
/// std::hypot: local east/north coordinates are bounded by the city
/// extent (well under 1e8 m), so the squares cannot overflow and the
/// libm over/underflow-safe path would only cost ~2x per call.
inline double Norm(const EnPoint& p) {
  return std::sqrt(p.x * p.x + p.y * p.y);
}
inline double Distance(const EnPoint& a, const EnPoint& b) {
  return Norm(b - a);
}

/// A directed line segment.
struct Segment {
  EnPoint a;
  EnPoint b;

  /// Segment length, metres.
  [[nodiscard]] double Length() const { return Distance(a, b); }

  /// Direction of travel a->b in radians, measured counterclockwise from
  /// east, in (-pi, pi]. Zero-length segments report 0.
  [[nodiscard]] double Heading() const {
    const EnPoint d = b - a;
    if (d.x == 0.0 && d.y == 0.0) return 0.0;
    return std::atan2(d.y, d.x);
  }
};

/// Result of projecting a point onto a segment.
struct PointProjection {
  EnPoint point;   ///< Closest point on the segment.
  double t = 0.0;  ///< Parameter along a->b clamped to [0, 1].
  double distance = 0.0;  ///< Distance from the query to `point`.
};

/// Closest point on `s` to `p` (clamped to the segment).
inline PointProjection ProjectOntoSegment(const EnPoint& p,
                                          const Segment& s) {
  const EnPoint d = s.b - s.a;
  const double len2 = Dot(d, d);
  PointProjection out;
  if (len2 == 0.0) {
    out.point = s.a;
    out.t = 0.0;
  } else {
    out.t = std::clamp(Dot(p - s.a, d) / len2, 0.0, 1.0);
    out.point = s.a + out.t * d;
  }
  out.distance = Distance(p, out.point);
  return out;
}

/// Proper or touching intersection point of two segments, if any. For
/// collinear overlapping segments returns one point of the overlap.
std::optional<EnPoint> SegmentIntersection(const Segment& s1,
                                           const Segment& s2);

/// Smallest absolute angle between two headings, in [0, pi]. fmod is
/// exact and returns its argument below the modulus, so it runs only
/// when |h1 - h2| is not below 2 pi (NaN and infinities included): the
/// result is fmod's bit for bit, without the libm call for headings
/// already in (-pi, pi].
inline double AngleBetweenHeadings(double h1, double h2) {
  double d = std::abs(h1 - h2);
  if (!(d < 2.0 * M_PI)) d = std::fmod(d, 2.0 * M_PI);
  if (d > M_PI) d = 2.0 * M_PI - d;
  return d;
}

/// Smallest absolute angle between two headings treating opposite
/// directions as equal (for undirected road geometry), in [0, pi/2].
inline double UndirectedAngleBetweenHeadings(double h1, double h2) {
  const double d = AngleBetweenHeadings(h1, h2);
  return d > M_PI / 2.0 ? M_PI - d : d;
}

/// Axis-aligned bounding box.
struct Bbox {
  double min_x = 0.0, min_y = 0.0, max_x = 0.0, max_y = 0.0;

  /// An inverted (empty) box that any Extend() fixes up.
  static Bbox Empty() {
    constexpr double inf = std::numeric_limits<double>::infinity();
    return Bbox{inf, inf, -inf, -inf};
  }

  /// True once at least one point has been added.
  [[nodiscard]] bool IsValid() const {
    return min_x <= max_x && min_y <= max_y;
  }

  /// Grows the box to include `p`.
  void Extend(const EnPoint& p) {
    min_x = std::min(min_x, p.x);
    min_y = std::min(min_y, p.y);
    max_x = std::max(max_x, p.x);
    max_y = std::max(max_y, p.y);
  }

  /// Grows the box to include all of `other`.
  void Extend(const Bbox& other) {
    if (!other.IsValid()) return;
    min_x = std::min(min_x, other.min_x);
    min_y = std::min(min_y, other.min_y);
    max_x = std::max(max_x, other.max_x);
    max_y = std::max(max_y, other.max_y);
  }

  /// Grows by `margin` metres on every side.
  [[nodiscard]] Bbox Inflated(double margin) const {
    return Bbox{min_x - margin, min_y - margin, max_x + margin,
                max_y + margin};
  }

  /// True when `p` lies inside or on the boundary.
  [[nodiscard]] bool Contains(const EnPoint& p) const {
    return p.x >= min_x && p.x <= max_x && p.y >= min_y && p.y <= max_y;
  }

  /// True when the two boxes overlap (boundary touch counts).
  [[nodiscard]] bool Intersects(const Bbox& other) const {
    return min_x <= other.max_x && other.min_x <= max_x &&
           min_y <= other.max_y && other.min_y <= max_y;
  }
};

}  // namespace geo
}  // namespace taxitrace

#endif  // TAXITRACE_GEO_GEOMETRY_H_
