// Polylines: the geometry of traffic elements, edges and driven routes.
//
// Project, Interpolate and SubLine walk the line segment by segment and
// need each segment's length. A caller that keeps them precomputed (the
// road network's per-edge tables) passes them as `segment_lengths`:
// entry i must be Distance(points()[i], points()[i + 1]), the exact
// value the walk would compute, so the result is bit-identical either
// way. An empty span means "compute them here".

#ifndef TAXITRACE_GEO_POLYLINE_H_
#define TAXITRACE_GEO_POLYLINE_H_

#include <span>
#include <vector>

#include "taxitrace/geo/geometry.h"

namespace taxitrace {
namespace geo {

/// The nearest location on a polyline to a query point.
struct PolylineProjection {
  EnPoint point;            ///< Closest point on the polyline.
  size_t segment_index = 0; ///< Index of the segment containing it.
  double t = 0.0;           ///< Parameter within that segment, [0, 1].
  double arc_length = 0.0;  ///< Distance from the start along the line.
  double distance = 0.0;    ///< Distance from the query point.
};

/// An ordered sequence of vertices in the local metric frame.
class Polyline {
 public:
  Polyline() = default;
  explicit Polyline(std::vector<EnPoint> points);

  [[nodiscard]] const std::vector<EnPoint>& points() const { return points_; }
  [[nodiscard]] bool empty() const { return points_.empty(); }
  [[nodiscard]] size_t size() const { return points_.size(); }
  [[nodiscard]] const EnPoint& front() const { return points_.front(); }
  [[nodiscard]] const EnPoint& back() const { return points_.back(); }

  /// Appends a vertex.
  void Append(const EnPoint& p);

  /// Total arc length, metres.
  [[nodiscard]] double Length() const;

  /// Point at arc length `s` from the start, clamped to the line ends.
  /// `segment_lengths`: empty, or size() - 1 precomputed lengths (see
  /// the file comment).
  [[nodiscard]] EnPoint Interpolate(
      double s, std::span<const double> segment_lengths = {}) const;

  /// Nearest location on the line to `p`. Requires a non-empty line.
  /// `segment_lengths` as for Interpolate.
  [[nodiscard]] PolylineProjection Project(
      const EnPoint& p, std::span<const double> segment_lengths = {}) const;

  /// Heading of the segment at index `i` (radians CCW from east).
  [[nodiscard]] double SegmentHeading(size_t i) const;

  /// Bounding box of all vertices.
  [[nodiscard]] Bbox Bounds() const;

  /// A copy with vertices in reverse order.
  [[nodiscard]] Polyline Reversed() const;

  /// Concatenates `other` onto the end; when the junction vertices
  /// coincide (within 1e-6 m) the duplicate is dropped.
  void Extend(const Polyline& other);

  /// Evenly resampled copy with samples at most `max_spacing` metres
  /// apart. Always keeps the original endpoints.
  [[nodiscard]] Polyline Resample(double max_spacing) const;

  /// The part of the line between arc lengths `s0` and `s1` (clamped to
  /// [0, Length()]; the total is the in-order sum of the segment
  /// lengths, so it equals Length() bit for bit). When s0 > s1 the
  /// result runs backwards along the line. `segment_lengths` as for
  /// Interpolate.
  [[nodiscard]] Polyline SubLine(
      double s0, double s1,
      std::span<const double> segment_lengths = {}) const;

 private:
  std::vector<EnPoint> points_;
};

}  // namespace geo
}  // namespace taxitrace

#endif  // TAXITRACE_GEO_POLYLINE_H_
