#include "taxitrace/geo/polyline.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "taxitrace/common/check.h"

namespace taxitrace {
namespace geo {
namespace {

// Length of segment i of `pts`: the caller's precomputed entry, or the
// same Distance computed here.
double SegmentLength(const std::vector<EnPoint>& pts,
                     std::span<const double> segment_lengths, size_t i) {
  return segment_lengths.empty() ? Distance(pts[i], pts[i + 1])
                                 : segment_lengths[i];
}

// The junction rule of every append: a first vertex within 1e-6 m of
// the line's last one is a duplicate and is dropped.
bool Coincide(const EnPoint& last, const EnPoint& first) {
  return Distance(last, first) < 1e-6;
}

}  // namespace

Polyline::Polyline(std::vector<EnPoint> points) : points_(std::move(points)) {}

void Polyline::Append(const EnPoint& p) { points_.push_back(p); }

double Polyline::Length() const {
  double total = 0.0;
  for (size_t i = 1; i < points_.size(); ++i) {
    total += Distance(points_[i - 1], points_[i]);
  }
  return total;
}

EnPoint Polyline::Interpolate(double s,
                              std::span<const double> segment_lengths) const {
  TT_DCHECK(segment_lengths.empty() ||
            segment_lengths.size() + 1 == points_.size());
  if (points_.empty()) return EnPoint{};
  if (s <= 0.0) return points_.front();
  for (size_t i = 1; i < points_.size(); ++i) {
    const double seg = SegmentLength(points_, segment_lengths, i - 1);
    if (s <= seg) {
      if (seg == 0.0) return points_[i];
      const double t = s / seg;
      return points_[i - 1] + t * (points_[i] - points_[i - 1]);
    }
    s -= seg;
  }
  return points_.back();
}

PolylineProjection Polyline::Project(
    const EnPoint& p, std::span<const double> segment_lengths) const {
  TT_DCHECK(segment_lengths.empty() ||
            segment_lengths.size() + 1 == points_.size());
  PolylineProjection best;
  best.distance = std::numeric_limits<double>::infinity();
  if (points_.empty()) return best;
  if (points_.size() == 1) {
    best = PolylineProjection{points_[0], 0, 0.0, 0.0, Distance(p, points_[0])};
    return best;
  }
  double arc = 0.0;
  for (size_t i = 0; i + 1 < points_.size(); ++i) {
    const PointProjection proj =
        ProjectOntoSegment(p, Segment{points_[i], points_[i + 1]});
    const double len = SegmentLength(points_, segment_lengths, i);
    if (proj.distance < best.distance) {
      best.point = proj.point;
      best.segment_index = i;
      best.t = proj.t;
      best.arc_length = arc + proj.t * len;
      best.distance = proj.distance;
    }
    arc += len;
  }
  return best;
}

double Polyline::SegmentHeading(size_t i) const {
  return Segment{points_[i], points_[i + 1]}.Heading();
}

Bbox Polyline::Bounds() const {
  Bbox box = Bbox::Empty();
  for (const EnPoint& p : points_) box.Extend(p);
  return box;
}

Polyline Polyline::Reversed() const {
  std::vector<EnPoint> rev(points_.rbegin(), points_.rend());
  return Polyline(std::move(rev));
}

void Polyline::Extend(const Polyline& other) {
  auto first = other.points_.begin();
  if (first != other.points_.end() && !points_.empty() &&
      Coincide(points_.back(), *first)) {
    ++first;
  }
  points_.insert(points_.end(), first, other.points_.end());
}

void Polyline::ExtendReversed(const Polyline& other) {
  TT_DCHECK(&other != this);
  auto first = other.points_.rbegin();
  if (first != other.points_.rend() && !points_.empty() &&
      Coincide(points_.back(), *first)) {
    ++first;
  }
  points_.insert(points_.end(), first, other.points_.rend());
}

void Polyline::ExtendSubLine(const Polyline& line, double s0, double s1,
                             std::span<const double> segment_lengths) {
  TT_DCHECK(&line != this);
  const std::vector<EnPoint>& pts = line.points_;
  TT_DCHECK(segment_lengths.empty() ||
            segment_lengths.size() + 1 == pts.size());
  if (pts.size() < 2) {
    Extend(line);
    return;
  }
  const bool reversed = s0 > s1;
  if (reversed) std::swap(s0, s1);
  // In-order sum either way, so the total is Length() bit for bit.
  const double total =
      segment_lengths.empty()
          ? line.Length()
          : std::accumulate(segment_lengths.begin(), segment_lengths.end(),
                            0.0);
  s0 = std::clamp(s0, 0.0, total);
  s1 = std::clamp(s1, 0.0, total);

  // The cut goes after the current vertices in forward order, is turned
  // round in place when it runs backwards, and only then meets the
  // junction rule, at its first vertex as driven.
  const size_t base = points_.size();
  points_.push_back(line.Interpolate(s0, segment_lengths));
  double arc = 0.0;
  for (size_t i = 0; i + 1 < pts.size(); ++i) {
    const double vertex_arc =  // arc length of vertex i+1
        arc + SegmentLength(pts, segment_lengths, i);
    if (vertex_arc > s0 + 1e-9 && vertex_arc < s1 - 1e-9) {
      points_.push_back(pts[i + 1]);
    }
    arc = vertex_arc;
  }
  const EnPoint end = line.Interpolate(s1, segment_lengths);
  if (points_.size() == base + 1 || Distance(points_.back(), end) > 1e-9) {
    points_.push_back(end);
  }
  const auto cut = points_.begin() + static_cast<ptrdiff_t>(base);
  if (reversed) std::reverse(cut, points_.end());
  if (base > 0 && Coincide(points_[base - 1], *cut)) points_.erase(cut);
}

Polyline Polyline::SubLine(double s0, double s1,
                           std::span<const double> segment_lengths) const {
  Polyline out;
  out.ExtendSubLine(*this, s0, s1, segment_lengths);
  return out;
}

Polyline Polyline::Resample(double max_spacing) const {
  if (points_.size() < 2 || max_spacing <= 0.0) return *this;
  std::vector<EnPoint> out;
  out.push_back(points_.front());
  for (size_t i = 0; i + 1 < points_.size(); ++i) {
    const double seg = Distance(points_[i], points_[i + 1]);
    const int pieces = std::max(1, static_cast<int>(std::ceil(seg / max_spacing)));
    for (int k = 1; k <= pieces; ++k) {
      const double t = static_cast<double>(k) / pieces;
      out.push_back(points_[i] + t * (points_[i + 1] - points_[i]));
    }
  }
  return Polyline(std::move(out));
}

}  // namespace geo
}  // namespace taxitrace
