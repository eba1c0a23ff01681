#include "taxitrace/clean/sanitize.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace taxitrace {
namespace clean {
namespace {

bool AllFieldsFinite(const trace::RoutePoint& p) {
  return std::isfinite(p.timestamp_s) && std::isfinite(p.position.lat_deg) &&
         std::isfinite(p.position.lon_deg) && std::isfinite(p.speed_kmh) &&
         std::isfinite(p.fuel_delta_ml);
}

// Median of the first `count` timestamps; `ts` is a reusable buffer.
double MedianTimestamp(const std::vector<trace::RoutePoint>& points,
                       size_t count, std::vector<double>* ts) {
  ts->clear();
  ts->reserve(count);
  for (size_t i = 0; i < count; ++i) {
    ts->push_back(points[i].timestamp_s);
  }
  const auto mid = ts->begin() + static_cast<ptrdiff_t>(ts->size() / 2);
  std::nth_element(ts->begin(), mid, ts->end());
  return *mid;
}

}  // namespace

void SanitizeTrip(trace::Trip* trip, const SanitizeOptions& options,
                  fault::FaultReport* report) {
  if (!options.enabled || trip->points.empty()) return;

  // Both gates compact in place (two-pointer sweeps); the checks, their
  // order, and the dropped-point counters are those of the historical
  // copy-based version.
  std::vector<trace::RoutePoint>& pts = trip->points;
  const size_t before = pts.size();
  size_t kept = 0;
  for (size_t r = 0; r < before; ++r) {
    const trace::RoutePoint& p = pts[r];
    if (!AllFieldsFinite(p)) {
      ++report->points_dropped_nonfinite;
      continue;
    }
    if (p.trip_id != trip->trip_id) {
      ++report->points_dropped_foreign;
      continue;
    }
    if (p.speed_kmh < 0.0) {
      ++report->points_dropped_negative_speed;
      continue;
    }
    if (options.has_region &&
        (p.position.lat_deg < options.lat_min_deg ||
         p.position.lat_deg > options.lat_max_deg ||
         p.position.lon_deg < options.lon_min_deg ||
         p.position.lon_deg > options.lon_max_deg)) {
      ++report->points_dropped_out_of_region;
      continue;
    }
    if (kept != r) pts[kept] = p;
    ++kept;
  }

  // The clock-jump gate needs a reference time, so it runs on the
  // survivors of the field checks: the median of a mostly-sane trip is
  // robust to the jumped minority.
  if (options.max_median_offset_s > 0.0 && kept > 0) {
    std::vector<double> ts;
    const double median = MedianTimestamp(pts, kept, &ts);
    size_t in_window = 0;
    for (size_t r = 0; r < kept; ++r) {
      if (std::fabs(pts[r].timestamp_s - median) >
          options.max_median_offset_s) {
        ++report->points_dropped_clock_jump;
        continue;
      }
      if (in_window != r) pts[in_window] = pts[r];
      ++in_window;
    }
    kept = in_window;
  }

  if (kept != before) {
    pts.resize(kept);
    trip->RecomputeTotals();
  }
}

void GateToStudyRegion(const geo::Bbox& network_bounds,
                       const geo::LocalProjection& projection,
                       SanitizeOptions* options) {
  const geo::Bbox box = network_bounds.Inflated(5000.0);
  const geo::LatLon lo =
      projection.Inverse(geo::EnPoint{box.min_x, box.min_y});
  const geo::LatLon hi =
      projection.Inverse(geo::EnPoint{box.max_x, box.max_y});
  options->enabled = true;
  options->has_region = true;
  options->lat_min_deg = std::min(lo.lat_deg, hi.lat_deg);
  options->lat_max_deg = std::max(lo.lat_deg, hi.lat_deg);
  options->lon_min_deg = std::min(lo.lon_deg, hi.lon_deg);
  options->lon_max_deg = std::max(lo.lon_deg, hi.lon_deg);
}

}  // namespace clean
}  // namespace taxitrace
