#include "taxitrace/clean/interpolation.h"

#include <algorithm>
#include <cmath>

namespace taxitrace {
namespace clean {

void RestoreLostPoints(std::vector<trace::RoutePoint>* points,
                       const InterpolationOptions& options,
                       InterpolationStats* stats) {
  std::vector<trace::RoutePoint>& pts = *points;
  if (pts.size() < 2) return;
  InterpolationStats local;

  std::vector<trace::RoutePoint> out;
  out.reserve(pts.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    if (i > 0) {
      const trace::RoutePoint& a = pts[i - 1];
      const trace::RoutePoint& b = pts[i];
      const double dt = b.timestamp_s - a.timestamp_s;
      if (dt > options.min_gap_s &&
          geo::HaversineMeters(a.position, b.position) >
              options.min_gap_distance_m) {
        // Clamped in double: the piece count of an infinite or huge gap
        // (or a NaN one) does not fit an int.
        const double max_pieces =
            static_cast<double>(options.max_points_per_gap) + 1.0;
        const int pieces = static_cast<int>(std::min(
            max_pieces,
            std::max(0.0, std::floor(dt / options.restored_interval_s))));
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
          ++local.points_inserted;
        }
        if (pieces > 1) ++local.gaps_restored;
      }
    }
    out.push_back(pts[i]);
  }
  pts = std::move(out);
  if (stats != nullptr) {
    stats->gaps_restored += local.gaps_restored;
    stats->points_inserted += local.points_inserted;
  }
}

void RestoreTripLostPoints(trace::Trip* trip,
                           const InterpolationOptions& options,
                           InterpolationStats* stats) {
  RestoreLostPoints(&trip->points, options, stats);
  trip->RecomputeTotals();
}

}  // namespace clean
}  // namespace taxitrace
