#include "taxitrace/clean/outlier_filter.h"

#include <cmath>
#include <cstddef>
#include <numeric>

namespace taxitrace {
namespace clean {
namespace {

// True when b is a position spike between a and c: far from both while a
// and c are near each other. `ab` and `bc` are the step distances a-b
// and b-c.
bool IsSpike(const trace::RoutePoint& a, double ab, double bc,
             const trace::RoutePoint& c,
             const OutlierFilterOptions& options) {
  if (ab < options.spike_distance_m || bc < options.spike_distance_m) {
    return false;
  }
  const double ac = geo::HaversineMeters(a.position, c.position);
  return ac < options.spike_closeness_ratio * (ab + bc);
}

// True when moving from a to b, `d` metres apart, implies an impossible
// speed.
bool ImpliedSpeedTooHigh(const trace::RoutePoint& a,
                         const trace::RoutePoint& b, double d,
                         const OutlierFilterOptions& options) {
  const double dt = b.timestamp_s - a.timestamp_s;
  if (dt <= 0.0) return false;  // handled by duplicate/order logic
  return d / dt > options.max_implied_speed_ms;
}

double StepMeters(const trace::RoutePoint& a, const trace::RoutePoint& b) {
  return geo::HaversineMeters(a.position, b.position);
}

}  // namespace

void FilterOutliers(std::vector<trace::RoutePoint>* points,
                    const OutlierFilterOptions& options,
                    OutlierFilterStats* stats) {
  std::vector<double> steps_m;
  FilterOutliers(points, options, stats, &steps_m);
}

void FilterOutliers(std::vector<trace::RoutePoint>* points,
                    const OutlierFilterOptions& options,
                    OutlierFilterStats* stats, std::vector<double>* steps_m) {
  OutlierFilterStats local;
  std::vector<trace::RoutePoint>& pts = *points;

  // Pass 1: duplicates (identical id and timestamp as the predecessor).
  // In-place compaction; pts[kept - 1] is the last survivor, exactly
  // the out.back() of the historical copy-based pass.
  {
    size_t kept = 0;
    for (size_t r = 0; r < pts.size(); ++r) {
      if (kept > 0 && pts[kept - 1].point_id == pts[r].point_id &&
          pts[kept - 1].timestamp_s == pts[r].timestamp_s) {
        ++local.duplicates_removed;
        continue;
      }
      if (kept != r) pts[kept] = pts[r];
      ++kept;
    }
    pts.resize(kept);
  }

  // steps[j] is the distance between pts[j] and pts[j + 1]. Every test
  // below reads it; a removal joins two points into a new pair, whose
  // distance is the only one computed afresh. Each value is
  // HaversineMeters on the very pair, in the pair's order, that the test
  // would otherwise measure itself, so every decision is the same.
  std::vector<double>& steps = *steps_m;
  steps = trace::StepDistancesMeters(pts);

  // Passes 2+3 iterate to a joint fixpoint: dropping an implied-speed
  // offender changes its neighbours' adjacency, which can expose a spike
  // the earlier scan could not see (e.g. a cluster of displaced points
  // where each shielded the next), and vice versa.
  bool round_changed = true;
  while (round_changed) {
    round_changed = false;

    // Spikes. The historical pass restarted the scan from index 1 after
    // every removal (removing the lowest-indexed spike each time);
    // backing up one position is enough to see the same sequence: every
    // triple left of i - 1 was just re-checked unchanged, so after
    // erasing at i the lowest-indexed spike is at i - 1 or later.
    // Identical removals and counts at O(n) scans instead of O(n^2).
    {
      size_t i = 1;
      while (pts.size() >= 3 && i + 1 < pts.size()) {
        if (IsSpike(pts[i - 1], steps[i - 1], steps[i], pts[i + 1],
                    options)) {
          pts.erase(pts.begin() + static_cast<ptrdiff_t>(i));
          steps.erase(steps.begin() + static_cast<ptrdiff_t>(i));
          steps[i - 1] = StepMeters(pts[i - 1], pts[i]);
          ++local.spikes_removed;
          round_changed = true;
          if (i > 1) --i;
        } else {
          ++i;
        }
      }
    }

    // Impossible implied speeds (drop the later point of the pair; a bad
    // first fix surfaces as its successor looking too fast, so also
    // check and drop a leading offender against its two successors).
    // Same in-place compaction shape as the duplicate pass; while
    // nothing has been dropped (kept == r) the pair is an old one.
    {
      size_t kept = 0;
      for (size_t r = 0; r < pts.size(); ++r) {
        if (kept > 0) {
          const double d = kept == r ? steps[r - 1]
                                     : StepMeters(pts[kept - 1], pts[r]);
          if (ImpliedSpeedTooHigh(pts[kept - 1], pts[r], d, options)) {
            ++local.implied_speed_removed;
            round_changed = true;
            continue;
          }
          steps[kept - 1] = d;
        }
        if (kept != r) pts[kept] = pts[r];
        ++kept;
      }
      pts.resize(kept);
      steps.resize(kept > 0 ? kept - 1 : 0);
    }
  }

  if (stats != nullptr) {
    stats->duplicates_removed += local.duplicates_removed;
    stats->spikes_removed += local.spikes_removed;
    stats->implied_speed_removed += local.implied_speed_removed;
  }
}

void FilterTripOutliers(trace::Trip* trip,
                        const OutlierFilterOptions& options,
                        OutlierFilterStats* stats) {
  std::vector<double> steps_m;
  FilterOutliers(&trip->points, options, stats, &steps_m);
  trip->RecomputeTotals(std::accumulate(steps_m.begin(), steps_m.end(), 0.0));
}

}  // namespace clean
}  // namespace taxitrace
