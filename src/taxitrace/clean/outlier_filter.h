// Removal of the most obvious measurement errors: duplicated records and
// gross GPS position spikes.

#ifndef TAXITRACE_CLEAN_OUTLIER_FILTER_H_
#define TAXITRACE_CLEAN_OUTLIER_FILTER_H_

#include <vector>

#include "taxitrace/trace/trip.h"

namespace taxitrace {
namespace clean {

/// Thresholds for the error filters.
struct OutlierFilterOptions {
  /// Maximum physically plausible speed implied by consecutive fixes,
  /// m/s (45 m/s = 162 km/h, far above anything drivable downtown).
  double max_implied_speed_ms = 45.0;
  /// A point is a spike when it sits farther than this from both
  /// neighbours while the neighbours are close to each other, metres.
  double spike_distance_m = 250.0;
  /// Neighbour closeness for the spike test, fraction of the detour.
  double spike_closeness_ratio = 0.5;
};

/// Aggregate counts over a filter run.
struct OutlierFilterStats {
  int64_t duplicates_removed = 0;
  int64_t spikes_removed = 0;
  int64_t implied_speed_removed = 0;
};

/// Removes duplicated records (same point id and timestamp) and GPS
/// spikes from a point sequence ordered in time. Endpoints are kept
/// unless they fail the implied-speed test.
void FilterOutliers(std::vector<trace::RoutePoint>* points,
                    const OutlierFilterOptions& options = {},
                    OutlierFilterStats* stats = nullptr);

/// FilterOutliers, also leaving in `steps_m` the step distances of the
/// surviving points (trace::StepDistancesMeters of the result). The
/// filter computes each consecutive-pair distance once after the
/// duplicate pass and keeps the list in step with every removal, so the
/// spike and implied-speed tests read it instead of recomputing; only a
/// pair made new by a removal costs a fresh distance. The form the trip
/// wrapper and CleanOneTrip use.
void FilterOutliers(std::vector<trace::RoutePoint>* points,
                    const OutlierFilterOptions& options,
                    OutlierFilterStats* stats, std::vector<double>* steps_m);

/// Trip-level convenience wrapper. Sets the totals from the filter's own
/// step distances, equal bit for bit to Trip::RecomputeTotals().
void FilterTripOutliers(trace::Trip* trip,
                        const OutlierFilterOptions& options = {},
                        OutlierFilterStats* stats = nullptr);

}  // namespace clean
}  // namespace taxitrace

#endif  // TAXITRACE_CLEAN_OUTLIER_FILTER_H_
