// Time-based trip segmentation (Section IV-C, Table 2).
//
// Taxi drivers can run the engine for most of a day, so a raw trip
// (engine-on to engine-off) may span many customer rides separated by
// stand waits. The segmentation splits a trip wherever one of the rules
// of Table 2 classifies the gap between consecutive route points as a
// stop:
//   1. The distance between route points does not change within three
//      minutes.
//   2. The distance change is less than 3 km within more than 7 minutes.
//   3. Movement at a speed below 0.002 m/s.
//   4. Less than 3 km within more than 15 minutes at a speed above
//      0.002 m/s.
//   5. After the first round, segments longer than 40 km are re-split
//      with rule 1 using a 1.5-minute interval.

#ifndef TAXITRACE_CLEAN_SEGMENTATION_H_
#define TAXITRACE_CLEAN_SEGMENTATION_H_

#include <vector>

#include "taxitrace/trace/trip.h"

namespace taxitrace {
namespace clean {

/// Table 2 thresholds.
struct SegmentationOptions {
  // Rule 1.
  double rule1_window_s = 180.0;
  /// "Does not change" tolerance (GPS noise floor), metres.
  double no_change_tolerance_m = 20.0;
  // Rule 2.
  double rule2_window_s = 420.0;
  double rule2_max_move_m = 3000.0;
  // Rule 3.
  double rule3_speed_ms = 0.002;
  // Rule 4.
  double rule4_window_s = 900.0;
  double rule4_max_move_m = 3000.0;
  // Rule 5.
  double rule5_length_m = 40000.0;
  double rule5_window_s = 90.0;
};

/// Which rule (1..5) split each boundary, for diagnostics.
struct SegmentationStats {
  int64_t splits_by_rule[5] = {0, 0, 0, 0, 0};
  int64_t trips_in = 0;
  int64_t segments_out = 0;
};

/// Splits one trip into trip segments. Segment trips inherit the car id;
/// their ids are `source_trip_id * 1000 + k` (k = 0,1,...), keeping the
/// mapping to the source trip explicit. Points must be in repaired
/// (time-monotone) order.
///
/// Every segment is a run of consecutive input points, so the splitter
/// works on index ranges and copies each segment's points once. One
/// distance per consecutive pair (trace::StepDistancesMeters) serves the
/// rule 2-4 pair test, the rule-5 length and each segment's
/// `total_distance_m`, summed in order from 0.0 and hence equal to
/// Trip::RecomputeTotals() bit for bit. Only the stationary-anchor test
/// makes its own HaversineMeters call, when its anchor is older than the
/// previous point.
std::vector<trace::Trip> SegmentTrip(const trace::Trip& trip,
                                     const SegmentationOptions& options = {},
                                     SegmentationStats* stats = nullptr);

/// SegmentTrip with the step distances of `trip.points` already known
/// (`steps_m` must equal trace::StepDistancesMeters(trip.points)), e.g.
/// from the outlier filter. The form CleanOneTrip uses.
std::vector<trace::Trip> SegmentTrip(const trace::Trip& trip,
                                     const std::vector<double>& steps_m,
                                     const SegmentationOptions& options,
                                     SegmentationStats* stats);

/// Segments every trip of a collection.
std::vector<trace::Trip> SegmentTrips(const std::vector<trace::Trip>& trips,
                                      const SegmentationOptions& options = {},
                                      SegmentationStats* stats = nullptr);

}  // namespace clean
}  // namespace taxitrace

#endif  // TAXITRACE_CLEAN_SEGMENTATION_H_
