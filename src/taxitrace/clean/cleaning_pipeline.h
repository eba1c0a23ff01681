// The full data-preparation pipeline of Section IV: order repair ->
// obvious-error filtering -> time-based segmentation -> segment filters.

#ifndef TAXITRACE_CLEAN_CLEANING_PIPELINE_H_
#define TAXITRACE_CLEAN_CLEANING_PIPELINE_H_

#include "taxitrace/clean/interpolation.h"
#include "taxitrace/common/executor.h"
#include "taxitrace/clean/order_repair.h"
#include "taxitrace/clean/outlier_filter.h"
#include "taxitrace/clean/sanitize.h"
#include "taxitrace/clean/segmentation.h"
#include "taxitrace/clean/trip_filter.h"
#include "taxitrace/common/result.h"
#include "taxitrace/fault/fault_report.h"
#include "taxitrace/obs/metrics.h"
#include "taxitrace/trace/trace_store.h"

namespace taxitrace {
namespace clean {

/// Stage options, bundled.
struct CleaningOptions {
  OutlierFilterOptions outliers;
  SegmentationOptions segmentation;
  TripFilterOptions filter;
  /// Optionally restore lost points by linear interpolation (the Jiang
  /// et al. approach the paper cites) before segmentation. Off by
  /// default: the paper's own pipeline does not interpolate.
  bool restore_lost_points = false;
  InterpolationOptions interpolation;
  /// Malformed-point gate, run before every other stage. Disabled by
  /// default (the fault-free pipeline is unchanged); enabled by
  /// core::Pipeline when a FaultPlan is active.
  SanitizeOptions sanitize;
};

/// What each stage did, for reporting.
struct CleaningReport {
  int64_t raw_trips = 0;
  int64_t raw_points = 0;
  /// Points surviving the sanitiser (== raw_points minus the point
  /// drops in `faults`; == raw_points on a fault-free run).
  int64_t points_after_sanitize = 0;
  /// Points surviving the outlier filter (== points_after_sanitize
  /// minus the three OutlierFilterStats removals). Interpolation, when
  /// enabled, adds points *after* this count.
  int64_t points_after_outliers = 0;
  OrderRepairStats order;
  OutlierFilterStats outliers;
  InterpolationStats interpolation;
  SegmentationStats segmentation;
  TripFilterStats filter;
  /// Malformed input dropped by the sanitiser (and, when the pipeline
  /// routes traces through a corrupted CSV file, by the lenient
  /// reader). All zero on a fault-free run.
  fault::FaultReport faults;
  int64_t clean_segments = 0;
  int64_t clean_points = 0;
};

/// What cleaning one raw trip produced: its surviving segments plus the
/// per-stage counter deltas. Deltas are summed (all counters are plain
/// integers) and segments concatenated in raw-trip order, which
/// reproduces the serial pipeline's output exactly — the contract both
/// CleanTrips and the streaming pipeline build on.
struct TripCleanOutput {
  std::vector<trace::Trip> segments;
  int64_t points_after_sanitize = 0;
  int64_t points_after_outliers = 0;
  OrderRepairStats order;
  OutlierFilterStats outliers;
  InterpolationStats interpolation;
  SegmentationStats segmentation;
  TripFilterStats filter;
  fault::FaultReport faults;
};

/// Runs every per-trip stage on a single raw trip. Takes the trip by
/// value: batch callers pass a copy, streaming callers move the trip in
/// and the raw points die with it — the point of streaming.
///
/// The output equals the chain SanitizeTrip -> RepairTripOrder ->
/// FilterTripOutliers -> [RestoreTripLostPoints] -> SegmentTrip ->
/// FilterTrips bit for bit. It calls the stage forms those wrappers are
/// built on, handing each consecutive-pair distance from the outlier
/// filter to segmentation (recomputed after interpolation) and each
/// segment length to the trip filter, and it skips the trip totals no
/// stage reads.
TripCleanOutput CleanOneTrip(trace::Trip raw, const CleaningOptions& options);

/// Folds one trip's counter deltas into `report` (raw_trips/raw_points
/// and the clean_* totals are the caller's; segments are untouched).
void FoldTripCleanOutput(const TripCleanOutput& out, CleaningReport* report);

/// Publishes a merged report and the cleaned segments as `clean.*`
/// counters plus the points-per-segment histogram.
void PublishCleaningMetrics(const CleaningReport& report,
                            const std::vector<trace::Trip>& cleaned,
                            obs::MetricsRegistry* metrics);

/// Runs the pipeline over all trips of a store and returns the cleaned
/// trip segments.
///
/// Every stage is per-trip, so the work fans out over the store's trips
/// when `executor` has worker threads; per-trip outputs are merged in
/// store order (segments and every report counter), making the result
/// byte-identical at any thread count. A null `executor` runs serially.
///
/// Fails only on executor errors; malformed input never fails the call
/// — the sanitiser drops it and accounts for it in `report->faults`.
///
/// When `metrics` is given, the merged report is also published as
/// `clean.*` counters plus a points-per-segment histogram. All of them
/// are deterministic data counts, never timings.
Result<std::vector<trace::Trip>> CleanTrips(
    const trace::TraceStore& store, const CleaningOptions& options = {},
    CleaningReport* report = nullptr, const Executor* executor = nullptr,
    obs::MetricsRegistry* metrics = nullptr);

}  // namespace clean
}  // namespace taxitrace

#endif  // TAXITRACE_CLEAN_CLEANING_PIPELINE_H_
