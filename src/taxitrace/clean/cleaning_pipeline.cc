#include "taxitrace/clean/cleaning_pipeline.h"

#include <utility>

namespace taxitrace {
namespace clean {

TripCleanOutput CleanOneTrip(trace::Trip trip,
                             const CleaningOptions& options) {
  TripCleanOutput out;
  SanitizeTrip(&trip, options.sanitize, &out.faults);
  out.points_after_sanitize = static_cast<int64_t>(trip.points.size());
  if (options.sanitize.enabled && trip.points.empty()) {
    // Injected empty trips (and trips whose every point was dropped)
    // end here; the regular stages would only pass the emptiness along.
    ++out.faults.trips_dropped_empty;
    return out;
  }
  // The trip's totals are not read until segmentation sets each
  // segment's own, so the stages here run on the points alone. The
  // outlier filter's step distances carry through to segmentation, and
  // segmentation's segment lengths to the trip filter.
  RepairPointOrder(&trip.points, &out.order);
  std::vector<double> steps_m;
  FilterOutliers(&trip.points, options.outliers, &out.outliers, &steps_m);
  out.points_after_outliers = static_cast<int64_t>(trip.points.size());
  if (options.restore_lost_points) {
    RestoreLostPoints(&trip.points, options.interpolation,
                      &out.interpolation);
    steps_m = trace::StepDistancesMeters(trip.points);
  }
  std::vector<trace::Trip> segments =
      SegmentTrip(trip, steps_m, options.segmentation, &out.segmentation);
  std::vector<double> lengths_m;
  lengths_m.reserve(segments.size());
  for (const trace::Trip& seg : segments) {
    lengths_m.push_back(seg.total_distance_m);
  }
  out.segments = FilterTrips(std::move(segments), lengths_m, options.filter,
                             &out.filter);
  return out;
}

void FoldTripCleanOutput(const TripCleanOutput& out,
                         CleaningReport* report) {
  CleaningReport& local = *report;
  local.points_after_sanitize += out.points_after_sanitize;
  local.points_after_outliers += out.points_after_outliers;
  local.order.trips_consistent += out.order.trips_consistent;
  local.order.trips_repaired_by_id += out.order.trips_repaired_by_id;
  local.order.trips_repaired_by_timestamp +=
      out.order.trips_repaired_by_timestamp;
  local.outliers.duplicates_removed += out.outliers.duplicates_removed;
  local.outliers.spikes_removed += out.outliers.spikes_removed;
  local.outliers.implied_speed_removed +=
      out.outliers.implied_speed_removed;
  local.interpolation.gaps_restored += out.interpolation.gaps_restored;
  local.interpolation.points_inserted +=
      out.interpolation.points_inserted;
  for (int r = 0; r < 5; ++r) {
    local.segmentation.splits_by_rule[r] +=
        out.segmentation.splits_by_rule[r];
  }
  local.segmentation.trips_in += out.segmentation.trips_in;
  local.segmentation.segments_out += out.segmentation.segments_out;
  local.filter.removed_too_few_points +=
      out.filter.removed_too_few_points;
  local.filter.removed_too_long += out.filter.removed_too_long;
  local.filter.kept += out.filter.kept;
  local.faults.Add(out.faults);
}

void PublishCleaningMetrics(const CleaningReport& report,
                            const std::vector<trace::Trip>& cleaned,
                            obs::MetricsRegistry* metrics) {
  metrics->counter("clean.raw_trips")->Add(report.raw_trips);
  metrics->counter("clean.raw_points")->Add(report.raw_points);
  metrics->counter("clean.points_after_sanitize")
      ->Add(report.points_after_sanitize);
  metrics->counter("clean.points_after_outliers")
      ->Add(report.points_after_outliers);
  metrics->counter("clean.duplicates_removed")
      ->Add(report.outliers.duplicates_removed);
  metrics->counter("clean.spikes_removed")
      ->Add(report.outliers.spikes_removed);
  metrics->counter("clean.implied_speed_removed")
      ->Add(report.outliers.implied_speed_removed);
  metrics->counter("clean.segments_out")->Add(report.clean_segments);
  metrics->counter("clean.points_out")->Add(report.clean_points);
  obs::HistogramMetric* seg_points =
      metrics->histogram("clean.points_per_segment", 0.0, 400.0, 40);
  for (const trace::Trip& t : cleaned) {
    seg_points->Record(static_cast<double>(t.points.size()));
  }
}

Result<std::vector<trace::Trip>> CleanTrips(const trace::TraceStore& store,
                                            const CleaningOptions& options,
                                            CleaningReport* report,
                                            const Executor* executor,
                                            obs::MetricsRegistry* metrics) {
  CleaningReport local;
  local.raw_trips = static_cast<int64_t>(store.NumTrips());
  local.raw_points = static_cast<int64_t>(store.NumPoints());

  const std::vector<trace::Trip>& raw = store.trips();
  std::vector<TripCleanOutput> outputs(raw.size());
  const Executor& ex = executor != nullptr ? *executor : Executor::Serial();
  TAXITRACE_RETURN_IF_ERROR(ex.ParallelFor(
      0, static_cast<int64_t>(raw.size()), [&](int64_t i) -> Status {
        outputs[static_cast<size_t>(i)] =
            CleanOneTrip(raw[static_cast<size_t>(i)], options);
        return Status::OK();
      }));

  std::vector<trace::Trip> cleaned;
  for (TripCleanOutput& out : outputs) {
    FoldTripCleanOutput(out, &local);
    for (trace::Trip& seg : out.segments) {
      cleaned.push_back(std::move(seg));
    }
  }

  local.clean_segments = static_cast<int64_t>(cleaned.size());
  for (const trace::Trip& t : cleaned) {
    local.clean_points += static_cast<int64_t>(t.points.size());
  }
  if (metrics != nullptr) {
    PublishCleaningMetrics(local, cleaned, metrics);
  }
  if (report != nullptr) *report = local;
  return cleaned;
}

}  // namespace clean
}  // namespace taxitrace
