#include "taxitrace/clean/segmentation.h"

#include <cstddef>
#include <numeric>

#include "taxitrace/common/check.h"

namespace taxitrace {
namespace clean {
namespace {

// Returns the Table 2 rule (2..4) classifying the gap between two
// consecutive route points, `d` metres apart, as a stop, or 0 for
// ordinary driving. Rule 1 (and its rule 5 variant) is window-based and
// handled by the splitter.
int PairStopRule(const trace::RoutePoint& a, const trace::RoutePoint& b,
                 double d, const SegmentationOptions& opt) {
  const double dt = b.timestamp_s - a.timestamp_s;
  if (dt <= 0.0) return 0;
  const double implied_speed = d / dt;

  // Rule 3: crawling below 0.002 m/s across a long silent gap.
  if (implied_speed < opt.rule3_speed_ms && dt >= opt.rule1_window_s) {
    return 3;
  }
  // Rule 2: less than 3 km in more than 7 minutes.
  if (dt > opt.rule2_window_s && d < opt.rule2_max_move_m) return 2;
  // Rule 4: less than 3 km in more than 15 minutes while "moving".
  if (dt > opt.rule4_window_s && d < opt.rule4_max_move_m &&
      implied_speed > opt.rule3_speed_ms) {
    return 4;
  }
  return 0;
}

// A segment: the input points [first, last).
struct Span {
  size_t first;
  size_t last;
};

// Path length of a span, summed in order from 0.0 over its step
// distances: PathLengthMeters of its points, bit for bit.
double SpanLength(const std::vector<double>& steps, const Span& span) {
  return std::accumulate(steps.begin() + static_cast<ptrdiff_t>(span.first),
                         steps.begin() + static_cast<ptrdiff_t>(span.last - 1),
                         0.0);
}

// Splits points[first, last) at stops, appending the segments to `out`:
// rule 1 fires when the position has not changed (within GPS tolerance)
// for `window_s`; rules 2-4 fire on single long silent gaps. Stationary
// points beyond the rule-1 window belong to the stop itself and are
// dropped, so every segment is a run of consecutive input points.
// `window_rule_index` selects which stats bucket the window splits land
// in (rule 1 vs rule 5).
void SplitAtStops(const std::vector<trace::RoutePoint>& points,
                  const std::vector<double>& steps, size_t first,
                  size_t last, double window_s,
                  const SegmentationOptions& opt, SegmentationStats* stats,
                  int window_rule_index, std::vector<Span>* out) {
  // The current segment is [begin, i) while `open`. The anchor is the
  // first point of the current no-movement run.
  size_t begin = first;
  bool open = false;
  size_t anchor = first;
  bool in_stop = false;  // consuming stationary points inside a stop

  const auto close_current = [&](size_t end) {
    if (open) out->push_back(Span{begin, end});
    open = false;
  };
  const auto start_at = [&](size_t i) {
    begin = i;
    anchor = i;
    open = true;
  };
  // The anchor is the previous point whenever the car is moving, and
  // then the distance is that pair's step.
  const auto from_anchor = [&](size_t i) {
    return anchor + 1 == i ? steps[i - 1]
                           : geo::HaversineMeters(points[anchor].position,
                                                  points[i].position);
  };

  for (size_t i = first; i < last; ++i) {
    if (in_stop) {
      if (from_anchor(i) <= opt.no_change_tolerance_m) {
        continue;  // still parked: the point belongs to the stop
      }
      in_stop = false;  // movement resumed: start fresh at this point
      start_at(i);
      continue;
    }
    if (!open) {
      start_at(i);
      continue;
    }
    // An open segment always ends at the previous point.
    const int pair_rule = PairStopRule(points[i - 1], points[i],
                                       steps[i - 1], opt);
    if (pair_rule != 0) {
      ++stats->splits_by_rule[pair_rule - 1];
      close_current(i);
      start_at(i);
      continue;
    }
    if (from_anchor(i) > opt.no_change_tolerance_m) {
      anchor = i;  // moving: restart the stationary run at this point
      continue;
    }
    // Within the stationary run.
    if (points[i].timestamp_s - points[anchor].timestamp_s >= window_s) {
      ++stats->splits_by_rule[window_rule_index];
      close_current(i);
      in_stop = true;
    }
  }
  close_current(last);
}

}  // namespace

std::vector<trace::Trip> SegmentTrip(const trace::Trip& trip,
                                     const SegmentationOptions& opt,
                                     SegmentationStats* stats) {
  return SegmentTrip(trip, trace::StepDistancesMeters(trip.points), opt,
                     stats);
}

std::vector<trace::Trip> SegmentTrip(const trace::Trip& trip,
                                     const std::vector<double>& steps_m,
                                     const SegmentationOptions& opt,
                                     SegmentationStats* stats) {
  const std::vector<trace::RoutePoint>& points = trip.points;
  TT_CHECK(steps_m.size() + 1 == points.size() ||
           (points.empty() && steps_m.empty()));
  SegmentationStats local;
  local.trips_in = 1;

  // First round: rules 1-4.
  std::vector<Span> spans;
  SplitAtStops(points, steps_m, 0, points.size(), opt.rule1_window_s, opt,
               &local, 0, &spans);

  // Rule 5: re-split overlong segments with the tighter 1.5-minute
  // window.
  std::vector<Span> final_spans;
  for (const Span& span : spans) {
    if (SpanLength(steps_m, span) <= opt.rule5_length_m) {
      final_spans.push_back(span);
      continue;
    }
    SplitAtStops(points, steps_m, span.first, span.last, opt.rule5_window_s,
                 opt, &local, 4, &final_spans);
  }

  std::vector<trace::Trip> out;
  out.reserve(final_spans.size());
  for (size_t k = 0; k < final_spans.size(); ++k) {
    trace::Trip seg;
    seg.trip_id = trip.trip_id * 1000 + static_cast<int64_t>(k);
    seg.car_id = trip.car_id;
    seg.points.assign(
        points.begin() + static_cast<ptrdiff_t>(final_spans[k].first),
        points.begin() + static_cast<ptrdiff_t>(final_spans[k].last));
    seg.RecomputeTotals(SpanLength(steps_m, final_spans[k]));
    out.push_back(std::move(seg));
  }
  local.segments_out = static_cast<int64_t>(out.size());
  if (stats != nullptr) {
    for (int r = 0; r < 5; ++r) {
      stats->splits_by_rule[r] += local.splits_by_rule[r];
    }
    stats->trips_in += local.trips_in;
    stats->segments_out += local.segments_out;
  }
  return out;
}

std::vector<trace::Trip> SegmentTrips(const std::vector<trace::Trip>& trips,
                                      const SegmentationOptions& options,
                                      SegmentationStats* stats) {
  std::vector<trace::Trip> out;
  for (const trace::Trip& trip : trips) {
    std::vector<trace::Trip> segments = SegmentTrip(trip, options, stats);
    for (trace::Trip& seg : segments) out.push_back(std::move(seg));
  }
  return out;
}

}  // namespace clean
}  // namespace taxitrace
