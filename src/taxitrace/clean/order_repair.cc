#include "taxitrace/clean/order_repair.h"

#include <algorithm>

namespace taxitrace {
namespace clean {
namespace {

bool SameOrder(const std::vector<trace::RoutePoint>& a,
               const std::vector<trace::RoutePoint>& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].point_id != b[i].point_id) return false;
  }
  return true;
}

// Re-aligns the id and timestamp fields so both increase monotonically
// along the sequence, preserving their value multisets ("all the
// corresponding properties are aligned with respect to the correct
// sequence").
void AlignMonotone(std::vector<trace::RoutePoint>* points) {
  std::vector<int64_t> ids;
  std::vector<double> times;
  ids.reserve(points->size());
  times.reserve(points->size());
  for (const trace::RoutePoint& p : *points) {
    ids.push_back(p.point_id);
    times.push_back(p.timestamp_s);
  }
  std::sort(ids.begin(), ids.end());
  std::sort(times.begin(), times.end());
  for (size_t i = 0; i < points->size(); ++i) {
    (*points)[i].point_id = ids[i];
    (*points)[i].timestamp_s = times[i];
  }
}

// True when both fields are non-decreasing along the sequence. `<=`
// fails on a NaN timestamp, which then takes the general path.
bool AlreadyInOrder(const std::vector<trace::RoutePoint>& points) {
  for (size_t i = 1; i < points.size(); ++i) {
    if (!(points[i - 1].point_id <= points[i].point_id &&
          points[i - 1].timestamp_s <= points[i].timestamp_s)) {
      return false;
    }
  }
  return true;
}

}  // namespace

ChosenOrder RepairPointOrder(std::vector<trace::RoutePoint>* points) {
  if (AlreadyInOrder(*points)) return ChosenOrder::kConsistent;

  std::vector<trace::RoutePoint> by_id = *points;
  std::stable_sort(by_id.begin(), by_id.end(),
                   [](const trace::RoutePoint& a, const trace::RoutePoint& b) {
                     return a.point_id < b.point_id;
                   });
  std::vector<trace::RoutePoint> by_time = *points;
  std::stable_sort(by_time.begin(), by_time.end(),
                   [](const trace::RoutePoint& a, const trace::RoutePoint& b) {
                     return a.timestamp_s < b.timestamp_s;
                   });

  if (SameOrder(by_id, by_time)) {
    *points = std::move(by_id);  // canonical, already consistent
    return ChosenOrder::kConsistent;
  }
  const double len_id = trace::PathLengthMeters(by_id);
  const double len_time = trace::PathLengthMeters(by_time);
  if (len_id <= len_time) {
    *points = std::move(by_id);
    AlignMonotone(points);
    return ChosenOrder::kById;
  }
  *points = std::move(by_time);
  AlignMonotone(points);
  return ChosenOrder::kByTimestamp;
}

ChosenOrder RepairPointOrder(std::vector<trace::RoutePoint>* points,
                             OrderRepairStats* stats) {
  const ChosenOrder order = RepairPointOrder(points);
  if (stats != nullptr) {
    switch (order) {
      case ChosenOrder::kConsistent:
        ++stats->trips_consistent;
        break;
      case ChosenOrder::kById:
        ++stats->trips_repaired_by_id;
        break;
      case ChosenOrder::kByTimestamp:
        ++stats->trips_repaired_by_timestamp;
        break;
    }
  }
  return order;
}

ChosenOrder RepairTripOrder(trace::Trip* trip, OrderRepairStats* stats) {
  const ChosenOrder order = RepairPointOrder(&trip->points, stats);
  trip->RecomputeTotals();
  return order;
}

}  // namespace clean
}  // namespace taxitrace
