#include "taxitrace/trace/trace_store.h"

#include <algorithm>
#include <set>
#include <utility>

#include "taxitrace/common/strings.h"

namespace taxitrace {
namespace trace {

Status TraceStore::AddTrip(Trip trip) {
  if (by_id_.contains(trip.trip_id)) {
    return Status::AlreadyExists(
        StrFormat("trip %lld already stored",
                  static_cast<long long>(trip.trip_id)));
  }
  by_id_[trip.trip_id] = trips_.size();
  trips_.push_back(std::move(trip));
  return Status::OK();
}

size_t TraceStore::NumPoints() const {
  size_t n = 0;
  for (const Trip& t : trips_) n += t.points.size();
  return n;
}

std::vector<const Trip*> TraceStore::TripsForCar(int car_id) const {
  std::vector<const Trip*> out;
  for (const Trip& t : trips_) {
    if (t.car_id == car_id) out.push_back(&t);
  }
  return out;
}

std::vector<int> TraceStore::CarIds() const {
  std::set<int> ids;
  for (const Trip& t : trips_) ids.insert(t.car_id);
  return std::vector<int>(ids.begin(), ids.end());
}

Result<const Trip*> TraceStore::FindTrip(int64_t trip_id) const {
  const auto it = by_id_.find(trip_id);
  if (it == by_id_.end()) {
    return Status::NotFound(
        StrFormat("trip %lld not found", static_cast<long long>(trip_id)));
  }
  return &trips_[it->second];
}

}  // namespace trace
}  // namespace taxitrace
