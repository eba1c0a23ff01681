// In-memory trip store — the library's stand-in for the PostgreSQL/PostGIS
// database the paper used to hold retrieved driving data.

#ifndef TAXITRACE_TRACE_TRACE_STORE_H_
#define TAXITRACE_TRACE_TRACE_STORE_H_

#include <unordered_map>
#include <vector>

#include "taxitrace/common/result.h"
#include "taxitrace/trace/trip.h"

namespace taxitrace {
namespace trace {

/// Holds the trips of a taxi fleet and serves simple queries.
class TraceStore {
 public:
  TraceStore() = default;

  /// Adds a trip. Fails on a duplicate trip id.
  Status AddTrip(Trip trip);

  /// All trips in insertion order.
  [[nodiscard]] const std::vector<Trip>& trips() const { return trips_; }

  /// Number of stored trips.
  [[nodiscard]] size_t NumTrips() const { return trips_.size(); }

  /// Total number of route points across all trips.
  [[nodiscard]] size_t NumPoints() const;

  /// Trips of one car, in insertion order.
  [[nodiscard]] std::vector<const Trip*> TripsForCar(int car_id) const;

  /// Distinct car ids present, ascending.
  [[nodiscard]] std::vector<int> CarIds() const;

  /// Looks up a trip by id.
  Result<const Trip*> FindTrip(int64_t trip_id) const;

 private:
  std::vector<Trip> trips_;
  std::unordered_map<int64_t, size_t> by_id_;
};

}  // namespace trace
}  // namespace taxitrace

#endif  // TAXITRACE_TRACE_TRACE_STORE_H_
