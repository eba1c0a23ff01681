#include "taxitrace/clean/trip_filter.h"

#include <utility>

#include "taxitrace/common/check.h"

namespace taxitrace {
namespace clean {

bool PassesTripFilter(const trace::Trip& trip,
                      const TripFilterOptions& options) {
  return trip.points.size() >= options.min_points &&
         trace::PathLengthMeters(trip.points) <= options.max_length_m;
}

namespace {

// The filter proper; `length_of(i, trip)` is the path length of
// trip = trips[i], asked only of trips with enough points.
template <typename LengthOf>
std::vector<trace::Trip> Filter(std::vector<trace::Trip> trips,
                                const TripFilterOptions& options,
                                TripFilterStats* stats,
                                const LengthOf& length_of) {
  std::vector<trace::Trip> out;
  out.reserve(trips.size());
  for (size_t i = 0; i < trips.size(); ++i) {
    if (trips[i].points.size() < options.min_points) {
      if (stats != nullptr) ++stats->removed_too_few_points;
      continue;
    }
    if (length_of(i, trips[i]) > options.max_length_m) {
      if (stats != nullptr) ++stats->removed_too_long;
      continue;
    }
    if (stats != nullptr) ++stats->kept;
    out.push_back(std::move(trips[i]));
  }
  return out;
}

}  // namespace

std::vector<trace::Trip> FilterTrips(std::vector<trace::Trip> trips,
                                     const TripFilterOptions& options,
                                     TripFilterStats* stats) {
  return Filter(std::move(trips), options, stats,
                [](size_t, const trace::Trip& trip) {
                  return trace::PathLengthMeters(trip.points);
                });
}

std::vector<trace::Trip> FilterTrips(std::vector<trace::Trip> trips,
                                     const std::vector<double>& lengths_m,
                                     const TripFilterOptions& options,
                                     TripFilterStats* stats) {
  TT_CHECK(lengths_m.size() == trips.size());
  return Filter(std::move(trips), options, stats,
                [&lengths_m](size_t i, const trace::Trip&) {
                  return lengths_m[i];
                });
}

}  // namespace clean
}  // namespace taxitrace
