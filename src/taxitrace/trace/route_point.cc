#include "taxitrace/trace/route_point.h"

namespace taxitrace {
namespace trace {

double PathLengthMeters(const std::vector<RoutePoint>& points) {
  double total = 0.0;
  for (size_t i = 1; i < points.size(); ++i) {
    total += geo::HaversineMeters(points[i - 1].position,
                                  points[i].position);
  }
  return total;
}

std::vector<double> StepDistancesMeters(
    const std::vector<RoutePoint>& points) {
  std::vector<double> steps;
  if (points.size() < 2) return steps;
  steps.reserve(points.size() - 1);
  for (size_t i = 1; i < points.size(); ++i) {
    steps.push_back(
        geo::HaversineMeters(points[i - 1].position, points[i].position));
  }
  return steps;
}

double TimeSpanSeconds(const std::vector<RoutePoint>& points) {
  if (points.size() < 2) return 0.0;
  return points.back().timestamp_s - points.front().timestamp_s;
}

}  // namespace trace
}  // namespace taxitrace
