// Route inspector: the per-trip drill-down a downstream application
// (personalised route recommendation, post-driving analysis) would run.
// Simulates one taxi ride, observes it with the defective sensor, cleans
// and map-matches it, and prints the route's map context.
//
//   $ ./route_inspector [seed]
//
// The seed is a whole number >= 0; anything else is a usage error, exit
// code 2.

#include <cstdio>

#include "parse_arg.h"
#include "taxitrace/clean/order_repair.h"
#include "taxitrace/clean/outlier_filter.h"
#include "taxitrace/mapattr/attribute_fetcher.h"
#include "taxitrace/mapmatch/incremental_matcher.h"
#include "taxitrace/mapmatch/match_quality.h"
#include "taxitrace/roadnet/router.h"
#include "taxitrace/synth/city_map_generator.h"
#include "taxitrace/synth/driver_model.h"
#include "taxitrace/synth/sensor_model.h"
#include "taxitrace/trace/time_util.h"

int main(int argc, char** argv) {
  using namespace taxitrace;

  uint64_t seed = 2012;
  if (argc > 1 && !ParseArg(argv[1], &seed)) {
    std::fprintf(stderr, "usage: route_inspector [seed]\n");
    return 2;
  }
  Rng rng(seed);

  // 1. World: map, weather, driver, sensor.
  const Result<synth::CityMap> map_result = synth::GenerateCityMap();
  if (!map_result.ok()) {
    std::fprintf(stderr, "map generation failed: %s\n",
                 map_result.status().ToString().c_str());
    return 1;
  }
  const synth::CityMap& map = *map_result;
  const synth::WeatherModel weather(seed, 365);
  const synth::DriverModel driver(&map, &weather);
  const synth::SensorModel sensor;
  const roadnet::Router router(&map.network);

  // 2. One customer ride from the S gate to the T gate.
  const roadnet::VertexId from = map.FindGate("S").value()->terminal_vertex;
  const roadnet::VertexId to = map.FindGate("T").value()->terminal_vertex;
  const roadnet::Path truth = router.ShortestPath(from, to).value();
  const double start = 40.0 * trace::kSecondsPerDay + 14.5 * 3600.0;
  const auto samples = driver.Drive(truth, start, 1.0, &rng);

  trace::Trip trip;
  trip.trip_id = 1;
  trip.car_id = 1;
  int64_t next_point_id = 1;
  trip.points = sensor.Observe(samples, trip.trip_id, &next_point_id,
                               map.network.projection(), &rng);
  trip.RecomputeTotals();
  std::printf("Raw ride: %zu route points, %.2f km, %.1f min, starting %s\n",
              trip.points.size(), trip.total_distance_m / 1000.0,
              trip.total_time_s / 60.0,
              trace::FormatTimestamp(trip.StartTime()).c_str());

  // 3. Clean: order repair + obvious errors.
  const clean::ChosenOrder order = clean::RepairTripOrder(&trip);
  clean::OutlierFilterStats outliers;
  clean::FilterTripOutliers(&trip, {}, &outliers);
  std::printf(
      "Cleaning: order %s; %lld duplicates, %lld spikes, %lld impossible "
      "speeds removed\n",
      order == clean::ChosenOrder::kConsistent ? "already consistent"
      : order == clean::ChosenOrder::kById     ? "repaired by id"
                                               : "repaired by timestamp",
      static_cast<long long>(outliers.duplicates_removed),
      static_cast<long long>(outliers.spikes_removed),
      static_cast<long long>(outliers.implied_speed_removed));

  // 4. Map-match and compare against the simulated ground truth.
  const roadnet::SpatialIndex index(&map.network);
  const mapmatch::IncrementalMatcher matcher(&map.network, &index);
  const Result<mapmatch::MatchedRoute> matched = matcher.Match(trip);
  if (!matched.ok()) {
    std::fprintf(stderr, "matching failed: %s\n",
                 matched.status().ToString().c_str());
    return 1;
  }
  std::vector<roadnet::EdgeId> truth_edges;
  for (const roadnet::PathStep& s : truth.steps) {
    truth_edges.push_back(s.edge);
  }
  std::printf(
      "Matched route: %.2f km over %zu edges, %d gaps Dijkstra-filled, "
      "%d points unmatched\n",
      matched->length_m / 1000.0, matched->DistinctEdges().size(),
      matched->gaps_filled, matched->points_skipped);
  std::printf(
      "Against simulation truth: edge Jaccard %.2f, mean deviation %.1f "
      "m, length error %.1f%%\n",
      mapmatch::EdgeJaccard(matched->DistinctEdges(), truth_edges),
      mapmatch::MeanGeometryDeviation(matched->geometry, truth.geometry),
      100.0 * mapmatch::RouteLengthError(matched->length_m,
                                         truth.length_m));

  // 5. Map context of the driven route (Section IV-F).
  const mapattr::AttributeFetcher fetcher(&map.network);
  const mapattr::RouteAttributes attrs = fetcher.Fetch(*matched);
  std::printf(
      "Map context: %d junctions, %d traffic lights, %d pedestrian "
      "crossings, %d bus stops along the route\n",
      attrs.junctions, attrs.traffic_lights, attrs.pedestrian_crossings,
      attrs.bus_stops);

  // 6. Driving profile.
  int low = 0;
  for (const trace::RoutePoint& p : trip.points) {
    if (p.speed_kmh < 10.0) ++low;
  }
  std::printf(
      "Driving profile: %.0f%% low-speed points, %.0f ml fuel "
      "(%.0f ml/km), weather %.1f C\n",
      100.0 * low / static_cast<double>(trip.points.size()),
      trip.total_fuel_ml, trip.total_fuel_ml * 1000.0 / matched->length_m,
      weather.TemperatureAt(start));
  return 0;
}
