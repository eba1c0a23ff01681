// Ablation: the paper's length-criterion order repair vs naive
// timestamp sorting, on trips with transport-scrambled fields.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "taxitrace/clean/order_repair.h"
#include "taxitrace/roadnet/router.h"
#include "taxitrace/synth/city_map_generator.h"
#include "taxitrace/synth/driver_model.h"
#include "taxitrace/synth/sensor_model.h"

namespace taxitrace {
namespace {

struct GlitchedTrip {
  std::vector<trace::RoutePoint> observed;  // scrambled fields
  std::vector<trace::RoutePoint> truth;     // device order
};

std::vector<GlitchedTrip> MakeGlitchedTrips(int count) {
  auto map = synth::GenerateCityMap().value();
  const synth::WeatherModel weather(3, 30);
  const synth::DriverModel driver(&map, &weather);
  const roadnet::Router router(&map.network);
  synth::SensorOptions clean_options;
  clean_options.timestamp_glitch_prob = 0.0;
  clean_options.id_glitch_prob = 0.0;
  clean_options.drop_prob = 0.0;
  clean_options.dup_prob = 0.0;
  clean_options.outlier_prob = 0.0;
  const synth::SensorModel clean_sensor(clean_options);
  synth::SensorOptions glitch_options = clean_options;
  glitch_options.timestamp_glitch_prob = 0.5;
  glitch_options.id_glitch_prob = 1.0;  // applied if no ts glitch rolled
  const synth::SensorModel glitch_sensor(glitch_options);

  Rng rng(99);
  std::vector<GlitchedTrip> out;
  while (static_cast<int>(out.size()) < count) {
    const auto a = static_cast<roadnet::VertexId>(rng.UniformInt(
        0, static_cast<int64_t>(map.network.num_vertices()) - 1));
    const auto b = static_cast<roadnet::VertexId>(rng.UniformInt(
        0, static_cast<int64_t>(map.network.num_vertices()) - 1));
    const auto path = router.ShortestPath(a, b);
    if (!path.ok() || path->length_m < 800.0) continue;
    const auto samples = driver.Drive(*path, 3600.0, 1.0, &rng);
    GlitchedTrip trip;
    int64_t id1 = 1, id2 = 1;
    Rng sensor_rng = rng.Fork();
    Rng sensor_rng_copy = sensor_rng;  // identical noise for both
    trip.truth = clean_sensor.Observe(samples, 1, &id1,
                                      map.network.projection(),
                                      &sensor_rng);
    trip.observed = clean_sensor.Observe(samples, 1, &id2,
                                         map.network.projection(),
                                         &sensor_rng_copy);
    Rng defect_rng = rng.Fork();
    glitch_sensor.ApplyTransportDefects(&trip.observed, &defect_rng);
    out.push_back(std::move(trip));
  }
  return out;
}

bool SameGeometryOrder(const std::vector<trace::RoutePoint>& a,
                       const std::vector<trace::RoutePoint>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (geo::HaversineMeters(a[i].position, b[i].position) > 0.5) {
      return false;
    }
  }
  return true;
}

void PrintAblation() {
  const std::vector<GlitchedTrip> trips = MakeGlitchedTrips(300);
  int repair_correct = 0, naive_correct = 0;
  double repair_excess_m = 0.0, naive_excess_m = 0.0;
  for (const GlitchedTrip& trip : trips) {
    const double truth_len = trace::PathLengthMeters(trip.truth);

    std::vector<trace::RoutePoint> repaired = trip.observed;
    clean::RepairPointOrder(&repaired);
    if (SameGeometryOrder(repaired, trip.truth)) ++repair_correct;
    repair_excess_m += trace::PathLengthMeters(repaired) - truth_len;

    std::vector<trace::RoutePoint> naive = trip.observed;
    std::stable_sort(naive.begin(), naive.end(),
                     [](const trace::RoutePoint& x,
                        const trace::RoutePoint& y) {
                       return x.timestamp_s < y.timestamp_s;
                     });
    if (SameGeometryOrder(naive, trip.truth)) ++naive_correct;
    naive_excess_m += trace::PathLengthMeters(naive) - truth_len;
  }
  const double n = static_cast<double>(trips.size());
  std::printf("ABLATION: order repair (Section IV-B) vs naive "
              "timestamp sort, %zu glitched trips\n", trips.size());
  std::printf("  length-criterion repair: %5.1f%% exact recovery, "
              "mean excess path %.1f m\n",
              100.0 * repair_correct / n, repair_excess_m / n);
  std::printf("  naive timestamp sort:    %5.1f%% exact recovery, "
              "mean excess path %.1f m\n",
              100.0 * naive_correct / n, naive_excess_m / n);
  std::printf("Check: repair recovers more trips -> %s\n\n",
              repair_correct > naive_correct ? "HOLDS" : "VIOLATED");
}

}  // namespace
}  // namespace taxitrace

int main() {
  taxitrace::PrintAblation();
  return 0;
}
