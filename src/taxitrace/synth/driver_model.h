// Microscopic driver model: turns a routed path into a second-by-second
// drive with realistic speed dynamics — acceleration limits, stochastic
// traffic-light stops (including the rare ~200 s error situation the
// paper's segmentation rules reference), pedestrian-crossing slowdowns,
// crowd hotspots, rush-hour congestion, and weather/season effects.

#ifndef TAXITRACE_SYNTH_DRIVER_MODEL_H_
#define TAXITRACE_SYNTH_DRIVER_MODEL_H_

#include <vector>

#include "taxitrace/common/random.h"
#include "taxitrace/roadnet/router.h"
#include "taxitrace/synth/city_map_generator.h"
#include "taxitrace/synth/pedestrian_model.h"
#include "taxitrace/synth/weather_model.h"

namespace taxitrace {
namespace synth {

/// One instant of a simulated drive.
struct DriveSample {
  double t_s = 0.0;            ///< Study timestamp.
  geo::EnPoint position;       ///< True (noise-free) position.
  double speed_kmh = 0.0;      ///< True speed.
  double heading_rad = 0.0;    ///< Travel heading.
  double fuel_delta_ml = 0.0;  ///< Fuel burnt since the previous sample.
};

/// Reusable buffers for one worker's drives. A fleet run calls Drive
/// hundreds of thousands of times; routing the sample/zone/event
/// storage through one of these per worker makes steady-state drives
/// allocation-free. One instance serves one thread at a time; the
/// filled `samples` stay valid until the next Drive through the same
/// instance.
struct DriveScratch {
  /// Speed-limit zone along a path, one per path step.
  struct Zone {
    double end_arc = 0.0;
    double limit_ms = 0.0;
  };
  /// A concrete incident along one drive.
  struct Event {
    double arc_m = 0.0;
    bool is_stop = false;      ///< full stop with a wait
    double wait_s = 0.0;       ///< for stops
    double slow_to_ms = 99.0;  ///< for slowdowns
    bool done = false;
  };

  std::vector<DriveSample> samples;  ///< Drive output.
  std::vector<double> cursor_cum;    ///< Geometry prefix sums.
  std::vector<Zone> zones;
  std::vector<Event> events;
  std::vector<Event> merged_events;
  /// Hotspots whose influence circle meets the drive's bounding box.
  std::vector<size_t> hotspot_candidates;
};

/// Behaviour and vehicle parameters.
struct DriverOptions {
  double accel_ms2 = 1.6;
  double decel_ms2 = 2.2;
  /// Probability of having to stop at a passed traffic light.
  double light_stop_prob = 0.55;
  /// Red-light waits: uniform within [min,max]; with `light_error_prob`
  /// the light is faulty and the wait runs to ~200 s (after which it
  /// switches to blinking yellow — Section IV-C).
  double light_wait_min_s = 8.0;
  double light_wait_max_s = 75.0;
  double light_error_prob = 0.004;
  double light_error_wait_s = 200.0;
  /// Pedestrian crossings: slowdown probability (scaled up inside
  /// hotspots) and the speed driven past an occupied crossing.
  double crossing_slow_prob = 0.45;
  double crossing_slow_kmh = 14.0;
  double crossing_stop_prob_in_hotspot = 0.30;
  /// Bus stops: probability of being briefly stuck behind a bus.
  double bus_slow_prob = 0.12;
  /// Probability that a queue discharges slowly after a stop (a short
  /// crawl at walking pace past the stop line).
  double queue_crawl_prob = 0.8;
  /// Rate (events per second at full crowd intensity) of ad-hoc
  /// pedestrian-induced crawls while driving inside a hotspot.
  double hotspot_crawl_rate_per_s = 0.16;
  /// Fuel model (millilitres): idle rate plus speed and acceleration
  /// terms, calibrated so the Table 4 gate-to-gate trips land at the
  /// paper's ~210-265 ml.
  double fuel_idle_ml_s = 0.14;
  double fuel_speed_ml_per_m = 0.036;
  double fuel_speed2_ml_s_per_ms2 = 0.0007;
  double fuel_accel_ml_per_ms = 0.75;
  /// Simulation step, seconds.
  double step_s = 1.0;
  /// Radius within which a feature affects a passing car, metres.
  double feature_influence_radius_m = 25.0;
};

/// Simulates drives over a generated city. Holds pointers to the map and
/// weather model, which must outlive it.
class DriverModel {
 public:
  /// `pedestrians` (optional) makes hotspot crowding time-varying; when
  /// null the hotspots' static intensities apply at all times.
  DriverModel(const CityMap* map, const WeatherModel* weather,
              DriverOptions options = {},
              const PedestrianModel* pedestrians = nullptr);

  /// Drives `path` starting at `start_time_s`. `driver_factor` scales the
  /// driver's preferred speed (1.0 = drives at the limit). Deterministic
  /// given `rng` state.
  std::vector<DriveSample> Drive(const roadnet::Path& path,
                                 double start_time_s, double driver_factor,
                                 Rng* rng) const;

  /// As Drive, but reusing `scratch`'s buffers instead of allocating.
  /// Returns scratch->samples, filled with the drive; draws the exact
  /// same RNG sequence and produces the exact same samples as the
  /// allocating overload.
  const std::vector<DriveSample>& Drive(const roadnet::Path& path,
                                        double start_time_s,
                                        double driver_factor, Rng* rng,
                                        DriveScratch* scratch) const;

  /// Engine-on idling at a fixed position (taxi stand / customer wait).
  /// Samples are spaced ~10 s apart.
  std::vector<DriveSample> Idle(const geo::EnPoint& position,
                                double start_time_s, double duration_s) const;

  /// As Idle, writing into `*out` (cleared first) instead of allocating.
  void Idle(const geo::EnPoint& position, double start_time_s,
            double duration_s, std::vector<DriveSample>* out) const;

  /// Multiplier (< 1 inside hotspots) applied to target speed at `p`.
  [[nodiscard]] double HotspotFactor(const geo::EnPoint& p) const;

  /// Crowd intensity at `p`: 0 outside hotspots, up to the hotspot's
  /// intensity at its centre (static profile).
  [[nodiscard]] double HotspotIntensity(const geo::EnPoint& p) const;

  /// Crowd intensity at `p` and time `t`: the pedestrian model's
  /// time-varying level when present, else the static profile.
  [[nodiscard]]
  double CrowdIntensity(const geo::EnPoint& p, double timestamp_s) const;

  /// As CrowdIntensity, consulting only the hotspots in `candidates`
  /// (indices into the list this model reads crowding from). Exact when
  /// `candidates` came from FillHotspotCandidates over a box containing
  /// `p` — skipped hotspots would have contributed nothing.
  [[nodiscard]] double CrowdIntensity(
      const geo::EnPoint& p, double timestamp_s,
      const std::vector<size_t>& candidates) const;

  /// As the candidate overload with the timestamp pre-decomposed into
  /// its CrowdWindow: bit-identical results for any timestamp inside
  /// `window`. The drive loop queries once per simulated second, so it
  /// refreshes the window only at diurnal/day boundaries instead of
  /// re-deriving day, weekend flag and diurnal level every step.
  [[nodiscard]] double CrowdIntensity(
      const geo::EnPoint& p, const CrowdWindow& window,
      const std::vector<size_t>& candidates) const;

  /// Fills `*candidates` (cleared first, ascending) with every hotspot
  /// whose influence circle can reach the axis-aligned box [lo, hi].
  /// Conservative: a hotspot is kept whenever its centre lies within
  /// its radius of the box, so the candidate CrowdIntensity overload is
  /// exact for any query point inside the box.
  void FillHotspotCandidates(const geo::EnPoint& lo, const geo::EnPoint& hi,
                             std::vector<size_t>* candidates) const;

  /// Seasonal speed multiplier for a timestamp (autumn fastest, winter
  /// slowest — the ordering the paper reports).
  static double SeasonFactor(double timestamp_s);

  [[nodiscard]] const DriverOptions& options() const { return options_; }

 private:
  struct EdgeEvent {
    roadnet::FeatureType type;
    double arc_on_edge_m;  ///< Offset along the edge geometry.
  };

  const CityMap* map_;
  const WeatherModel* weather_;
  const PedestrianModel* pedestrians_;
  DriverOptions options_;
  /// Per-edge feature events, precomputed from the map.
  std::vector<std::vector<EdgeEvent>> edge_events_;
};

}  // namespace synth
}  // namespace taxitrace

#endif  // TAXITRACE_SYNTH_DRIVER_MODEL_H_
