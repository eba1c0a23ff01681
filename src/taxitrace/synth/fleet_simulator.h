// Fleet simulator: generates a year of raw taxi traces for a fleet of
// cars over a generated city — the stand-in for the seven Driveco-
// equipped taxis that collected the paper's data in Oulu during
// 1.10.2012-31.9.2013.
//
// The simulation reproduces the taxi-specific behaviours the paper's
// methods target: day-long engine-on runs covering many customers (so
// time-based segmentation is required), stand waits between customers,
// short repositioning hops, and free route choice between origins and
// destinations.

#ifndef TAXITRACE_SYNTH_FLEET_SIMULATOR_H_
#define TAXITRACE_SYNTH_FLEET_SIMULATOR_H_

#include <functional>
#include <vector>

#include "taxitrace/common/executor.h"
#include "taxitrace/common/result.h"
#include "taxitrace/synth/driver_model.h"
#include "taxitrace/synth/pedestrian_model.h"
#include "taxitrace/synth/sensor_model.h"
#include "taxitrace/synth/weather_model.h"
#include "taxitrace/trace/trace_store.h"
#include "taxitrace/trace/trip_sink.h"

namespace taxitrace {
namespace synth {

/// Fleet-level knobs. Defaults approximate the paper's collection
/// campaign (7 taxis, one year, ~30 000 trips).
struct FleetOptions {
  int num_cars = 7;
  int num_days = 365;
  uint64_t seed = 20121001;
  /// Mean customer drives per car-day (scaled per car by an activity
  /// factor in [0.6, 1.45]).
  double mean_customers_per_day = 11.0;
  /// Floor on the per-day customer draw. The default keeps every
  /// car-day active (the study model); 0 lets a near-idle fleet
  /// produce genuinely empty (car, day) shards, which the streaming
  /// reorder merge must release past without stalling.
  int min_customers_per_day = 1;
  /// Probability the engine is switched off after a drop-off (ends the
  /// raw trip); otherwise the engine keeps running through the wait.
  double engine_off_prob = 0.72;
  /// Probability that a customer trip starts / ends at one of the T, S,
  /// L gate roads (entering or leaving the downtown area).
  double gate_origin_prob = 0.12;
  double gate_dest_prob = 0.12;
  /// Probability of a short repositioning hop after a drop-off.
  double reposition_prob = 0.30;
  /// Route-choice preference noise: per-trip edge cost multipliers are
  /// drawn from [1 - noise, 1 + noise].
  double route_weight_noise = 0.25;
  DriverOptions driver;
  SensorOptions sensor;
};

/// Relative taxi demand at an hour of day (mean ~1 over a day): morning
/// and afternoon peaks on weekdays, an evening/night peak on weekends.
/// Waits between customers scale inversely with demand.
double TaxiDemandWeight(double hour_of_day, bool weekend);

/// Id budgets of one (car, day) shard. Shard s numbers its trips
/// s * kTripIdStride + 1 .. s * kTripIdStride + kTripIdStride, and the
/// points of car-day d are numbered d * kPointIdStride + 1 ..
/// d * kPointIdStride + kPointIdStride, so ids are unique fleet-wide and
/// ascend in shard order without any cross-shard coordination.
inline constexpr int64_t kTripIdStride = 4096;
inline constexpr int64_t kPointIdStride = int64_t{1} << 20;

/// OK while one car-day's `trips` and `point_ids` fit their budgets
/// above; OutOfRange naming the exhausted budget otherwise.
Status CheckShardIdBudget(int64_t trips, int64_t point_ids);

/// What one (car, day) shard simulated.
struct FleetShard {
  /// (car - 1) * num_days + day: the shard's place in the merge order.
  int64_t index = 0;
  std::vector<trace::Trip> trips;  ///< In trip order.
  int64_t num_customer_drives = 0;
  int64_t num_reposition_drives = 0;
};

/// Outcome of a simulation run.
struct FleetResult {
  trace::TraceStore store;        ///< Raw (uncleaned) trips.
  int64_t num_customer_drives = 0;
  int64_t num_reposition_drives = 0;
};

/// Counters from a streaming simulation run. The drive and trip/point
/// totals are deterministic in the seed; `peak_buffered_shards` is the
/// reorder buffer's high-water mark — the only simulation state that
/// scales with parallelism rather than with one shard, and the number
/// the bounded-memory benchmark reports.
struct FleetRunStats {
  int64_t num_customer_drives = 0;
  int64_t num_reposition_drives = 0;
  int64_t trips_simulated = 0;   ///< Trips delivered to the sink.
  int64_t points_simulated = 0;  ///< Raw points across those trips.
  /// Most (car, day) shard outputs ever held back waiting for an
  /// earlier shard to finish (1 on a serial run).
  int64_t peak_buffered_shards = 0;
};

/// Simulates the fleet. Holds pointers to the map and weather model,
/// which must outlive it.
class FleetSimulator {
 public:
  /// `pedestrians` (optional) supplies time-varying crowd activity; when
  /// null the simulator builds its own from `options.seed + 17`.
  FleetSimulator(const CityMap* map, const WeatherModel* weather,
                 FleetOptions options = {},
                 const PedestrianModel* pedestrians = nullptr);

  /// Runs the full simulation. Deterministic in options.seed.
  ///
  /// The work is sharded into one unit per (car, day); every shard's
  /// randomness comes from the stream `MixSeed(seed, car, day + 1)`
  /// (car-level traits from `MixSeed(seed, car, 0)`), and shard outputs
  /// are merged in (car, day) order, so the stored trips are
  /// bit-identical at any thread count. `executor == nullptr` (or a
  /// 0-thread executor) runs the shards serially, in shard order.
  ///
  /// Trip ids and point ids are allocated per shard from disjoint,
  /// (car, day)-ascending ranges: trip ids are unique fleet-wide and
  /// point ids stay strictly increasing per car across the whole
  /// campaign, as the real device counters would be.
  ///
  /// Accumulates every trip into the returned store — a thin wrapper
  /// over the streaming overload below with a StoreTripSink.
  Result<FleetResult> Run(const Executor* executor = nullptr) const;

  /// Streaming form: finished trips are handed to `sink` one at a time,
  /// in strict (car, day, trip) order regardless of worker count, and
  /// never accumulate inside the simulator. Out-of-order shard
  /// completions wait in a ReorderBuffer whose high-water mark is
  /// reported in the returned stats; with W workers it stays around W,
  /// so peak memory is bounded by per-shard state — the property that
  /// makes 1000-car × multi-day runs feasible. Sink calls are
  /// serialised under the reorder buffer's lock, so the sink needs no
  /// synchronisation, but every worker waits on it: a sink that does
  /// real per-trip work (cleaning, matching) serialises the whole run.
  /// Such work belongs in RunShards' callback, on the worker, with only
  /// an ordered fold behind it. A sink error aborts the run and is
  /// returned.
  Result<FleetRunStats> Run(const Executor* executor,
                            trace::TripSink* sink) const;

  /// The shard loop under both Run overloads: simulates every (car, day)
  /// shard and calls `on_shard` once per shard on the worker that
  /// simulated it — concurrently, in any order, with no lock held.
  /// Callers that need (car, day) order deposit the shard, or what they
  /// computed from it, in a ReorderBuffer keyed on FleetShard::index. A
  /// shard that overflows its id budget, or an `on_shard` error, fails
  /// the run; the executor returns the lowest failing shard's error.
  Status RunShards(const Executor* executor,
                   const std::function<Status(FleetShard)>& on_shard) const;

  [[nodiscard]] const FleetOptions& options() const { return options_; }

 private:
  const CityMap* map_;
  const WeatherModel* weather_;
  const PedestrianModel* pedestrians_;
  FleetOptions options_;
};

}  // namespace synth
}  // namespace taxitrace

#endif  // TAXITRACE_SYNTH_FLEET_SIMULATOR_H_
