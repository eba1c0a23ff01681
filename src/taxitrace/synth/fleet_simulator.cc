#include "taxitrace/synth/fleet_simulator.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "taxitrace/common/reorder_buffer.h"
#include "taxitrace/common/strings.h"
#include "taxitrace/trace/time_util.h"

namespace taxitrace {
namespace synth {
namespace {

using roadnet::VertexId;

// Reusable per-worker buffers threaded through every drive/observe of
// the shards a worker runs. Never shared between threads: each worker
// gets its own slot via WorkerLocal.
struct SimScratch {
  DriveScratch drive;
  SensorScratch sensor;
  std::vector<DriveSample> idle_samples;
};

// Route-choice preference noise, derived lazily per edge instead of
// materialising an |E|-sized vector per drive. The multiplier of edge e
// during drive d is a pure function of (day_seed, d, e): independent of
// relax order (an edge queried twice yields the same value), of worker
// count, and of every other drive — so routes are exactly as
// deterministic as the old per-drive refill, at O(edges relaxed) cost.
// MinMultiplier() = 1 - noise keeps the router goal-directed (scaled
// A*) as long as noise < 1.
class LazyRouteNoise final : public roadnet::EdgeCostModel {
 public:
  LazyRouteNoise(uint64_t day_seed, double noise)
      : day_seed_(day_seed), noise_(noise) {}

  void BeginDrive(uint64_t drive_index) { drive_index_ = drive_index; }

  double Multiplier(roadnet::EdgeId edge) const override {
    // MixSeed's output is already a full splitmix64 finalisation of
    // (day_seed, drive, edge); mapping its top 53 bits straight to
    // [0, 1) (the same mapping Rng::NextDouble uses) gives a uniform
    // draw without paying for a full generator seed + step per edge.
    const uint64_t bits =
        MixSeed(day_seed_, drive_index_, static_cast<uint64_t>(edge));
    const double u = static_cast<double>(bits >> 11) * 0x1.0p-53;
    return (1.0 - noise_) + 2.0 * noise_ * u;
  }

  double MinMultiplier() const override { return 1.0 - noise_; }

 private:
  uint64_t day_seed_;
  double noise_;
  uint64_t drive_index_ = 0;
};

// Mutable state of one simulated car-day run.
struct CarState {
  VertexId position;
  double time_s;
  int64_t next_point_id;
  trace::Trip current_trip;  // engine-on run being accumulated
};

// Everything a shard needs; the models are shared, read-only, and
// outlive the simulation; `scratch` hands each worker its own buffers.
struct ShardContext {
  const CityMap* map;
  const roadnet::RoadNetwork* network;
  const roadnet::Router* router;
  const DriverModel* driver;
  const SensorModel* sensor;
  const FleetOptions* options;
  WorkerLocal<SimScratch>* scratch;
};

// Simulates one car on one day. Pure function of (context, car, day):
// all randomness comes from streams derived from (seed, car, day), so
// shards can run in any order on any thread.
Result<FleetShard> SimulateCarDay(const ShardContext& ctx, int car, int day) {
  const FleetOptions& options = *ctx.options;
  const roadnet::RoadNetwork& network = *ctx.network;
  SimScratch& scratch = ctx.scratch->Local();
  FleetShard out;

  // Car-level traits must not vary by day: they come from the car's own
  // stream (substream 0; day shards use day + 1).
  Rng car_rng(MixSeed(options.seed, static_cast<uint64_t>(car), 0));
  const double activity = car_rng.Uniform(0.6, 1.45);
  const double car_driver_skill = car_rng.Uniform(0.9, 1.06);

  const uint64_t day_seed = MixSeed(options.seed, static_cast<uint64_t>(car),
                                    static_cast<uint64_t>(day) + 1);
  Rng rng(day_seed);
  // Per-drive route noise, lazily derived from (day_seed, drive, edge)
  // inside the router's cost callback — no draws from `rng`, no |E|
  // refill per drive.
  LazyRouteNoise route_noise(day_seed, options.route_weight_noise);

  out.index = static_cast<int64_t>(car - 1) * options.num_days + day;
  const int64_t trip_id_base = out.index * kTripIdStride;
  int64_t trips_begun = 0;

  const auto random_vertex = [&](Rng* r) {
    return static_cast<VertexId>(r->UniformInt(
        0, static_cast<int64_t>(network.num_vertices()) - 1));
  };
  const auto random_gate_vertex = [&](Rng* r) {
    const size_t g = static_cast<size_t>(r->UniformInt(0, 2));
    return ctx.map->gates[g].terminal_vertex;
  };

  CarState state;
  // Each day starts at a fresh random vertex: the overnight
  // repositioning between shifts, and what makes days independent.
  state.position = random_vertex(&rng);
  const int64_t point_id_base = static_cast<int64_t>(day) * kPointIdStride;
  state.next_point_id = point_id_base + 1;
  state.current_trip = trace::Trip{};

  const auto begin_trip = [&](double t) {
    state.current_trip = trace::Trip{};
    state.current_trip.trip_id = trip_id_base + ++trips_begun;
    state.current_trip.car_id = car;
    state.time_s = t;
  };
  const auto finish_trip = [&]() {
    if (state.current_trip.points.size() >= 2) {
      state.current_trip.RecomputeTotals();
      out.trips.push_back(std::move(state.current_trip));
    }
    state.current_trip = trace::Trip{};
  };
  const auto observe = [&](const std::vector<DriveSample>& samples) {
    const std::vector<trace::RoutePoint>& points = ctx.sensor->Observe(
        samples, state.current_trip.trip_id, &state.next_point_id,
        network.projection(), &rng, &scratch.sensor);
    auto& dst = state.current_trip.points;
    dst.reserve(dst.size() + points.size());
    dst.insert(dst.end(), points.begin(), points.end());
  };
  // Drives from the current position to `dest`; returns false when no
  // route exists (should not happen on a connected map).
  uint64_t drive_index = 0;
  const auto drive_to = [&](VertexId dest, double driver_factor) {
    route_noise.BeginDrive(++drive_index);
    Result<roadnet::Path> path =
        ctx.router->ShortestPath(state.position, dest, route_noise);
    if (!path.ok() || path->length_m < 1.0) return false;
    const std::vector<DriveSample>& samples = ctx.driver->Drive(
        *path, state.time_s, driver_factor, &rng, &scratch.drive);
    if (samples.empty()) return false;
    observe(samples);
    state.time_s = samples.back().t_s;
    state.position = dest;
    return true;
  };

  // Weekend shifts start later (evening/night traffic).
  const bool weekend = trace::IsWeekend(day * trace::kSecondsPerDay);
  const double shift_start_h =
      weekend ? rng.Uniform(9.0, 13.0) : rng.Uniform(5.5, 10.0);
  const double shift_len_h = rng.Uniform(7.0, 12.0);
  double t = day * trace::kSecondsPerDay + shift_start_h * 3600.0;
  const double shift_end = t + shift_len_h * 3600.0;

  const int customers =
      std::max(options.min_customers_per_day,
               rng.Poisson(options.mean_customers_per_day * activity));
  begin_trip(t);

  for (int c = 0; c < customers && state.time_s < shift_end; ++c) {
    // Pick a destination; trips touching the gates model traffic in
    // and out of the downtown area.
    VertexId dest;
    if (c == 0 && rng.Bernoulli(options.gate_origin_prob)) {
      // Reposition to a gate first: the customer ride then starts at
      // the gate (an arriving fare).
      dest = random_gate_vertex(&rng);
      if (dest != state.position &&
          drive_to(dest, car_driver_skill * rng.Uniform(0.92, 1.08))) {
        ++out.num_reposition_drives;
      }
    }
    dest = rng.Bernoulli(options.gate_dest_prob)
               ? random_gate_vertex(&rng)
               : random_vertex(&rng);
    if (dest == state.position) continue;
    if (!drive_to(dest, car_driver_skill * rng.Uniform(0.92, 1.08))) {
      continue;
    }
    ++out.num_customer_drives;

    // After the drop-off: engine off (ends the raw trip), or keep the
    // engine running through a stand wait, possibly repositioning.
    const double demand = TaxiDemandWeight(
        trace::HourOfDay(state.time_s),
        trace::IsWeekend(state.time_s));
    if (rng.Bernoulli(options.engine_off_prob)) {
      finish_trip();
      state.time_s += rng.Uniform(120.0, 1500.0) / demand;
      begin_trip(state.time_s);
    } else {
      const double wait_s = rng.Uniform(180.0, 1800.0) / demand;
      ctx.driver->Idle(
          network.vertex(state.position).position, state.time_s,
          std::min(wait_s, std::max(0.0, shift_end - state.time_s)),
          &scratch.idle_samples);
      observe(scratch.idle_samples);
      state.time_s += wait_s;
      if (rng.Bernoulli(options.reposition_prob)) {
        // Short hop to a nearby stand. The radius-bounded probe decides
        // "is there a route under 900 m" without running the full
        // shortest-path search an actual drive would need.
        const VertexId hop = random_vertex(&rng);
        const double probe_m =
            ctx.router->BoundedVertexDistance(state.position, hop, 900.0);
        if (probe_m < 900.0 && probe_m > 1.0 &&
            drive_to(hop, car_driver_skill)) {
          ++out.num_reposition_drives;
        }
      }
    }
  }
  finish_trip();

  const Status budget = CheckShardIdBudget(
      trips_begun, state.next_point_id - 1 - point_id_base);
  if (!budget.ok()) {
    return Status::OutOfRange(StrFormat("car %d day %d: %s", car, day,
                                        budget.message().c_str()));
  }
  return out;
}

}  // namespace

Status CheckShardIdBudget(int64_t trips, int64_t point_ids) {
  if (trips > kTripIdStride) {
    return Status::OutOfRange(
        StrFormat("%lld trips exceed the per-car-day budget of %lld",
                  static_cast<long long>(trips),
                  static_cast<long long>(kTripIdStride)));
  }
  if (point_ids > kPointIdStride) {
    return Status::OutOfRange(
        StrFormat("%lld point ids exceed the per-car-day budget of %lld",
                  static_cast<long long>(point_ids),
                  static_cast<long long>(kPointIdStride)));
  }
  return Status::OK();
}

double TaxiDemandWeight(double hour_of_day, bool weekend) {
  const double h = std::fmod(std::fmod(hour_of_day, 24.0) + 24.0, 24.0);
  if (weekend) {
    if (h >= 18.0 || h < 2.0) return 1.5;  // evening/night peak
    if (h >= 10.0) return 1.0;
    return 0.5;
  }
  if (h >= 7.0 && h < 9.0) return 1.4;   // morning commute
  if (h >= 15.0 && h < 18.0) return 1.4; // afternoon commute
  if (h >= 9.0 && h < 15.0) return 1.0;
  if (h >= 18.0 && h < 23.0) return 0.9;
  return 0.4;  // night
}

FleetSimulator::FleetSimulator(const CityMap* map,
                               const WeatherModel* weather,
                               FleetOptions options,
                               const PedestrianModel* pedestrians)
    : map_(map),
      weather_(weather),
      pedestrians_(pedestrians),
      options_(options) {}

Result<FleetResult> FleetSimulator::Run(const Executor* executor) const {
  FleetResult result;
  trace::StoreTripSink sink(&result.store);
  const Result<FleetRunStats> stats = Run(executor, &sink);
  if (!stats.ok()) return stats.status();
  result.num_customer_drives = stats->num_customer_drives;
  result.num_reposition_drives = stats->num_reposition_drives;
  return result;
}

Result<FleetRunStats> FleetSimulator::Run(const Executor* executor,
                                          trace::TripSink* sink) const {
  // Deterministic streaming merge: shards finish in any order, but
  // trips reach the sink in strict shard order (car-major,
  // day-ascending).
  FleetRunStats stats;
  ReorderBuffer<FleetShard> merge([&](FleetShard shard) -> Status {
    stats.num_customer_drives += shard.num_customer_drives;
    stats.num_reposition_drives += shard.num_reposition_drives;
    for (trace::Trip& trip : shard.trips) {
      ++stats.trips_simulated;
      stats.points_simulated += static_cast<int64_t>(trip.points.size());
      TAXITRACE_RETURN_IF_ERROR(sink->Consume(std::move(trip)));
    }
    return Status::OK();
  });
  TAXITRACE_RETURN_IF_ERROR(
      RunShards(executor, [&merge](FleetShard shard) -> Status {
        const int64_t index = shard.index;
        return merge.Deposit(index, std::move(shard));
      }));
  stats.peak_buffered_shards = merge.peak_buffered();
  return stats;
}

Status FleetSimulator::RunShards(
    const Executor* executor,
    const std::function<Status(FleetShard)>& on_shard) const {
  if (options_.num_cars <= 0 || options_.num_days <= 0) {
    return Status::InvalidArgument("fleet needs at least one car and day");
  }
  const roadnet::RoadNetwork& network = map_->network;
  const roadnet::Router router(&network);
  const PedestrianModel own_pedestrians =
      pedestrians_ == nullptr
          ? PedestrianModel(options_.seed + 17, map_->hotspots,
                            options_.num_days)
          : PedestrianModel(*pedestrians_);
  const DriverModel driver(map_, weather_, options_.driver,
                           &own_pedestrians);
  const SensorModel sensor(options_.sensor);
  WorkerLocal<SimScratch> scratch;
  const ShardContext ctx{map_,    &network,  &router,  &driver,
                         &sensor, &options_, &scratch};

  const int64_t num_shards =
      static_cast<int64_t>(options_.num_cars) * options_.num_days;
  const Executor& ex = executor != nullptr ? *executor : Executor::Serial();
  return ex.ParallelFor(0, num_shards, [&](int64_t shard) -> Status {
    const int car = 1 + static_cast<int>(shard / options_.num_days);
    const int day = static_cast<int>(shard % options_.num_days);
    TAXITRACE_ASSIGN_OR_RETURN(FleetShard out, SimulateCarDay(ctx, car, day));
    return on_shard(std::move(out));
  });
}

}  // namespace synth
}  // namespace taxitrace
