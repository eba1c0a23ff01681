#include "taxitrace/core/shard_ingest.h"

#include <algorithm>
#include <utility>

#include "taxitrace/common/check.h"

namespace taxitrace {
namespace core {

ShardIngest::Car::Car(int car_id, const stream::IngestOptions& options,
                      trace::TripSink* sink)
    : ingest(car_id, options, sink),
      days([this](std::vector<trace::Trip> day) -> Status {
        for (const trace::Trip& trip : day) {
          ++trips;
          points += static_cast<int64_t>(trip.points.size());
          TAXITRACE_RETURN_IF_ERROR(ingest.AddTrip(trip));
        }
        return Status::OK();
      }) {}

ShardIngest::ShardIngest(const synth::FleetSimulator* fleet,
                         const stream::IngestOptions& options,
                         const std::vector<trace::TripSink*>& sinks)
    : fleet_(fleet) {
  TT_CHECK(sinks.size() ==
           static_cast<size_t>(std::max(fleet->options().num_cars, 0)));
  for (size_t c = 0; c < sinks.size(); ++c) {
    cars_.push_back(
        std::make_unique<Car>(static_cast<int>(c) + 1, options, sinks[c]));
  }
}

Status ShardIngest::Simulate(
    const Executor& executor,
    const std::function<Status(synth::FleetShard&)>& transform) {
  const int64_t days = fleet_->options().num_days;
  return fleet_->RunShards(
      &executor,
      [&](synth::FleetShard shard) -> Status {
        if (transform) TAXITRACE_RETURN_IF_ERROR(transform(shard));
        Car& car = *cars_[static_cast<size_t>(shard.index / days)];
        return car.days.Deposit(shard.index % days, std::move(shard.trips));
      },
      synth::ShardOrder::kDayMajor);
}

Status ShardIngest::FinishStreams(const Executor& executor) {
  return executor.ParallelFor(
      0, static_cast<int64_t>(cars_.size()), [&](int64_t c) -> Status {
        return cars_[static_cast<size_t>(c)]->ingest.FinishStream();
      });
}

int64_t ShardIngest::trips_simulated() const {
  int64_t n = 0;
  for (const auto& car : cars_) n += car->trips;
  return n;
}

int64_t ShardIngest::points_simulated() const {
  int64_t n = 0;
  for (const auto& car : cars_) n += car->points;
  return n;
}

int64_t ShardIngest::peak_buffered_shards() const {
  int64_t peak = 0;
  for (const auto& car : cars_) {
    peak = std::max(peak, car->days.peak_buffered());
  }
  return peak;
}

}  // namespace core
}  // namespace taxitrace
