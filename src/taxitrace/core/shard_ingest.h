// Online ingestion fed by the fleet simulator's (car, day) shards, so a
// fault-free online-ingest study never holds the raw campaign: each
// car's trips pass through its arrival shuffle and ingest session as
// the car's days are simulated.

#ifndef TAXITRACE_CORE_SHARD_INGEST_H_
#define TAXITRACE_CORE_SHARD_INGEST_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "taxitrace/common/executor.h"
#include "taxitrace/common/reorder_buffer.h"
#include "taxitrace/common/status.h"
#include "taxitrace/stream/ingest_session.h"
#include "taxitrace/synth/fleet_simulator.h"
#include "taxitrace/trace/trip.h"
#include "taxitrace/trace/trip_sink.h"

namespace taxitrace {
namespace core {

/// One stream::CarIngest per car of a fleet, fed from the fleet's shards
/// by a per-car ReorderBuffer over the car's days. Each car thus ingests
/// its trips in (day, trip) order, which is its order in the fleet's
/// store, so its windows and IngestStats equal ReplayCarStream's over
/// FleetSimulator::Run's store at any worker count. What is held is the
/// days that finished ahead of an earlier day of their car and each
/// car's shuffle window.
class ShardIngest {
 public:
  /// `sinks[c]` receives car c + 1's windows; there must be one sink per
  /// car of `fleet`, and they must outlive this object. A car's sink is
  /// called by one thread at a time: under its day buffer's lock during
  /// Simulate, by the car's work item during FinishStreams.
  ShardIngest(const synth::FleetSimulator* fleet,
              const stream::IngestOptions& options,
              const std::vector<trace::TripSink*>& sinks);

  /// Simulates every shard, claiming them day-major so that all cars
  /// advance together, and ingests each shard's trips once every
  /// earlier day of its car has been ingested.
  Status Simulate(const Executor& executor);

  /// Ends every car's stream (ArrivalShuffle flush, session finish), one
  /// car per work item. Call once, after Simulate succeeded.
  Status FinishStreams(const Executor& executor);

  /// Car c + 1's session stats.
  [[nodiscard]] const stream::IngestStats& car_stats(size_t c) const {
    return cars_[c]->ingest.stats();
  }
  [[nodiscard]] size_t num_cars() const { return cars_.size(); }
  /// Raw trips and points the shards delivered.
  [[nodiscard]] int64_t trips_simulated() const;
  [[nodiscard]] int64_t points_simulated() const;
  /// Most days any one car's buffer ever held at once; depends on
  /// scheduling (1 on a serial run).
  [[nodiscard]] int64_t peak_buffered_shards() const;

 private:
  struct Car {
    Car(int car_id, const stream::IngestOptions& options,
        trace::TripSink* sink);
    stream::CarIngest ingest;
    int64_t trips = 0;
    int64_t points = 0;
    ReorderBuffer<std::vector<trace::Trip>> days;
  };

  const synth::FleetSimulator* fleet_;
  std::vector<std::unique_ptr<Car>> cars_;
};

}  // namespace core
}  // namespace taxitrace

#endif  // TAXITRACE_CORE_SHARD_INGEST_H_
