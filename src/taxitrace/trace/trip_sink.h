// Streaming consumer of finished trips. Producers (the fleet
// simulator, an online ingestion session) hand each trip to the sink
// exactly once, in a deterministic order that never depends on worker
// count, so a sink can store, forward, or discard trips one at a time
// without the whole raw trace ever materialising in memory.

#ifndef TAXITRACE_TRACE_TRIP_SINK_H_
#define TAXITRACE_TRACE_TRIP_SINK_H_

#include "taxitrace/common/result.h"
#include "taxitrace/trace/trace_store.h"
#include "taxitrace/trace/trip.h"

namespace taxitrace {
namespace trace {

/// Receives finished trips one at a time. Calls arrive serialised and
/// in a deterministic order, so implementations need no
/// synchronisation of their own. FleetSimulator::Run serialises them
/// under its reorder buffer's lock, which every simulation worker waits
/// on: a sink there should only store, count or forward the trip,
/// because per-trip work such as cleaning or matching would run on one
/// thread for the whole fleet — run it in FleetSimulator::RunShards'
/// callback instead. An IngestSession calls its sink on the worker that
/// owns the session, with no lock, so that sink may do the per-trip
/// work itself.
class TripSink {
 public:
  virtual ~TripSink() = default;

  /// Takes ownership of one finished trip. A non-OK status aborts the
  /// producing run and is propagated to its caller.
  virtual Status Consume(Trip trip) = 0;
};

/// A TripSink that accumulates trips into a TraceStore — the in-memory
/// mode expressed as a sink, and the adapter behind
/// FleetSimulator::Run's store-returning overload.
class StoreTripSink final : public TripSink {
 public:
  explicit StoreTripSink(TraceStore* store) : store_(store) {}

  Status Consume(Trip trip) override {
    return store_->AddTrip(std::move(trip));
  }

 private:
  TraceStore* store_;
};

}  // namespace trace
}  // namespace taxitrace

#endif  // TAXITRACE_TRACE_TRIP_SINK_H_
