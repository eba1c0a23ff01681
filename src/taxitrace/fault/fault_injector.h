// FaultInjector: deterministic corruption of raw traces.
//
// A study applies its FaultPlan to each simulated (car, day) shard, on
// the worker that simulated it, before cleaning sees the shard's trips
// (CorruptShard). The injector works at two boundaries:
//
//   * CorruptTrips — point- and trip-level faults on in-memory trips.
//     Every trip draws from its own Rng seeded with
//     MixSeed(plan.seed, trip_id, kTripSalt), so the set of faults is a
//     pure function of (plan, input) regardless of thread count.
//   * CorruptCsv — file-level faults on serialized trace CSV. Every
//     data row draws from a stream keyed by (shard index, row in shard).
//
// CorruptShard runs both, the file faults first, and then drops the
// trips whose id repeats in the shard, counting them instead of
// failing. A shard is one car's day and its trip ids are its own
// (synth::kTripIdStride), so no fault reaches across cars or shards,
// and shards transform independently, in any order.

#ifndef TAXITRACE_FAULT_FAULT_INJECTOR_H_
#define TAXITRACE_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "taxitrace/common/status.h"
#include "taxitrace/fault/fault_plan.h"
#include "taxitrace/fault/fault_report.h"
#include "taxitrace/obs/funnel.h"
#include "taxitrace/trace/trip.h"

namespace taxitrace {
namespace fault {

/// What CorruptShard saw and did. Plain integer sums, so the tallies of
/// a study's shards fold to the same totals in any order.
struct FaultTally {
  FaultReport report;  ///< Injections, and the parse and duplicate drops.
  int64_t trips_in = 0;   ///< Trips handed to the transform.
  int64_t points_in = 0;  ///< Their points.
  int64_t csv_rows = 0;   ///< Data rows the lenient parse read.
  int64_t trips_deduplicated = 0;  ///< Trips entering the duplicate drop.

  void Add(const FaultTally& other);

  /// Appends the `rows.csv_lenient_parse` row (when `file_faults`) and
  /// the `trips.store_rebuild` row, the duplicate-id drop, to `funnel`.
  void AddFunnelRows(bool file_faults, obs::FunnelLedger* funnel) const;
};

/// Applies a FaultPlan to traces. Stateless apart from the plan; all
/// randomness is derived per trip / per row via MixSeed.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan) : plan_(plan) {}

  /// Corrupts `trips` in place with the plan's point- and trip-level
  /// fault classes, recording what was injected in `report`.
  /// Duplicated trips are appended after the originals; interleaved
  /// trips donate their leading points (which keep their original
  /// trip_id) to the previous trip in the list.
  void CorruptTrips(std::vector<trace::Trip>* trips,
                    FaultReport* report) const;

  /// Corrupts serialized trace CSV (as written by trace::TripsToCsv)
  /// with the plan's file-level fault classes, one decision per data
  /// row, drawn from a stream keyed by (`shard_index`, row). The header
  /// row is never touched.
  [[nodiscard]] std::string CorruptCsv(const std::string& csv,
                                       int64_t shard_index,
                                       FaultReport* report) const;

  /// The whole plan as a transform of one shard's trips, in place: on
  /// file-level faults a round trip through trace::TripsToCsv,
  /// CorruptCsv and trace::TripsFromCsvLenient, then CorruptTrips, then
  /// the drop of every trip whose id an earlier trip of the shard holds.
  /// The parse splits trips where the trip id changes, so running it
  /// last would rejoin interleaved points to their donor trip and
  /// merge a duplicate that follows its original.
  /// Adds what it saw and did to `tally`. Fails only if the lenient
  /// parse does, which an intact header rules out.
  Status CorruptShard(int64_t shard_index, std::vector<trace::Trip>* trips,
                      FaultTally* tally) const;

 private:
  FaultPlan plan_;
};

}  // namespace fault
}  // namespace taxitrace

#endif  // TAXITRACE_FAULT_FAULT_INJECTOR_H_
