// FaultInjector: deterministic corruption of raw traces.
//
// The injector applies a FaultPlan at two boundaries:
//
//   * CorruptTrips — point- and trip-level faults on in-memory trips.
//     Every trip draws from its own Rng seeded with
//     MixSeed(plan.seed, trip_id, kTripSalt), so the set of faults is a
//     pure function of (plan, input) regardless of thread count.
//   * CorruptCsv — file-level faults on serialized trace CSV. Every
//     data row draws from MixSeed(plan.seed, row_index, kRowSalt).
//
// The helpers at the bottom are the graceful counterparts on the
// consuming side: rebuilding a TraceStore while counting (instead of
// aborting on) duplicate trip ids, and ApplyFaultPlan, the whole plan
// as one transform of a simulated store.

#ifndef TAXITRACE_FAULT_FAULT_INJECTOR_H_
#define TAXITRACE_FAULT_FAULT_INJECTOR_H_

#include <string>
#include <vector>

#include "taxitrace/common/result.h"
#include "taxitrace/fault/fault_plan.h"
#include "taxitrace/fault/fault_report.h"
#include "taxitrace/geo/coordinates.h"
#include "taxitrace/geo/geometry.h"
#include "taxitrace/obs/funnel.h"
#include "taxitrace/trace/trace_store.h"
#include "taxitrace/trace/trip.h"

namespace taxitrace {
namespace fault {

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
  /// row. The header row is never touched.
  [[nodiscard]] std::string CorruptCsv(const std::string& csv,
                                       FaultReport* report) const;

 private:
  FaultPlan plan_;
};

/// Builds a TraceStore from `trips`, dropping trips whose id is already
/// present (counted in report->trips_dropped_duplicate_id) instead of
/// failing. Any other store error propagates.
Result<trace::TraceStore> RebuildStoreDroppingDuplicates(
    std::vector<trace::Trip> trips, FaultReport* report);

/// The lat/lon box outside which the cleaning sanitiser drops a fix.
struct RegionGate {
  double lat_min_deg = 0.0;
  double lat_max_deg = 0.0;
  double lon_min_deg = 0.0;
  double lon_max_deg = 0.0;
};

/// Applies `plan` to a store in place: corrupts its trips, round-trips
/// them through a corrupted CSV and the lenient reader on file-level
/// faults, and rebuilds the store dropping duplicate ids. The trips are
/// moved out of the store, not copied; on error it is left empty.
/// Injections and drops add to `report`; a non-null `funnel` gets the
/// `rows.csv_lenient_parse` and `trips.store_rebuild` rows. Returns the
/// sanitiser's region gate: `network_bounds` (metres under `projection`)
/// inflated by 5 km, far beyond GPS scatter (outliers jump ~450 m), so
/// only wild fixes such as swapped coordinates fall outside.
Result<RegionGate> ApplyFaultPlan(const FaultPlan& plan,
                                  const geo::Bbox& network_bounds,
                                  const geo::LocalProjection& projection,
                                  trace::TraceStore* store,
                                  FaultReport* report,
                                  obs::FunnelLedger* funnel);

}  // namespace fault
}  // namespace taxitrace

#endif  // TAXITRACE_FAULT_FAULT_INJECTOR_H_
