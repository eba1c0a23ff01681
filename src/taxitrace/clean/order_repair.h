// Route-point order repair (Section IV-B).
//
// Due to latency variation on the device->server link, the (id,
// timestamp) pairs of a trip may arrive — and be stored — in an
// inconsistent order. The repair sorts the points into two candidate
// sequences, by id and by timestamp, computes the total travelled
// distance of each, keeps the sequence with the smaller length, and
// finally re-aligns both fields so they increase monotonically along the
// chosen sequence.

#ifndef TAXITRACE_CLEAN_ORDER_REPAIR_H_
#define TAXITRACE_CLEAN_ORDER_REPAIR_H_

#include <vector>

#include "taxitrace/trace/trip.h"

namespace taxitrace {
namespace clean {

/// Which ordering the length criterion selected.
enum class ChosenOrder : unsigned char {
  kConsistent,   ///< Id order and timestamp order already agree.
  kById,         ///< Id order gave the shorter (correct) path.
  kByTimestamp,  ///< Timestamp order gave the shorter (correct) path.
};

/// Aggregate counts over a repair run.
struct OrderRepairStats {
  int64_t trips_consistent = 0;
  int64_t trips_repaired_by_id = 0;
  int64_t trips_repaired_by_timestamp = 0;
};

/// Repairs one point sequence in place. Returns which order was chosen.
/// After the call the points are in the chosen order and both the id and
/// timestamp fields are monotonically increasing (their value multisets
/// are preserved).
///
/// A sequence already non-decreasing in both fields (ties allowed) is
/// returned as kConsistent without copying or sorting: both stable sorts
/// would leave it as it is. Anything else, a NaN timestamp included,
/// takes the general path of two stable sorts and the length criterion.
ChosenOrder RepairPointOrder(std::vector<trace::RoutePoint>* points);

/// RepairPointOrder, also counting the chosen order into `stats` if
/// given. The form CleanOneTrip uses: no later stage of it reads the
/// trip totals, so it does not recompute them.
ChosenOrder RepairPointOrder(std::vector<trace::RoutePoint>* points,
                             OrderRepairStats* stats);

/// Repairs a trip (points + recomputed totals), updating `stats` if
/// given.
ChosenOrder RepairTripOrder(trace::Trip* trip,
                            OrderRepairStats* stats = nullptr);

}  // namespace clean
}  // namespace taxitrace

#endif  // TAXITRACE_CLEAN_ORDER_REPAIR_H_
