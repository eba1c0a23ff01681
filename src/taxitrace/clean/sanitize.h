// Point sanitiser: the cleaning pipeline's first line of defence
// against malformed input (the fault classes injected by
// fault::FaultInjector, and their real-world counterparts).
//
// The regular cleaning stages (order repair, outlier filter,
// segmentation) assume finite coordinates and timestamps; feeding them
// NaN would poison distance sums and comparisons. The sanitiser drops
// such points up front and accounts for every drop in a
// fault::FaultReport. It is OFF by default so the fault-free pipeline
// stays byte-identical to the pre-harness pipeline; core::Pipeline
// switches it on when a FaultPlan is active.

#ifndef TAXITRACE_CLEAN_SANITIZE_H_
#define TAXITRACE_CLEAN_SANITIZE_H_

#include "taxitrace/fault/fault_report.h"
#include "taxitrace/geo/coordinates.h"
#include "taxitrace/geo/geometry.h"
#include "taxitrace/trace/trip.h"

namespace taxitrace {
namespace clean {

/// Gates applied by SanitizeTrip, in order.
struct SanitizeOptions {
  /// Master switch. When false, SanitizeTrip is a no-op.
  bool enabled = false;

  /// Geographic gate: when true, points outside the lat/lon box are
  /// dropped (catches swapped coordinates and wild fixes). The box
  /// should generously contain the study region, as GateToStudyRegion's
  /// does.
  bool has_region = false;
  double lat_min_deg = 0.0;
  double lat_max_deg = 0.0;
  double lon_min_deg = 0.0;
  double lon_max_deg = 0.0;

  /// Clock-jump gate: drop points whose timestamp is further than this
  /// from the trip's median timestamp. Injected jumps are +-12 h; real
  /// trips span minutes, so 6 h separates the two cleanly. Zero or
  /// negative disables the gate.
  double max_median_offset_s = 6.0 * 3600.0;
};

/// Removes malformed points from `trip`: non-finite fields, points
/// whose trip_id does not match the trip (interleaved streams),
/// negative speeds, out-of-region fixes, and clock jumps. Each drop is
/// counted in `report`; totals are recomputed when anything changed.
/// No-op unless `options.enabled`.
void SanitizeTrip(trace::Trip* trip, const SanitizeOptions& options,
                  fault::FaultReport* report);

/// Enables `options` with its geographic gate set to `network_bounds`
/// (metres under `projection`) inflated by 5 km, far beyond GPS scatter
/// (outliers jump ~450 m), so only wild fixes such as swapped
/// coordinates fall outside.
void GateToStudyRegion(const geo::Bbox& network_bounds,
                       const geo::LocalProjection& projection,
                       SanitizeOptions* options);

}  // namespace clean
}  // namespace taxitrace

#endif  // TAXITRACE_CLEAN_SANITIZE_H_
