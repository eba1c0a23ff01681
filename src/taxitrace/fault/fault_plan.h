// FaultPlan: the configuration of the fault-injection harness.
//
// A plan is a seed plus one probability per fault class. Probabilities
// are applied per opportunity (per point, per trip, or per CSV data
// row) with an Rng seeded through MixSeed on stable ids, so the set of
// injected faults depends only on the plan and the input — never on
// thread count or iteration order. This is what lets a faulted study
// keep the PR 2 guarantee of byte-identical StudyResults at any
// worker count.

#ifndef TAXITRACE_FAULT_FAULT_PLAN_H_
#define TAXITRACE_FAULT_FAULT_PLAN_H_

#include <cstdint>

#include "taxitrace/common/status.h"

namespace taxitrace {
namespace fault {

/// Per-fault-class injection probabilities. All default to zero, so a
/// default FaultPlan is a no-op and the fault-free pipeline is exactly
/// the pre-harness pipeline.
struct FaultPlan {
  /// Base seed for the injection RNG streams. Independent of the
  /// study seed so the same traffic can be replayed under different
  /// fault draws.
  uint64_t seed = 0x7461786974726163ULL;  // "taxitrac"

  // Point-level probabilities, applied per route point.
  double nan_coord_prob = 0.0;       ///< lat or lon becomes NaN/Inf.
  double clock_jump_prob = 0.0;      ///< timestamp shifted by +-12 h.
  double negative_speed_prob = 0.0;  ///< speed replaced by a negative.
  double swap_coord_prob = 0.0;      ///< lat and lon exchanged.

  // Trip-level probabilities, applied per trip.
  double duplicate_trip_prob = 0.0;     ///< trip id emitted twice.
  double empty_trip_prob = 0.0;         ///< all points removed.
  double single_point_trip_prob = 0.0;  ///< truncated to one point.
  double interleave_trip_prob = 0.0;    ///< leading points spliced into
                                        ///< the previous trip's stream.

  // File-level probabilities, applied per CSV data row. Nonzero values
  // route the raw traces through a CSV round-trip (serialize, corrupt,
  // lenient re-parse) before cleaning.
  double truncate_row_prob = 0.0;      ///< row cut mid-field.
  double wrong_columns_prob = 0.0;     ///< column added or removed.
  double junk_bytes_prob = 0.0;        ///< non-UTF8 bytes in a field.

  /// Sets every per-class probability to `rate` (a uniform fault mix).
  static FaultPlan Uniform(double rate);

  /// OK when every probability lies in [0, 1]; InvalidArgument naming
  /// the first that does not (NaN included) otherwise.
  [[nodiscard]] Status Validate() const;

  /// True when any probability is nonzero (the pipeline skips the
  /// injection step entirely otherwise).
  [[nodiscard]] bool Any() const;

  /// True when any file-level probability is nonzero (triggers the CSV
  /// round-trip in the pipeline).
  [[nodiscard]] bool AnyFileFaults() const;
};

}  // namespace fault
}  // namespace taxitrace

#endif  // TAXITRACE_FAULT_FAULT_PLAN_H_
