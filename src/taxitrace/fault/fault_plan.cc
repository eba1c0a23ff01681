#include "taxitrace/fault/fault_plan.h"

#include "taxitrace/common/strings.h"

namespace taxitrace {
namespace fault {
namespace {

struct ProbabilityField {
  const char* name;
  double FaultPlan::* prob;
};

constexpr ProbabilityField kFields[] = {
    {"nan_coord_prob", &FaultPlan::nan_coord_prob},
    {"clock_jump_prob", &FaultPlan::clock_jump_prob},
    {"negative_speed_prob", &FaultPlan::negative_speed_prob},
    {"swap_coord_prob", &FaultPlan::swap_coord_prob},
    {"duplicate_trip_prob", &FaultPlan::duplicate_trip_prob},
    {"empty_trip_prob", &FaultPlan::empty_trip_prob},
    {"single_point_trip_prob", &FaultPlan::single_point_trip_prob},
    {"interleave_trip_prob", &FaultPlan::interleave_trip_prob},
    {"truncate_row_prob", &FaultPlan::truncate_row_prob},
    {"wrong_columns_prob", &FaultPlan::wrong_columns_prob},
    {"junk_bytes_prob", &FaultPlan::junk_bytes_prob},
};

}  // namespace

FaultPlan FaultPlan::Uniform(double rate) {
  FaultPlan plan;
  for (const ProbabilityField& f : kFields) plan.*f.prob = rate;
  return plan;
}

Status FaultPlan::Validate() const {
  for (const ProbabilityField& f : kFields) {
    const double p = this->*f.prob;
    // Written so that NaN fails too: Bernoulli(NaN) never fires.
    if (!(p >= 0.0 && p <= 1.0)) {
      return Status::InvalidArgument(
          StrFormat("faults.%s %g is outside [0, 1]", f.name, p));
    }
  }
  return Status::OK();
}

bool FaultPlan::Any() const {
  for (const ProbabilityField& f : kFields) {
    if (this->*f.prob > 0.0) return true;
  }
  return false;
}

bool FaultPlan::AnyFileFaults() const {
  return truncate_row_prob > 0.0 || wrong_columns_prob > 0.0 ||
         junk_bytes_prob > 0.0;
}

}  // namespace fault
}  // namespace taxitrace
