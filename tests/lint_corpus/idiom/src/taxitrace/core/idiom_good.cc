// Known-good shapes the idiom rules must not flag: propagated or
// consumed Status, a valued Result, and scratch-owned search state.

#include "taxitrace/core/fake_api.h"

namespace taxitrace {

Status GoodPropagated() {
  TAXITRACE_RETURN_IF_ERROR(WriteThing(1));
  Status st = ReadThing(2);
  return st;
}

Result<int> GoodResult() {
  return Result<int>(42);
}

void GoodScratchReset(SearchScratch& scratch) {
  scratch.dist.assign(scratch.dist.size(), 1e18);
}

void GoodScratchRefill(SearchScratch& scratch, Rng& rng) {
  for (double& m : scratch.multipliers) m = rng.Uniform(0.75, 1.25);
}

double GoodReadOnlySweep(const std::vector<double>& multipliers) {
  double total = 0.0;
  for (const double m : multipliers) total += m;
  return total;
}

size_t GoodBorrowedIndex(const roadnet::SpatialIndex& index,
                         const roadnet::SpatialIndex* also,
                         const geo::EnPoint& p) {
  return index.Nearby(p, roadnet::SpatialIndex::kReachM).size() +
         also->Nearby(p, 10.0).size();
}

}  // namespace taxitrace
