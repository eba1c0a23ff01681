// Ablation: the specialised one-way REML vs the generic Henderson
// mixed-model equations — identical estimates, different cost.

#include <cmath>

#include "bench_util.h"
#include "taxitrace/model/mixed_model.h"
#include "taxitrace/model/one_way_reml.h"

namespace taxitrace {
namespace {

void PrintAblation() {
  // Both solvers get the same point speeds grouped by 200 m cell.
  model::OneWayReml one_way;
  model::MixedModel mixed(1);
  const core::StudyResults& r = benchutil::FullResults();
  const geo::LocalProjection& proj = r.map.network.projection();
  const analysis::Grid grid(r.grid_cell_m);
  std::unordered_map<analysis::CellId, size_t, analysis::CellIdHash> groups;
  for (const core::MatchedTransition& mt : r.transitions) {
    for (const trace::RoutePoint& p : mt.transition.segment.points) {
      const analysis::CellId cell = grid.CellOf(proj.Forward(p.position));
      const auto [it, inserted] = groups.emplace(cell, groups.size());
      one_way.Add(it->second, p.speed_kmh);
      mixed.Add({1.0}, it->second, p.speed_kmh);
    }
  }
  const model::OneWayRemlFit a = one_way.Fit().value();
  const model::MixedModelFit b = mixed.Fit().value();
  std::printf(
      "ABLATION: one-way REML specialisation vs generic Henderson MME, "
      "%lld point speeds in %zu cells\n",
      static_cast<long long>(a.num_observations), one_way.num_groups());
  std::printf("  estimate            one-way      generic\n");
  std::printf("  intercept (km/h)   %8.3f     %8.3f\n", a.mu,
              b.fixed_effects[0]);
  std::printf("  sigma2 residual    %8.2f     %8.2f\n", a.sigma2_residual,
              b.sigma2_residual);
  std::printf("  sigma2 cell        %8.2f     %8.2f\n", a.sigma2_group,
              b.sigma2_group);
  std::printf("  lambda             %8.4f     %8.4f\n", a.lambda,
              b.lambda);
  double max_blup_diff = 0.0;
  for (size_t g = 0; g < a.blup.size(); ++g) {
    max_blup_diff =
        std::max(max_blup_diff, std::abs(a.blup[g] - b.blup[g]));
  }
  std::printf("  max |BLUP diff|    %8.5f km/h\n", max_blup_diff);
  std::printf("Check: the two solvers agree -> %s\n\n",
              (std::abs(a.lambda - b.lambda) < 0.02 * (1 + a.lambda) &&
               max_blup_diff < 0.05)
                  ? "HOLDS"
                  : "VIOLATED");
}

}  // namespace
}  // namespace taxitrace

int main() {
  taxitrace::PrintAblation();
  return 0;
}
