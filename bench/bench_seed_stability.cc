// Seed-stability study: how much the headline statistics move across
// independent simulated worlds — the reproduction's error bars. A claim
// that only holds for one seed is not a reproduction.

#include <cmath>

#include "bench_util.h"
#include "taxitrace/analysis/bootstrap.h"
#include "taxitrace/analysis/route_stats.h"

namespace taxitrace {
namespace {

struct SeedOutcome {
  uint64_t seed;
  int64_t transitions;
  double low_ts_pct;
  double low_tl_pct;
  double cell_sd;
  double centre_blup;
};

SeedOutcome RunSeed(uint64_t seed) {
  core::StudyConfig config = core::StudyConfig::SmallStudy();
  config.fleet.num_days = 90;
  config.fleet.num_cars = 4;
  config.fleet.seed = seed;
  config.map.seed = seed + 1;
  config.weather_seed = seed + 2;
  core::Pipeline pipeline(config);
  auto run = pipeline.Run();
  SeedOutcome out{seed, 0, 0, 0, 0, 0};
  if (!run.ok()) return out;
  const core::StudyResults& r = *run;
  out.transitions = static_cast<int64_t>(r.transitions.size());
  const auto records = r.Records();
  out.low_ts_pct = analysis::MeanLowSpeedPct(records, "T-S");
  out.low_tl_pct = analysis::MeanLowSpeedPct(records, "T-L");
  out.cell_sd = std::sqrt(r.cell_model.sigma2_group);
  const analysis::Grid grid(r.grid_cell_m);
  double centre_sum = 0.0;
  int centre_n = 0;
  for (size_t g = 0; g < r.cell_model.blup.size(); ++g) {
    if (r.cell_model.group_n[g] == 0) continue;
    if (geo::Norm(grid.CellCenter(r.model_cells[g])) < 350.0) {
      centre_sum += r.cell_model.blup[g];
      ++centre_n;
    }
  }
  out.centre_blup = centre_n > 0 ? centre_sum / centre_n : 0.0;
  return out;
}

void PrintStability() {
  std::printf(
      "SEED STABILITY: five independent 4-car, 90-day worlds (map, "
      "weather and fleet reseeded)\n");
  std::printf(
      "  seed   transitions  low%% T-S  low%% T-L  cell sd  centre "
      "BLUP\n");
  int ordering_holds = 0;
  int centre_slow = 0;
  for (uint64_t seed : {11ULL, 22ULL, 33ULL, 44ULL, 55ULL}) {
    const SeedOutcome out = RunSeed(seed);
    std::printf("  %4llu  %11lld  %8.1f  %8.1f  %7.1f  %11.1f\n",
                static_cast<unsigned long long>(out.seed),
                static_cast<long long>(out.transitions), out.low_ts_pct,
                out.low_tl_pct, out.cell_sd, out.centre_blup);
    if (out.low_ts_pct > out.low_tl_pct) ++ordering_holds;
    if (out.centre_blup < -1.0) ++centre_slow;
  }
  std::printf(
      "Check: low%% T-S > T-L in every world -> %s\n",
      ordering_holds == 5 ? "HOLDS" : "VIOLATED");
  std::printf("Check: the centre is slow in every world -> %s\n\n",
              centre_slow == 5 ? "HOLDS" : "VIOLATED");
}

}  // namespace
}  // namespace taxitrace

int main() {
  taxitrace::PrintStability();
  return 0;
}
