// Extension analysis: the paper's Eq. (2) with map features as fixed
// effects — point speed regressed on the cell's feature counts with a
// random cell intercept ("X may include ... the map features such as the
// number of traffic lights, bus stops, pedestrian crossings or
// crossings for the cell"). Compared against a plain OLS without the
// random intercept.

#include <cmath>

#include "bench_util.h"
#include "taxitrace/analysis/feature_model.h"
#include "taxitrace/model/ols.h"

namespace taxitrace {
namespace {

std::vector<analysis::SpeedObservation> StudyObservations() {
  const core::StudyResults& r = benchutil::FullResults();
  const geo::LocalProjection& proj = r.map.network.projection();
  std::vector<analysis::SpeedObservation> out;
  for (const core::MatchedTransition& mt : r.transitions) {
    for (const trace::RoutePoint& p : mt.transition.segment.points) {
      out.push_back(analysis::SpeedObservation{
          proj.Forward(p.position), p.speed_kmh});
    }
  }
  return out;
}

void PrintFeatureEffects() {
  const core::StudyResults& r = benchutil::FullResults();
  const analysis::Grid grid(r.grid_cell_m);
  const std::vector<analysis::SpeedObservation> obs = StudyObservations();

  const Result<analysis::FeatureModelFit> fit =
      analysis::FitFeatureModel(obs, r.cell_features, grid);
  if (!fit.ok()) {
    std::printf("feature model failed: %s\n",
                fit.status().ToString().c_str());
    return;
  }
  std::printf(
      "FEATURE EFFECTS: point speed ~ cell features + (1 | cell), "
      "%lld observations\n",
      static_cast<long long>(fit->fit.num_observations));
  std::printf("  term                    estimate      s.e.\n");
  for (size_t i = 0; i < fit->terms.size(); ++i) {
    std::printf("  %-22s %9.3f %9.3f\n", fit->terms[i].c_str(),
                fit->fit.fixed_effects[i], fit->fit.fixed_se[i]);
  }
  std::printf(
      "  residual sd %.2f km/h, leftover cell sd %.2f km/h\n",
      std::sqrt(fit->fit.sigma2_residual),
      std::sqrt(fit->fit.sigma2_group));

  // Plain OLS on the same design, ignoring cell clustering.
  model::OlsAccumulator ols(analysis::FeatureModelTerms().size());
  for (const analysis::SpeedObservation& o : obs) {
    const auto it = r.cell_features.find(grid.CellOf(o.position));
    const analysis::CellFeatureCounts c =
        it == r.cell_features.end() ? analysis::CellFeatureCounts{}
                                    : it->second;
    ols.Add({1.0, static_cast<double>(c.traffic_lights),
             static_cast<double>(c.bus_stops),
             static_cast<double>(c.pedestrian_crossings),
             static_cast<double>(c.junctions)},
            o.speed_kmh);
  }
  const Result<model::OlsFit> plain = ols.Fit();
  if (plain.ok()) {
    std::printf(
        "  (plain OLS lights coefficient: %.3f; the mixed model "
        "attributes geography to cells instead of inflating the feature "
        "terms)\n",
        plain->coefficients[1]);
  }
  const double lights = fit->Coefficient("traffic_lights");
  std::printf(
      "Check: traffic lights reduce speed (negative coefficient %.2f) "
      "-> %s\n",
      lights, lights < 0.0 ? "HOLDS" : "VIOLATED");
  std::printf(
      "Check: residual cell geography remains after the features "
      "(leftover cell sd > 2 km/h) -> %s\n\n",
      std::sqrt(fit->fit.sigma2_group) > 2.0 ? "HOLDS" : "VIOLATED");
}

}  // namespace
}  // namespace taxitrace

int main() {
  taxitrace::PrintFeatureEffects();
  return 0;
}
