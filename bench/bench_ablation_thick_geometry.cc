// Ablation: "thick geometry" OD gates (Section IV-D) vs thin gates —
// how many genuine transitions a thin gate misses because routes deviate
// slightly from the mapped road.

#include "bench_util.h"
#include "taxitrace/odselect/transition_extractor.h"

namespace taxitrace {
namespace {

int64_t CountTransitions(const core::StudyResults& r, double half_width) {
  odselect::OdGateOptions gate_options;
  gate_options.half_width_m = half_width;
  std::vector<odselect::OdGate> gates;
  for (const synth::GateRoad& g : r.map.gates) {
    gates.emplace_back(g.name, g.geometry, gate_options);
  }
  const odselect::TransitionExtractor extractor(
      gates, r.map.network.projection());
  int64_t transitions = 0;
  for (const core::MatchedTransition& mt : r.transitions) {
    transitions += static_cast<int64_t>(
        extractor.Analyze(mt.transition.segment).transitions.size());
  }
  return transitions;
}

void PrintAblation() {
  const core::StudyResults& r = benchutil::FullResults();
  std::printf(
      "ABLATION: thick-geometry gate width vs transitions detected on "
      "the %zu known transition segments\n",
      r.transitions.size());
  std::printf("  half-width (m)   transitions detected   recall\n");
  const int64_t reference = static_cast<int64_t>(r.transitions.size());
  for (const double width : {5.0, 15.0, 30.0, 60.0, 90.0}) {
    const int64_t found = CountTransitions(r, width);
    std::printf("  %13.0f   %20lld   %5.1f%%\n", width,
                static_cast<long long>(found),
                100.0 * static_cast<double>(found) /
                    static_cast<double>(reference));
  }
  const int64_t thin = CountTransitions(r, 5.0);
  const int64_t thick = CountTransitions(r, 60.0);
  std::printf(
      "Check: thick gates catch more deviating routes than thin gates "
      "(%lld > %lld) -> %s\n\n",
      static_cast<long long>(thick), static_cast<long long>(thin),
      thick > thin ? "HOLDS" : "VIOLATED");
}

}  // namespace
}  // namespace taxitrace

int main() {
  taxitrace::PrintAblation();
  return 0;
}
