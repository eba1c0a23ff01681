// Known-bad shapes for the ported repo-idiom rules.

#include "util.h"  // expect(include-path)
#include "taxitrace/core/fake_api.h"

namespace taxitrace {

void BadAssert(int x) {
  assert(x > 0);  // expect(bare-assert)
}

void BadThread() {
  std::thread t([] {});  // expect(raw-thread)
  t.join();
}

void BadIgnoredStatus() {
  WriteThing(1);  // expect(ignored-status)
}

Result<int> BadResultOk() {
  return Result<int>(Status::OK());  // expect(result-ok-status)
}

void BadLinearReset(std::vector<double>& dist,
                    std::vector<bool>& visited) {
  dist.assign(dist.size(), 1e18);  // expect(linear-reset)
  std::fill(visited.begin(), visited.end(), false);  // expect(linear-reset)
}

void BadRngRefill(std::vector<double>& multipliers, Rng& rng) {
  for (double& m : multipliers) {  // expect(linear-reset)
    m = rng.Uniform(0.75, 1.25);
  }
}

void BadRngRefillPtr(std::vector<double>& edge_weights, Rng* noise_rng) {
  for (auto& w : edge_weights) w = noise_rng->Uniform(0.6, 1.5);  // expect(linear-reset)
}

void BadSecondIndex(const roadnet::RoadNetwork& net) {
  const roadnet::SpatialIndex index(&net);  // expect(one-spatial-index)
  auto owned = std::make_unique<roadnet::SpatialIndex>(&net);  // expect(one-spatial-index)
}

}  // namespace taxitrace
