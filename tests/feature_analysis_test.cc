#include <gtest/gtest.h>

#include "taxitrace/analysis/feature_model.h"
#include "taxitrace/common/random.h"

namespace taxitrace {
namespace analysis {
namespace {

// Synthetic world where traffic lights slow cells by a known amount.
struct SyntheticWorld {
  std::vector<SpeedObservation> observations;
  std::unordered_map<CellId, CellFeatureCounts, CellIdHash> features;
};

SyntheticWorld MakeWorld(double light_effect_kmh, uint64_t seed) {
  SyntheticWorld world;
  Rng rng(seed);
  const Grid grid(200.0);
  for (int cx = 0; cx < 8; ++cx) {
    for (int cy = 0; cy < 8; ++cy) {
      const CellId cell{cx, cy};
      CellFeatureCounts counts;
      counts.traffic_lights = static_cast<int>(rng.UniformInt(0, 3));
      counts.bus_stops = static_cast<int>(rng.UniformInt(0, 2));
      counts.pedestrian_crossings = static_cast<int>(rng.UniformInt(0, 5));
      counts.junctions = static_cast<int>(rng.UniformInt(1, 4));
      world.features[cell] = counts;
      const double cell_effect = rng.Gaussian(0.0, 1.5);
      const geo::EnPoint center = grid.CellCenter(cell);
      for (int k = 0; k < 40; ++k) {
        SpeedObservation obs;
        obs.position =
            center + geo::EnPoint{rng.Uniform(-80, 80),
                                  rng.Uniform(-80, 80)};
        obs.speed_kmh = 35.0 + light_effect_kmh * counts.traffic_lights +
                        cell_effect + rng.Gaussian(0.0, 4.0);
        world.observations.push_back(obs);
      }
    }
  }
  return world;
}

TEST(FeatureModelTest, RecoversLightEffect) {
  const SyntheticWorld world = MakeWorld(-3.0, 7);
  const FeatureModelFit fit =
      FitFeatureModel(world.observations, world.features, Grid(200.0))
          .value();
  EXPECT_NEAR(fit.Coefficient("traffic_lights"), -3.0, 0.8);
  EXPECT_NEAR(fit.Coefficient("intercept"), 35.0, 2.5);
  EXPECT_GT(fit.StandardError("traffic_lights"), 0.0);
  EXPECT_EQ(fit.cells.size(), 64u);
}

TEST(FeatureModelTest, NoEffectGivesNearZeroCoefficient) {
  const SyntheticWorld world = MakeWorld(0.0, 11);
  const FeatureModelFit fit =
      FitFeatureModel(world.observations, world.features, Grid(200.0))
          .value();
  EXPECT_NEAR(fit.Coefficient("traffic_lights"), 0.0, 0.9);
}

TEST(FeatureModelTest, UnknownTermIsZero) {
  const SyntheticWorld world = MakeWorld(-1.0, 13);
  const FeatureModelFit fit =
      FitFeatureModel(world.observations, world.features, Grid(200.0))
          .value();
  EXPECT_DOUBLE_EQ(fit.Coefficient("no_such_term"), 0.0);
  EXPECT_DOUBLE_EQ(fit.StandardError("no_such_term"), 0.0);
}

TEST(FeatureModelTest, RejectsTinyInput) {
  EXPECT_TRUE(FitFeatureModel({}, {}, Grid(200.0))
                  .status()
                  .IsFailedPrecondition());
}

}  // namespace
}  // namespace analysis
}  // namespace taxitrace
