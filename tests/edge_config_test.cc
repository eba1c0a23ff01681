// Pathological-configuration robustness: the pipeline and its stages
// must degrade gracefully (clean Status or empty-but-valid results) on
// extreme configs, never crash.

#include <gtest/gtest.h>

#include <cmath>

#include "taxitrace/core/pipeline.h"
#include "taxitrace/synth/city_map_generator.h"

namespace taxitrace {
namespace core {
namespace {

TEST(EdgeConfigTest, SingleCarSingleDay) {
  StudyConfig config = StudyConfig::SmallStudy();
  config.fleet.num_cars = 1;
  config.fleet.num_days = 1;
  Pipeline pipeline(config);
  const Result<StudyResults> run = pipeline.Run();
  ASSERT_TRUE(run.ok());
  EXPECT_GE(run->raw_trips, 1);
  EXPECT_EQ(run->table3.size(), 1u);
  // One day rarely yields transitions; everything must still be valid.
  EXPECT_GE(run->transitions.size(), 0u);
}

TEST(EdgeConfigTest, ZeroCarsRejected) {
  StudyConfig config = StudyConfig::SmallStudy();
  config.fleet.num_cars = 0;
  EXPECT_FALSE(Pipeline(config).Run().ok());
}

TEST(EdgeConfigTest, TinyMapRejectedCleanly) {
  StudyConfig config = StudyConfig::SmallStudy();
  config.map.extent_m = 50.0;  // too small for a street grid
  EXPECT_FALSE(Pipeline(config).Run().ok());
}

TEST(EdgeConfigTest, HugeGridCellsStillWork) {
  StudyConfig config = StudyConfig::SmallStudy();
  config.grid_cell_m = 2000.0;  // the whole town in a few cells
  const Result<StudyResults> run = Pipeline(config).Run();
  ASSERT_TRUE(run.ok());
  EXPECT_LE(run->cells.size(), 10u);
  EXPECT_GE(run->cells.size(), 1u);
}

TEST(EdgeConfigTest, NarrowGatesFindFewerTransitions) {
  StudyConfig wide = StudyConfig::SmallStudy();
  StudyConfig narrow = StudyConfig::SmallStudy();
  narrow.gate.half_width_m = 4.0;
  const Result<StudyResults> wide_run = Pipeline(wide).Run();
  const Result<StudyResults> narrow_run = Pipeline(narrow).Run();
  ASSERT_TRUE(wide_run.ok());
  ASSERT_TRUE(narrow_run.ok());
  // Raw gate hits are monotone in gate width (a narrow polygon is a
  // subset of the wide one), but the end-to-end transition count is
  // not quite: a wider gate can merge two nearby crossings into one
  // inside-interval, or add a gate touch that flips a trip's direction
  // label out of the selected set. Allow a couple of such flips; a
  // systematic inversion still fails.
  EXPECT_LE(narrow_run->transitions.size(),
            wide_run->transitions.size() + 2);
}

TEST(EdgeConfigTest, ExtremeSegmentationWindows) {
  // A 10-second rule-1 window shreds trips into fragments; most die at
  // the <5-point filter, but nothing crashes and what survives is valid.
  StudyConfig config = StudyConfig::SmallStudy();
  config.cleaning.segmentation.rule1_window_s = 10.0;
  const Result<StudyResults> run = Pipeline(config).Run();
  ASSERT_TRUE(run.ok());
  for (const MatchedTransition& mt : run->transitions) {
    EXPECT_GE(mt.transition.segment.points.size(), 5u);
  }
}

TEST(EdgeConfigTest, NoisySensorStillProducesAStudy) {
  StudyConfig config = StudyConfig::SmallStudy();
  config.fleet.sensor.gps_sigma_m = 20.0;
  config.fleet.sensor.outlier_prob = 0.02;
  config.fleet.sensor.drop_prob = 0.05;
  const Result<StudyResults> run = Pipeline(config).Run();
  ASSERT_TRUE(run.ok());
  EXPECT_GT(run->cleaning_report.outliers.spikes_removed, 0);
}

TEST(EdgeConfigTest, InterpolationFlagThroughPipeline) {
  StudyConfig config = StudyConfig::SmallStudy();
  config.cleaning.restore_lost_points = true;
  const Result<StudyResults> run = Pipeline(config).Run();
  ASSERT_TRUE(run.ok());
  // Moving gaps exist in any fleet (dropped points), so some points are
  // restored.
  EXPECT_GE(run->cleaning_report.interpolation.points_inserted, 0);
}

TEST(EdgeConfigTest, DegradedSensorsStillRunEndToEnd) {
  // Ageing devices: heavy GPS noise, outliers, drops and transport
  // glitches that scramble point ids and timestamps.
  StudyConfig config = StudyConfig::FullStudy();
  config.fleet.num_cars = 2;
  config.fleet.num_days = 14;
  config.fleet.sensor.gps_sigma_m = 15.0;
  config.fleet.sensor.outlier_prob = 0.015;
  config.fleet.sensor.drop_prob = 0.05;
  config.fleet.sensor.dup_prob = 0.02;
  config.fleet.sensor.timestamp_glitch_prob = 0.35;
  config.fleet.sensor.id_glitch_prob = 0.3;
  const Result<StudyResults> run = Pipeline(config).Run();
  ASSERT_TRUE(run.ok());
  // The defects show up in the cleaning report.
  EXPECT_GT(run->cleaning_report.outliers.spikes_removed, 0);
  EXPECT_GT(run->cleaning_report.order.trips_repaired_by_id +
                run->cleaning_report.order.trips_repaired_by_timestamp,
            0);
}

TEST(EdgeConfigTest, NoRiverHasMoreCrossings) {
  // The same city without the river: the study's map with include_river
  // cleared, compared by network crossing counts via the generator.
  const StudyConfig with = StudyConfig::FullStudy();
  StudyConfig without = StudyConfig::FullStudy();
  without.map.include_river = false;
  const synth::CityMap river_map =
      synth::GenerateCityMap(with.map).value();
  const synth::CityMap free_map =
      synth::GenerateCityMap(without.map).value();
  const auto crossings = [&](const synth::CityMap& map, double river_y) {
    int n = 0;
    map.network.ForEachEdge([&](const roadnet::Edge& e) {
      const double y0 = e.geometry.front().y;
      const double y1 = e.geometry.back().y;
      if ((y0 - river_y) * (y1 - river_y) < 0.0 &&
          std::abs(y1 - y0) > 50.0) {
        ++n;
      }
    });
    return n;
  };
  EXPECT_GT(crossings(free_map, with.map.river_y_m),
            crossings(river_map, with.map.river_y_m));
}

}  // namespace
}  // namespace core
}  // namespace taxitrace
