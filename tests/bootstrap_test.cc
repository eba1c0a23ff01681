#include <gtest/gtest.h>

#include "taxitrace/analysis/bootstrap.h"
#include "taxitrace/common/random.h"
#include "taxitrace/core/figures.h"
#include "taxitrace/core/pipeline.h"

namespace taxitrace {
namespace {

// --- Bootstrap ------------------------------------------------------------------

std::vector<analysis::TransitionRecord> FakeRecords(int n, double mean,
                                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<analysis::TransitionRecord> out;
  for (int i = 0; i < n; ++i) {
    analysis::TransitionRecord r;
    r.direction = "S-T";
    r.low_speed_share =
        std::clamp(mean + rng.Gaussian(0.0, 0.08), 0.0, 1.0);
    out.push_back(r);
  }
  return out;
}

TEST(BootstrapTest, IntervalCoversEstimate) {
  const auto records = FakeRecords(60, 0.3, 7);
  const auto stat = [](const std::vector<analysis::TransitionRecord>& r) {
    return analysis::MeanLowSpeedPct(r, "S-T");
  };
  const analysis::BootstrapInterval ci =
      analysis::BootstrapTransitions(records, stat);
  EXPECT_EQ(ci.replicates, 1000);
  EXPECT_TRUE(ci.Contains(ci.estimate));
  EXPECT_NEAR(ci.estimate, 30.0, 4.0);
  EXPECT_GT(ci.Width(), 0.0);
  EXPECT_LT(ci.Width(), 10.0);
}

TEST(BootstrapTest, WidthShrinksWithSampleSize) {
  const auto stat = [](const std::vector<analysis::TransitionRecord>& r) {
    return analysis::MeanLowSpeedPct(r, "S-T");
  };
  const analysis::BootstrapInterval small =
      analysis::BootstrapTransitions(FakeRecords(20, 0.3, 11), stat);
  const analysis::BootstrapInterval large =
      analysis::BootstrapTransitions(FakeRecords(500, 0.3, 11), stat);
  EXPECT_LT(large.Width(), small.Width());
}

TEST(BootstrapTest, Deterministic) {
  const auto records = FakeRecords(40, 0.25, 13);
  const auto stat = [](const std::vector<analysis::TransitionRecord>& r) {
    return analysis::MeanLowSpeedPct(r, "S-T");
  };
  const auto a = analysis::BootstrapTransitions(records, stat);
  const auto b = analysis::BootstrapTransitions(records, stat);
  EXPECT_DOUBLE_EQ(a.lo, b.lo);
  EXPECT_DOUBLE_EQ(a.hi, b.hi);
}

TEST(BootstrapTest, EmptyInput) {
  const auto stat = [](const std::vector<analysis::TransitionRecord>&) {
    return 1.0;
  };
  const analysis::BootstrapInterval ci =
      analysis::BootstrapTransitions({}, stat);
  EXPECT_EQ(ci.replicates, 0);
  EXPECT_DOUBLE_EQ(ci.Width(), 0.0);
}

TEST(BootstrapTest, MeanLowSpeedPctHandlesMissingDirection) {
  EXPECT_DOUBLE_EQ(
      analysis::MeanLowSpeedPct(FakeRecords(5, 0.2, 3), "T-L"), 0.0);
}

// --- Fig. 2 gates layer --------------------------------------------------------

TEST(GatesGeoJsonTest, ContainsGatesAndCentralArea) {
  core::Pipeline pipeline(core::StudyConfig::SmallStudy());
  const core::StudyResults results = pipeline.Run().value();
  const std::string json = core::GatesGeoJson(results);
  EXPECT_NE(json.find("\"gate\":\"T\""), std::string::npos);
  EXPECT_NE(json.find("\"gate\":\"S\""), std::string::npos);
  EXPECT_NE(json.find("\"gate\":\"L\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"thick_geometry\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"central_area\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

}  // namespace
}  // namespace taxitrace
