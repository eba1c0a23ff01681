// Full-study regression bands: the paper-scale run must keep producing
// the shapes EXPERIMENTS.md documents. The study runs once per process;
// the checks are grouped into two TESTs so ctest (one process per test)
// does not re-run the pipeline per assertion group.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "taxitrace/analysis/route_stats.h"
#include "taxitrace/core/pipeline.h"
#include "taxitrace/core/reports.h"
#include "taxitrace/fault/fault_plan.h"

namespace taxitrace {
namespace core {
namespace {

const StudyResults& FullResults() {
  static const StudyResults* results = [] {
    Pipeline pipeline(StudyConfig::FullStudy());
    auto run = pipeline.Run();
    return new StudyResults(std::move(run).value());
  }();
  return *results;
}

double DirectionMean(const std::vector<analysis::Table4Row>& rows,
                     const std::string& direction,
                     analysis::Summary analysis::Table4Row::* field) {
  for (const analysis::Table4Row& row : rows) {
    if (row.direction == direction) return (row.*field).mean;
  }
  return 0.0;
}

void CheckFunnel() {
  int64_t post = 0, segments = 0;
  for (const odselect::Table3Row& row : FullResults().table3) {
    post += row.post_filtered;
    segments += row.segments_total;
  }
  // Paper: 544 post-filtered transitions out of 18 077 segments.
  EXPECT_GT(post, 350);
  EXPECT_LT(post, 800);
  EXPECT_GT(segments, 20000);
  EXPECT_LT(segments, 50000);
}

void CheckTable4() {
  const auto rows = analysis::BuildTable4(FullResults().Records());
  const double low_ts =
      DirectionMean(rows, "T-S", &analysis::Table4Row::low_speed_pct);
  const double low_tl =
      DirectionMean(rows, "T-L", &analysis::Table4Row::low_speed_pct);
  const double norm_ts =
      DirectionMean(rows, "T-S", &analysis::Table4Row::normal_speed_pct);
  const double norm_tl =
      DirectionMean(rows, "T-L", &analysis::Table4Row::normal_speed_pct);
  const double fuel_ts =
      DirectionMean(rows, "T-S", &analysis::Table4Row::fuel_ml);
  const double fuel_tl =
      DirectionMean(rows, "T-L", &analysis::Table4Row::fuel_ml);
  const double dist_ts =
      DirectionMean(rows, "T-S", &analysis::Table4Row::route_distance_km);

  EXPECT_GT(low_ts, low_tl);    // S<->T carries more low speed
  EXPECT_GT(norm_tl, norm_ts);  // contrariwise for normal speed
  EXPECT_GT(fuel_ts, fuel_tl);  // low speed correlates with fuel
  EXPECT_GT(dist_ts, 2.0);      // ~2.2-2.6 km routes
  EXPECT_LT(dist_ts, 3.2);
  EXPECT_GT(fuel_ts, 180.0);    // paper regime: ~210-300 ml
  EXPECT_LT(fuel_ts, 420.0);
}

void CheckSeasonal() {
  const StudyResults& r = FullResults();
  // Winter slowest, autumn fastest (paper Section VI-A).
  EXPECT_LT(r.seasonal[0].delta_kmh, r.seasonal[2].delta_kmh);
  EXPECT_LT(r.seasonal[0].delta_kmh, r.seasonal[3].delta_kmh);
  EXPECT_GT(r.seasonal[3].delta_kmh, 0.0);
}

void CheckCellModel() {
  const StudyResults& r = FullResults();
  // sigma_cell ~ 10 km/h, BLUPs roughly [-15, +20] (paper Fig. 9).
  EXPECT_GT(std::sqrt(r.cell_model.sigma2_group), 5.0);
  EXPECT_LT(std::sqrt(r.cell_model.sigma2_group), 18.0);
  double min_blup = 0.0, max_blup = 0.0;
  for (size_t g = 0; g < r.cell_model.blup.size(); ++g) {
    if (r.cell_model.group_n[g] == 0) continue;
    min_blup = std::min(min_blup, r.cell_model.blup[g]);
    max_blup = std::max(max_blup, r.cell_model.blup[g]);
  }
  EXPECT_LT(min_blup, -8.0);
  EXPECT_GT(max_blup, 8.0);
  EXPECT_TRUE(r.geography_lrt.Significant(0.001));
}

void CheckCentre() {
  const StudyResults& r = FullResults();
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
  ASSERT_GT(centre_n, 0);
  EXPECT_LT(centre_sum / centre_n, -3.0);  // paper: up to -8 km/h
}

void CheckVolumeAndTimings() {
  // Paper: 30 469 measured point speeds; same order of magnitude.
  EXPECT_GT(FullResults().total_point_speeds, 15000);
  EXPECT_LT(FullResults().total_point_speeds, 120000);
  const StageTimings& t = FullResults().timings;
  EXPECT_GT(t.simulation_ms, 0.0);
  EXPECT_GT(t.cleaning_ms, 0.0);
  EXPECT_GT(t.selection_matching_ms, 0.0);
  EXPECT_GT(t.analysis_ms, 0.0);
  EXPECT_GT(t.TotalMs(), t.simulation_ms);
}

TEST(FullStudyRegressionTest, FunnelTable4AndSeasons) {
  CheckFunnel();
  CheckTable4();
  CheckSeasonal();
}

TEST(FullStudyRegressionTest, CellModelCentreVolumeTimings) {
  CheckCellModel();
  CheckCentre();
  CheckVolumeAndTimings();
}

// Exact golden digest of the seed (SmallStudy) configuration. Unlike
// the band checks above, any change to a count or a model double fails
// here — an intentional change must regenerate the golden file via
// scripts/update_golden.py (which sets TAXITRACE_UPDATE_GOLDEN=1).
TEST(GoldenDigestTest, SmallStudyDigestMatchesGolden) {
  Pipeline pipeline(StudyConfig::SmallStudy());
  auto run = pipeline.Run();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const std::string digest = StudyDigestJson(*run);

  const std::string path =
      std::string(TAXITRACE_GOLDEN_DIR) + "/study_small.json";
  if (std::getenv("TAXITRACE_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << digest;
    ASSERT_TRUE(out.good()) << "write failed: " << path;
    GTEST_SKIP() << "golden regenerated: " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — regenerate with scripts/update_golden.py";
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(golden.str(), digest)
      << "study digest drifted from tests/golden/study_small.json; if the "
         "change is intended, regenerate with scripts/update_golden.py";
}

// The deterministic half of the observability snapshot as JSON: every
// funnel row (in, out, each named drop), every counter, and the bin
// counts of the two data histograms. Gauges and spans are observations
// of the run and stay out.
std::string ObservabilityDigest(const obs::StudySnapshot& snapshot) {
  std::ostringstream out;
  out << "    \"funnel\": [\n";
  const std::vector<obs::FunnelStage>& stages = snapshot.funnel.stages();
  for (size_t i = 0; i < stages.size(); ++i) {
    const obs::FunnelStage& s = stages[i];
    out << "      {\"name\": \"" << s.name << "\", \"unit\": \"" << s.unit
        << "\", \"in\": " << s.in << ", \"out\": " << s.out
        << ", \"drops\": {";
    for (size_t d = 0; d < s.drops.size(); ++d) {
      out << (d > 0 ? ", " : "") << "\"" << s.drops[d].reason
          << "\": " << s.drops[d].count;
    }
    out << "}}" << (i + 1 < stages.size() ? "," : "") << "\n";
  }
  out << "    ],\n    \"counters\": {\n";
  for (size_t i = 0; i < snapshot.counters.size(); ++i) {
    out << "      \"" << snapshot.counters[i].name
        << "\": " << snapshot.counters[i].value
        << (i + 1 < snapshot.counters.size() ? "," : "") << "\n";
  }
  out << "    },\n    \"histograms\": {";
  bool first = true;
  for (const obs::HistogramSample& h : snapshot.histograms) {
    if (h.name != "clean.points_per_segment" &&
        h.name != "analysis.point_speed_kmh") {
      continue;
    }
    out << (first ? "\n" : ",\n") << "      \"" << h.name
        << "\": {\"total\": " << h.total << ", \"nonfinite\": "
        << h.nonfinite << ", \"counts\": [";
    for (size_t b = 0; b < h.counts.size(); ++b) {
      out << (b > 0 ? ", " : "") << h.counts[b];
    }
    out << "]}";
    first = false;
  }
  out << "\n    }";
  return out.str();
}

// Golden observability snapshot of the SmallStudy: batch, streamed,
// fault-injected (uniform 2%) and online-ingest runs. The digest above
// pins StudyResults; this pins the funnel ledger, the counters and the
// data histograms, which the equivalence tests only compare across
// modes and worker counts. Regenerated with the digest by
// scripts/update_golden.py.
TEST(GoldenDigestTest, SmallStudyObservabilityMatchesGolden) {
  struct Mode {
    const char* name;
    StudyConfig config;
  };
  std::vector<Mode> modes;
  modes.push_back({"batch", StudyConfig::SmallStudy()});
  // Every study without ingestion takes the batch shard path, so
  // "batch" and "streamed" run one config; both keys stay pinned.
  modes.push_back({"streamed", StudyConfig::SmallStudy()});
  modes.push_back({"faults_uniform_0.02", StudyConfig::SmallStudy()});
  modes.back().config.faults = fault::FaultPlan::Uniform(0.02);
  modes.push_back({"stream_ingest", StudyConfig::SmallStudy()});
  modes.back().config.stream_ingestion = true;
  modes.back().config.ingest.reorder_lag = 64;
  modes.back().config.ingest.arrival_shuffle_window = 32;

  std::ostringstream digest;
  digest << "{\n";
  for (size_t m = 0; m < modes.size(); ++m) {
    StudyConfig config = modes[m].config;
    config.num_threads = 2;
    config.observability.enabled = true;
    auto run = Pipeline(config).Run();
    ASSERT_TRUE(run.ok()) << modes[m].name << ": " << run.status().ToString();
    digest << "  \"" << modes[m].name << "\": {\n"
           << ObservabilityDigest(run->observability) << "\n  }"
           << (m + 1 < modes.size() ? "," : "") << "\n";
  }
  digest << "}\n";

  const std::string path =
      std::string(TAXITRACE_GOLDEN_DIR) + "/study_small_observability.json";
  if (std::getenv("TAXITRACE_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << digest.str();
    ASSERT_TRUE(out.good()) << "write failed: " << path;
    GTEST_SKIP() << "golden regenerated: " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — regenerate with scripts/update_golden.py";
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(golden.str(), digest.str())
      << "observability snapshot drifted from "
         "tests/golden/study_small_observability.json; if the change is "
         "intended, regenerate with scripts/update_golden.py";
}

}  // namespace
}  // namespace core
}  // namespace taxitrace
