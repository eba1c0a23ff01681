#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>

#include "taxitrace/common/strings.h"
#include "taxitrace/core/figures.h"
#include "taxitrace/core/pipeline.h"
#include "taxitrace/core/reports.h"

namespace taxitrace {
namespace core {
namespace {

// One shared small-study run: the pipeline is deterministic, so all
// tests can inspect the same results.
const StudyResults& SmallResults() {
  static const StudyResults* results = [] {
    Pipeline pipeline(StudyConfig::SmallStudy());
    auto run = pipeline.Run();
    return new StudyResults(std::move(run).value());
  }();
  return *results;
}

TEST(PipelineTest, RunsEndToEnd) {
  const StudyResults& r = SmallResults();
  EXPECT_GT(r.raw_trips, 100);
  EXPECT_GT(r.cleaning_report.clean_segments, 100);
  EXPECT_FALSE(r.transitions.empty());
}

TEST(PipelineTest, Table3HasOneRowPerCarWithMonotoneFunnel) {
  const StudyResults& r = SmallResults();
  const StudyConfig config = StudyConfig::SmallStudy();
  ASSERT_EQ(r.table3.size(),
            static_cast<size_t>(config.fleet.num_cars));
  for (int car = 1; car <= config.fleet.num_cars; ++car) {
    const odselect::Table3Row& row =
        r.table3[static_cast<size_t>(car - 1)];
    EXPECT_EQ(row.car_id, car);
    EXPECT_GT(row.segments_total, 0);
    EXPECT_GE(row.segments_total, row.filtered_cleaned);
    EXPECT_GE(row.filtered_cleaned, row.transitions_total);
    EXPECT_GE(row.transitions_total, row.transitions_central);
    EXPECT_GE(row.transitions_central, row.post_filtered);
  }
}

TEST(PipelineTest, TransitionsMatchTable3Tail) {
  const StudyResults& r = SmallResults();
  int64_t post = 0;
  for (const odselect::Table3Row& row : r.table3) {
    post += row.post_filtered;
  }
  EXPECT_EQ(static_cast<int64_t>(r.transitions.size()), post);
}

TEST(PipelineTest, TransitionRecordsAreWellFormed) {
  const StudyResults& r = SmallResults();
  const std::set<std::string> directions = {"T-S", "S-T", "T-L", "L-T"};
  for (const MatchedTransition& mt : r.transitions) {
    EXPECT_TRUE(directions.contains(mt.record.direction))
        << mt.record.direction;
    EXPECT_GT(mt.record.route_time_h, 0.0);
    EXPECT_LT(mt.record.route_time_h, 1.0);
    EXPECT_GT(mt.record.route_distance_km, 0.5);
    EXPECT_LT(mt.record.route_distance_km, 30.0);
    EXPECT_GE(mt.record.low_speed_share, 0.0);
    EXPECT_LE(mt.record.low_speed_share, 1.0);
    EXPECT_GE(mt.record.normal_speed_share, 0.0);
    EXPECT_LE(mt.record.normal_speed_share, 1.0);
    EXPECT_GT(mt.record.fuel_ml, 0.0);
    EXPECT_GE(mt.record.attributes.junctions, 0);
    EXPECT_GT(mt.route.length_m, 0.0);
    EXPECT_GE(mt.route.points.size(), 2u);
    EXPECT_EQ(mt.record.trip_id, mt.transition.segment.trip_id);
  }
}

TEST(PipelineTest, GridCellsPopulated) {
  const StudyResults& r = SmallResults();
  EXPECT_GT(r.cells.size(), 10u);
  int64_t points = 0;
  for (const analysis::CellRecord& cell : r.cells) {
    EXPECT_GT(cell.num_points, 0);
    points += cell.num_points;
  }
  EXPECT_EQ(points, r.total_point_speeds);
  EXPECT_FALSE(r.cell_features.empty());
}

TEST(PipelineTest, DirectionalCellsAreSubsets) {
  const StudyResults& r = SmallResults();
  int64_t direction_points = 0;
  for (const auto& [direction, cells] : r.cells_by_direction) {
    for (const analysis::CellRecord& cell : cells) {
      direction_points += cell.num_points;
    }
  }
  EXPECT_EQ(direction_points, r.total_point_speeds);
}

TEST(PipelineTest, MixedModelFitted) {
  const StudyResults& r = SmallResults();
  EXPECT_GT(r.cell_model.num_observations, 100);
  EXPECT_GT(r.cell_model.sigma2_residual, 0.0);
  EXPECT_GT(r.cell_model.sigma2_group, 0.0);  // geography matters
  EXPECT_EQ(r.model_cells.size(), r.cell_model.blup.size());
  EXPECT_GT(r.cell_model.mu, 5.0);
  EXPECT_LT(r.cell_model.mu, 60.0);
}

TEST(PipelineTest, SeasonalAggregatesConsistent) {
  const StudyResults& r = SmallResults();
  int64_t n = 0;
  for (const SeasonalSpeed& s : r.seasonal) n += s.n;
  EXPECT_EQ(n, r.total_point_speeds);
  EXPECT_GT(r.overall_mean_speed_kmh, 10.0);
  EXPECT_LT(r.overall_mean_speed_kmh, 45.0);
}

// A grid cell size that is not a finite positive length is a
// configuration error, reported before any map or simulation work; the
// grid would otherwise cast an infinite cell coordinate to an integer.
TEST(PipelineTest, NonPositiveOrNonFiniteGridCellIsInvalidArgument) {
  for (const double cell_m :
       {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    StudyConfig config = StudyConfig::SmallStudy();
    config.grid_cell_m = cell_m;
    const auto run = Pipeline(config).Run();
    ASSERT_FALSE(run.ok()) << cell_m;
    EXPECT_TRUE(run.status().IsInvalidArgument()) << run.status().ToString();
  }
}

TEST(PipelineTest, DeterministicAcrossRuns) {
  Pipeline pipeline(StudyConfig::SmallStudy());
  const StudyResults again = pipeline.Run().value();
  const StudyResults& r = SmallResults();
  EXPECT_EQ(again.raw_trips, r.raw_trips);
  EXPECT_EQ(again.transitions.size(), r.transitions.size());
  EXPECT_EQ(again.total_point_speeds, r.total_point_speeds);
  EXPECT_DOUBLE_EQ(again.overall_mean_speed_kmh,
                   r.overall_mean_speed_kmh);
  EXPECT_DOUBLE_EQ(again.cell_model.lambda, r.cell_model.lambda);
}

TEST(PipelineTest, RecordsViewMatchesTransitions) {
  const StudyResults& r = SmallResults();
  const auto records = r.Records();
  ASSERT_EQ(records.size(), r.transitions.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].trip_id, r.transitions[i].record.trip_id);
  }
}

// --- Reports -------------------------------------------------------------------

TEST(ReportsTest, Table1ListsJunctionPairs) {
  const std::string table =
      FormatTable1(SmallResults().map.network, 5);
  EXPECT_NE(table.find("TABLE 1"), std::string::npos);
  EXPECT_NE(table.find("POINT(25."), std::string::npos);
  EXPECT_NE(table.find("{"), std::string::npos);
}

TEST(ReportsTest, Table2ReportsRules) {
  const std::string report =
      FormatTable2Report(SmallResults().cleaning_report);
  EXPECT_NE(report.find("rule 1 splits"), std::string::npos);
  EXPECT_NE(report.find("order repair"), std::string::npos);
}

TEST(ReportsTest, Table3FormatsAllCars) {
  const std::string table = FormatTable3(SmallResults().table3);
  EXPECT_NE(table.find("TABLE 3"), std::string::npos);
  EXPECT_NE(table.find("sum"), std::string::npos);
}

TEST(ReportsTest, Table4FormatsDirections) {
  const auto rows = analysis::BuildTable4(SmallResults().Records());
  const std::string table = FormatTable4(rows);
  EXPECT_NE(table.find("route T-S"), std::string::npos);
  EXPECT_NE(table.find("low speed %"), std::string::npos);
  EXPECT_NE(table.find("fuel (ml)"), std::string::npos);
}

TEST(ReportsTest, Table5FormatsStrata) {
  const analysis::Table5 t5 = analysis::BuildTable5(SmallResults().cells);
  const std::string table = FormatTable5(t5);
  EXPECT_NE(table.find("lights = 0"), std::string::npos);
  EXPECT_NE(table.find("lights > 0"), std::string::npos);
}

TEST(ReportsTest, TextAggregates) {
  const std::string text = FormatTextAggregates(SmallResults());
  EXPECT_NE(text.find("Point speeds analysed"), std::string::npos);
  EXPECT_NE(text.find("paper {67,48,293,271}"), std::string::npos);
}

// --- Paper checks --------------------------------------------------------------

// The check whose name starts with `prefix` (the Fig. 10 name carries
// its counts), or a failed test.
PaperCheck FindCheck(const std::vector<PaperCheck>& checks,
                     const std::string& prefix) {
  for (const PaperCheck& check : checks) {
    if (check.name.rfind(prefix, 0) == 0) return check;
  }
  ADD_FAILURE() << "no check named " << prefix;
  return {};
}

TEST(PaperChecksTest, ThirteenFormattedChecks) {
  const std::vector<PaperCheck> checks = PaperChecks(SmallResults());
  ASSERT_EQ(checks.size(), 13u);
  for (const PaperCheck& check : checks) {
    const std::string line = FormatPaperCheck(check);
    EXPECT_EQ(line.rfind("Check: " + check.name, 0), 0u) << line;
    const std::string verdict = check.holds ? " -> HOLDS" : " -> VIOLATED";
    EXPECT_EQ(line.substr(line.size() - verdict.size()), verdict) << line;
  }
  const std::string report = PaperArtefacts(SmallResults()).front().content;
  EXPECT_NE(report.find("TABLE 1."), std::string::npos);
  EXPECT_NE(report.find("FIG 10."), std::string::npos);
  EXPECT_NE(report.find(FormatPaperCheck(checks.back())), std::string::npos);
}

TEST(PaperChecksTest, DirectionWithoutRoutesNeverHolds) {
  StudyResults r = SmallResults();
  const auto is_tl = [](const MatchedTransition& mt) {
    return mt.record.direction == "T-L";
  };
  // Without the guard, T-L's empty means read 0 and these checks hold.
  ASSERT_TRUE(std::any_of(r.transitions.begin(), r.transitions.end(), is_tl));
  r.transitions.erase(
      std::remove_if(r.transitions.begin(), r.transitions.end(), is_tl),
      r.transitions.end());
  const std::vector<PaperCheck> checks = PaperChecks(r);
  EXPECT_EQ(checks.size(), 13u);
  for (const char* name :
       {"low% T-S > T-L", "normal% T-L > T-S", "fuel T-S > T-L",
        "intervals do not overlap"}) {
    const PaperCheck check = FindCheck(checks, name);
    EXPECT_FALSE(check.holds) << name;
    EXPECT_EQ(check.detail, "no T-L routes") << name;
  }
}

TEST(PaperChecksTest, StratumWithoutCellsNeverHolds) {
  StudyResults r = SmallResults();
  const auto has_lights = [](const analysis::CellRecord& c) {
    return c.features.traffic_lights > 0;
  };
  ASSERT_TRUE(std::any_of(r.cells.begin(), r.cells.end(), has_lights));
  r.cells.erase(std::remove_if(r.cells.begin(), r.cells.end(), has_lights),
                r.cells.end());
  const std::vector<PaperCheck> checks = PaperChecks(r);
  EXPECT_EQ(checks.size(), 13u);
  EXPECT_FALSE(FindCheck(checks, "lights reduce mean speed").holds);
  EXPECT_FALSE(
      FindCheck(checks, "variance higher without lights/bus stops").holds);
}

TEST(PaperChecksTest, MissingFig6DirectionIsReported) {
  StudyResults r = SmallResults();
  ASSERT_EQ(r.cells_by_direction.erase("L-T"), 1u);
  const std::vector<PaperCheck> checks = PaperChecks(r);
  EXPECT_EQ(checks.size(), 13u);
  const PaperCheck check =
      FindCheck(checks, "L-T cells carry fewer features than S-T cells");
  EXPECT_FALSE(check.holds);
  EXPECT_EQ(check.detail, "no L-T cells");
}

// --- Figures -------------------------------------------------------------------

TEST(FiguresTest, SpeedPointsCsvHasRows) {
  const std::string csv = SpeedPointsCsv(SmallResults(), 1);
  EXPECT_NE(csv.find("trip_id,car,direction"), std::string::npos);
  EXPECT_GT(std::count(csv.begin(), csv.end(), '\n'), 10);
  // Car filter: no other car id at the start of a row.
  for (const std::string& line : Split(csv, '\n')) {
    if (line.empty() || StartsWith(line, "trip_id")) continue;
    const std::vector<std::string> fields = Split(line, ',');
    EXPECT_EQ(fields[1], "1");
  }
}

TEST(FiguresTest, CellMapGeoJsonIsWellFormedIsh) {
  const std::string json = CellMapGeoJson(SmallResults());
  EXPECT_TRUE(StartsWith(json, "{\"type\":\"FeatureCollection\""));
  EXPECT_NE(json.find("\"blup_kmh\":"), std::string::npos);
  EXPECT_NE(json.find("\"mean_speed_kmh\":"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(FiguresTest, DirectionalCellMapSmaller) {
  const std::string all = CellMapGeoJson(SmallResults());
  const std::string lt = CellMapGeoJson(SmallResults(), "L-T");
  EXPECT_LE(lt.size(), all.size());
  const std::string none = CellMapGeoJson(SmallResults(), "X-Y");
  EXPECT_EQ(none, "{\"type\":\"FeatureCollection\",\"features\":[]}");
}

TEST(FiguresTest, QqPlotCsvMonotone) {
  const std::string csv = QqPlotCsv(SmallResults());
  const std::vector<std::string> lines = Split(csv, '\n');
  ASSERT_GT(lines.size(), 5u);
  double prev_theoretical = -1e9;
  for (size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    const auto fields = Split(lines[i], ',');
    ASSERT_EQ(fields.size(), 2u);
    const double q = ParseDouble(fields[0]).value();
    EXPECT_GT(q, prev_theoretical);
    prev_theoretical = q;
  }
}

TEST(FiguresTest, InterceptsCsvSortedWithBounds) {
  const std::string csv = InterceptsCsv(SmallResults());
  const std::vector<std::string> lines = Split(csv, '\n');
  ASSERT_GT(lines.size(), 5u);
  double prev = -1e9;
  for (size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    const auto fields = Split(lines[i], ',');
    ASSERT_EQ(fields.size(), 7u);
    const double blup = ParseDouble(fields[4]).value();
    const double lo = ParseDouble(fields[5]).value();
    const double hi = ParseDouble(fields[6]).value();
    EXPECT_GE(blup, prev);
    EXPECT_LT(lo, blup);
    EXPECT_GT(hi, blup);
    prev = blup;
  }
}

TEST(FiguresTest, WeatherCsvCoversClassesAndSplit) {
  const std::string csv = WeatherLowSpeedCsv(SmallResults());
  EXPECT_NE(csv.find("temperature_class"), std::string::npos);
  EXPECT_NE(csv.find("<9"), std::string::npos);
  EXPECT_NE(csv.find(">=9"), std::string::npos);
  // 6 classes x 2 light groups + header.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 13);
}

TEST(FiguresTest, WriteTextFileRoundTrip) {
  const std::string path = testing::TempDir() + "/figure.txt";
  ASSERT_TRUE(WriteTextFile(path, "hello").ok());
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "hello");
  std::remove(path.c_str());
  EXPECT_FALSE(WriteTextFile("/no/such/dir/f.txt", "x").ok());
}

}  // namespace
}  // namespace core
}  // namespace taxitrace
