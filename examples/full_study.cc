// Full study runner: executes the paper-scale pipeline and writes every
// table and figure artefact into an output directory — the one-command
// reproduction a downstream user runs first.
//
//   $ ./full_study [output_dir] [paper|small] [num_cars] [num_days] [seed]
//
// "paper" (the default) is StudyConfig::FullStudy(), 7 taxis over 365
// days; "small" is StudyConfig::SmallStudy(). Cars and days are whole
// numbers >= 1 and the seed a whole number >= 0; anything else is a
// usage error, exit code 2.

#include <cstdio>
#include <string>
#include <sys/stat.h>

#include "parse_arg.h"
#include "taxitrace/analysis/route_stats.h"
#include "taxitrace/core/figures.h"
#include "taxitrace/core/pipeline.h"
#include "taxitrace/core/reports.h"
#include "taxitrace/roadnet/map_io.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: full_study [output_dir] [paper|small] [num_cars] "
               "[num_days] [seed]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace taxitrace;

  const std::string out_dir = argc > 1 ? argv[1] : "study_output";
  const std::string scenario = argc > 2 ? argv[2] : "paper";
  if (scenario != "paper" && scenario != "small") return Usage();
  core::StudyConfig config = scenario == "paper"
                                 ? core::StudyConfig::FullStudy()
                                 : core::StudyConfig::SmallStudy();
  if ((argc > 3 && !ParseArg(argv[3], &config.fleet.num_cars, 1)) ||
      (argc > 4 && !ParseArg(argv[4], &config.fleet.num_days, 1)) ||
      (argc > 5 && !ParseArg(argv[5], &config.fleet.seed))) {
    return Usage();
  }
  if (argc > 5) {
    config.map.seed = config.fleet.seed + 1;
    config.weather_seed = config.fleet.seed + 2;
  }
  ::mkdir(out_dir.c_str(), 0755);

  std::printf(
      "Running the '%s' study: %d cars, %d days, seed %llu...\n",
      scenario.c_str(), config.fleet.num_cars, config.fleet.num_days,
      static_cast<unsigned long long>(config.fleet.seed));
  core::Pipeline pipeline(config);
  const Result<core::StudyResults> run = pipeline.Run();
  if (!run.ok()) {
    std::fprintf(stderr, "pipeline failed: %s\n",
                 run.status().ToString().c_str());
    return 1;
  }
  const core::StudyResults& r = *run;

  // Text report with every table.
  std::string report;
  report += core::FormatTable1(r.map.network, 10) + "\n";
  report += core::FormatTable2Report(r.cleaning_report) + "\n";
  report += core::FormatTable3(r.table3) + "\n";
  report += core::FormatTable4(analysis::BuildTable4(r.Records())) + "\n";
  report +=
      core::FormatTable5(analysis::BuildTable5(r.cells)) + "\n";
  report += core::FormatTextAggregates(r);

  struct Artefact {
    const char* name;
    std::string content;
  };
  const Artefact artefacts[] = {
      {"tables.txt", report},
      {"fig3_speed_map_taxi1.csv", core::SpeedPointsCsv(r, 1)},
      {"fig4_fig5_speed_points_all.csv", core::SpeedPointsCsv(r, 0)},
      {"fig6_cell_map_LT.geojson", core::CellMapGeoJson(r, "L-T")},
      {"fig7_qqplot.csv", core::QqPlotCsv(r)},
      {"fig8_intercepts.csv", core::InterceptsCsv(r)},
      {"fig9_intercept_map.geojson", core::CellMapGeoJson(r)},
      {"fig10_weather_low_speed.csv", core::WeatherLowSpeedCsv(r, 6)},
      {"hourly_speed.csv", core::HourlySpeedCsv(r)},
      {"fig2_gates.geojson", core::GatesGeoJson(r)},
      {"road_network.geojson",
       roadnet::NetworkToGeoJson(r.map.network)},
      {"traffic_elements.csv",
       roadnet::ElementsToCsv(r.map.source_elements)},
      {"map_features.csv",
       roadnet::FeaturesToCsv(r.map.source_features)},
  };
  for (const Artefact& artefact : artefacts) {
    const std::string path = out_dir + "/" + artefact.name;
    const Status st = core::WriteTextFile(path, artefact.content);
    if (!st.ok()) {
      std::fprintf(stderr, "failed to write %s: %s\n", path.c_str(),
                   st.ToString().c_str());
      return 1;
    }
    std::printf("  wrote %s (%zu bytes)\n", path.c_str(),
                artefact.content.size());
  }
  std::printf(
      "\nDone: %zu transitions analysed, %lld point speeds, %zu grid "
      "cells.\n",
      r.transitions.size(),
      static_cast<long long>(r.total_point_speeds), r.cells.size());
  return 0;
}
