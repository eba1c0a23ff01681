#include "taxitrace/core/reports.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <utility>

#include "taxitrace/analysis/bootstrap.h"
#include "taxitrace/analysis/grid.h"
#include "taxitrace/analysis/seasons.h"
#include "taxitrace/analysis/summary_stats.h"
#include "taxitrace/common/strings.h"
#include "taxitrace/core/figures.h"
#include "taxitrace/geo/geometry.h"
#include "taxitrace/model/qq.h"
#include "taxitrace/roadnet/map_io.h"

namespace taxitrace {
namespace core {
namespace {

std::string FormatSummary(const char* label, const analysis::Summary& s,
                          const char* fmt = "%8.3f") {
  std::string out = StrFormat("  %-14s", label);
  out += StrFormat(fmt, s.min);
  out += StrFormat(fmt, s.q1);
  out += StrFormat(fmt, s.median);
  out += StrFormat(fmt, s.mean);
  out += StrFormat(fmt, s.q3);
  out += StrFormat(fmt, s.max);
  out += "\n";
  return out;
}

std::string FormatStratum(const char* label,
                          const analysis::CellStratumStats& s) {
  return StrFormat("  %-28s %6lld %9.2f %9.2f %9.2f %10.2f\n", label,
                   static_cast<long long>(s.num_cells), s.min, s.max,
                   s.mean, s.variance);
}

int CountJunctions(const roadnet::RoadNetwork& network) {
  int junctions = 0;
  network.ForEachVertex([&](const roadnet::Vertex& v) {
    if (v.is_junction) ++junctions;
  });
  return junctions;
}

/// The first `max_lines` lines of `text`, indented, plus the total line
/// count when the text is longer.
std::string Preview(const std::string& text, int max_lines) {
  std::string out;
  int lines = 0;
  size_t start = 0;
  while (start < text.size() && lines < max_lines) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    out += "  " + text.substr(start, end - start) + "\n";
    start = end + 1;
    ++lines;
  }
  const long total =
      static_cast<long>(std::count(text.begin(), text.end(), '\n'));
  if (total > max_lines) out += StrFormat("  ... (%ld lines total)\n", total);
  return out;
}

/// Taxi 1's transition point speeds in transition order, keeping the
/// points for which `keep(record, point)` is true.
template <typename Keep>
std::vector<double> Taxi1Speeds(const StudyResults& r, Keep keep) {
  std::vector<double> speeds;
  for (const MatchedTransition& mt : r.transitions) {
    if (mt.record.car_id != 1) continue;
    for (const trace::RoutePoint& p : mt.transition.segment.points) {
      if (keep(mt.record, p)) speeds.push_back(p.speed_kmh);
    }
  }
  return speeds;
}

/// Cluster-bootstrap 95% intervals of the T-S and T-L mean low-speed
/// shares (Table 4's headline contrast).
struct LowSpeedIntervals {
  analysis::BootstrapInterval ts;
  analysis::BootstrapInterval tl;
};

LowSpeedIntervals BootstrapLowSpeed(
    const std::vector<analysis::TransitionRecord>& records) {
  const auto ci_for = [&records](const char* direction) {
    return analysis::BootstrapTransitions(
        records,
        [direction](const std::vector<analysis::TransitionRecord>& sample) {
          return analysis::MeanLowSpeedPct(sample, direction);
        });
  };
  return {ci_for("T-S"), ci_for("T-L")};
}

/// Fig. 6: one direction's cells and their mean feature count (lights,
/// bus stops, pedestrian crossings and junctions per cell).
struct CellDensity {
  int64_t cells = 0;
  double mean_features = 0.0;
};

CellDensity DensityOf(const StudyResults& r, const char* direction) {
  CellDensity out;
  const auto it = r.cells_by_direction.find(direction);
  if (it == r.cells_by_direction.end() || it->second.empty()) return out;
  double total = 0.0;
  for (const analysis::CellRecord& c : it->second) {
    total += c.features.traffic_lights + c.features.bus_stops +
             c.features.pedestrian_crossings + c.features.junctions;
  }
  out.cells = static_cast<int64_t>(it->second.size());
  out.mean_features = total / static_cast<double>(out.cells);
  return out;
}

/// Fig. 7: the normal QQ series of the fitted cell intercepts.
std::vector<model::QqPoint> InterceptQqSeries(const StudyResults& r) {
  std::vector<double> intercepts;
  for (size_t g = 0; g < r.cell_model.blup.size(); ++g) {
    if (r.cell_model.group_n[g] > 0) {
      intercepts.push_back(r.cell_model.blup[g]);
    }
  }
  return model::NormalQqSeries(std::move(intercepts));
}

/// Fig. 8: fitted cells, and those whose 95% interval excludes zero.
struct SolidIntercepts {
  int solid = 0;
  int total = 0;
};

SolidIntercepts CountSolidIntercepts(const StudyResults& r) {
  SolidIntercepts out;
  for (size_t g = 0; g < r.cell_model.blup.size(); ++g) {
    if (r.cell_model.group_n[g] == 0) continue;
    ++out.total;
    const double lo = r.cell_model.blup[g] - 1.96 * r.cell_model.blup_se[g];
    const double hi = r.cell_model.blup[g] + 1.96 * r.cell_model.blup_se[g];
    if (lo > 0.0 || hi < 0.0) ++out.solid;
  }
  return out;
}

/// Fig. 9: the range of the fitted cell intercepts and their mean in the
/// very centre (cells centred within 350 m of the origin).
struct InterceptSpread {
  double min = 1e9;
  double max = -1e9;
  int centre_cells = 0;
  double centre_mean = 0.0;
};

InterceptSpread SpreadOfIntercepts(const StudyResults& r) {
  InterceptSpread out;
  double centre_sum = 0.0;
  const analysis::Grid grid(r.grid_cell_m);
  for (size_t g = 0; g < r.cell_model.blup.size(); ++g) {
    if (r.cell_model.group_n[g] == 0) continue;
    const double blup = r.cell_model.blup[g];
    out.min = std::min(out.min, blup);
    out.max = std::max(out.max, blup);
    if (geo::Norm(grid.CellCenter(r.model_cells[g])) < 350.0) {
      centre_sum += blup;
      ++out.centre_cells;
    }
  }
  if (out.centre_cells > 0) out.centre_mean = centre_sum / out.centre_cells;
  return out;
}

/// The paper's Fig. 10 claim: past the light boundary there is in
/// general more low speed, independent of the weather. Counts the
/// temperature classes where the many-lights group exceeds the
/// few-lights group, among classes with at least 3 routes in each.
struct WeatherLightContrast {
  int holds = 0;
  int populated = 0;
};

WeatherLightContrast ContrastLightsByWeather(const StudyResults& r) {
  double sum[synth::kNumTemperatureClasses][2] = {};
  int64_t n[synth::kNumTemperatureClasses][2] = {};
  for (const MatchedTransition& mt : r.transitions) {
    const int cls =
        static_cast<int>(r.weather.ClassAt(mt.record.start_time_s));
    const int many =
        mt.record.attributes.traffic_lights >= kFig10LightBoundary ? 1 : 0;
    sum[cls][many] += mt.record.low_speed_share;
    ++n[cls][many];
  }
  WeatherLightContrast out;
  for (int c = 0; c < synth::kNumTemperatureClasses; ++c) {
    if (n[c][0] < 3 || n[c][1] < 3) continue;
    ++out.populated;
    if (sum[c][1] / n[c][1] > sum[c][0] / n[c][0]) ++out.holds;
  }
  return out;
}

/// A group a paper check compares: its size and its name in the report.
struct Group {
  int64_t size;
  const char* name;
};

/// The check `name`: it holds when `holds` does and no group is empty.
/// The first empty group replaces the detail ("no T-L routes"), so a
/// comparison against an empty group never reads as a paper claim met.
PaperCheck Check(std::string name, std::initializer_list<Group> groups,
                 bool holds, std::string detail = "") {
  for (const Group& group : groups) {
    if (group.size == 0) {
      return {std::move(name), false, std::string("no ") + group.name};
    }
  }
  return {std::move(name), holds, std::move(detail)};
}

}  // namespace

std::string FormatTable1(const roadnet::RoadNetwork& network,
                         size_t max_rows) {
  const std::vector<roadnet::JunctionPairRow> rows =
      roadnet::JunctionPairTable(network);
  std::string out =
      "TABLE 1. Junction pairs (EPSG:4326)\n"
      "  junction1                 elements                junction2\n";
  for (size_t i = 0; i < rows.size() && i < max_rows; ++i) {
    std::string elements = "{";
    for (size_t k = 0; k < rows[i].element_ids.size(); ++k) {
      if (k > 0) elements += ",";
      elements += StrFormat(
          "%lld", static_cast<long long>(rows[i].element_ids[k]));
    }
    elements += "}";
    out += StrFormat("  %-25s %-23s %s\n",
                     geo::ToWktPoint(rows[i].junction1).c_str(),
                     elements.c_str(),
                     geo::ToWktPoint(rows[i].junction2).c_str());
  }
  out += StrFormat("  ... %zu edges total\n", rows.size());
  return out;
}

std::string FormatTable2Report(const clean::CleaningReport& report) {
  std::string out = "TABLE 2 segmentation rules, applied:\n";
  for (int r = 0; r < 5; ++r) {
    out += StrFormat("  rule %d splits: %lld\n", r + 1,
                     static_cast<long long>(
                         report.segmentation.splits_by_rule[r]));
  }
  out += StrFormat(
      "  raw trips %lld (points %lld) -> segments %lld -> cleaned %lld "
      "(points %lld)\n",
      static_cast<long long>(report.raw_trips),
      static_cast<long long>(report.raw_points),
      static_cast<long long>(report.segmentation.segments_out),
      static_cast<long long>(report.clean_segments),
      static_cast<long long>(report.clean_points));
  out += StrFormat(
      "  order repair: %lld consistent, %lld by id, %lld by timestamp\n",
      static_cast<long long>(report.order.trips_consistent),
      static_cast<long long>(report.order.trips_repaired_by_id),
      static_cast<long long>(report.order.trips_repaired_by_timestamp));
  out += StrFormat(
      "  outliers: %lld duplicates, %lld spikes, %lld impossible speeds\n",
      static_cast<long long>(report.outliers.duplicates_removed),
      static_cast<long long>(report.outliers.spikes_removed),
      static_cast<long long>(report.outliers.implied_speed_removed));
  out += StrFormat(
      "  filters: %lld dropped (<5 points), %lld dropped (>30 km)\n",
      static_cast<long long>(report.filter.removed_too_few_points),
      static_cast<long long>(report.filter.removed_too_long));
  return out;
}

std::string FormatTable3(const std::vector<odselect::Table3Row>& rows) {
  std::string out =
      "TABLE 3. Map matching the trip segments\n"
      "  car  segments  filtered+cleaned  transitions  within-centre  "
      "post-filtered\n";
  odselect::Table3Row total;
  for (const odselect::Table3Row& r : rows) {
    out += StrFormat("  %3d  %8lld  %16lld  %11lld  %13lld  %13lld\n",
                     r.car_id, static_cast<long long>(r.segments_total),
                     static_cast<long long>(r.filtered_cleaned),
                     static_cast<long long>(r.transitions_total),
                     static_cast<long long>(r.transitions_central),
                     static_cast<long long>(r.post_filtered));
    total.segments_total += r.segments_total;
    total.filtered_cleaned += r.filtered_cleaned;
    total.transitions_total += r.transitions_total;
    total.transitions_central += r.transitions_central;
    total.post_filtered += r.post_filtered;
  }
  out += StrFormat("  sum  %8lld  %16lld  %11lld  %13lld  %13lld\n",
                   static_cast<long long>(total.segments_total),
                   static_cast<long long>(total.filtered_cleaned),
                   static_cast<long long>(total.transitions_total),
                   static_cast<long long>(total.transitions_central),
                   static_cast<long long>(total.post_filtered));
  return out;
}

std::string FormatTable4(const std::vector<analysis::Table4Row>& rows) {
  std::string out =
      "TABLE 4. Summary statistics of the selected features\n"
      "  (per metric:        min      1stQ    median      mean      3rdQ"
      "       max)\n";
  for (const analysis::Table4Row& r : rows) {
    out += StrFormat("  route %s (n=%lld)\n", r.direction.c_str(),
                     static_cast<long long>(r.route_time_h.n));
    out += FormatSummary("time (h)", r.route_time_h, "%10.3f");
    out += FormatSummary("dist (km)", r.route_distance_km, "%10.3f");
    out += FormatSummary("low speed %", r.low_speed_pct, "%10.1f");
    out += FormatSummary("norm speed %", r.normal_speed_pct, "%10.1f");
    out += FormatSummary("traffic lights", r.traffic_lights, "%10.1f");
    out += FormatSummary("junctions", r.junctions, "%10.1f");
    out += FormatSummary("ped. crossings", r.pedestrian_crossings,
                         "%10.1f");
    out += FormatSummary("fuel (ml)", r.fuel_ml, "%10.1f");
  }
  return out;
}

std::string FormatTable5(const analysis::Table5& table) {
  std::string out =
      "TABLE 5. Effect of traffic lights and bus stops on cell average "
      "speed\n"
      "  stratum                       cells       min       max      "
      "mean   variance\n";
  out += FormatStratum("lights = 0", table.no_lights);
  out += FormatStratum("lights = 0 and bus = 0", table.no_lights_no_bus);
  out += FormatStratum("lights > 0 and bus > 0", table.lights_and_bus);
  out += FormatStratum("lights > 0", table.lights);
  return out;
}

std::string FormatTextAggregates(const StudyResults& results) {
  std::string out = StrFormat(
      "Point speeds analysed: %lld (paper: 30469)\n",
      static_cast<long long>(results.total_point_speeds));
  out += StrFormat("Overall mean point speed: %.2f km/h\n",
                   results.overall_mean_speed_kmh);
  static const char* kSeasonNames[] = {"winter", "spring", "summer",
                                       "autumn"};
  static const double kPaperDeltas[] = {-0.07, 0.46, 0.70, 1.38};
  for (int s = 0; s < analysis::kNumSeasons; ++s) {
    out += StrFormat(
        "  %s: mean %.2f km/h, delta vs year %+.2f km/h (paper %+.2f)\n",
        kSeasonNames[s], results.seasonal[s].mean_kmh,
        results.seasonal[s].delta_kmh, kPaperDeltas[s]);
  }
  const roadnet::RoadNetwork& net = results.map.network;
  out += StrFormat(
      "Feature census {lights, bus stops, ped. crossings, junctions}: "
      "{%d,%d,%d,%d} (paper {67,48,293,271})\n",
      net.CountFeatures(roadnet::FeatureType::kTrafficLight),
      net.CountFeatures(roadnet::FeatureType::kBusStop),
      net.CountFeatures(roadnet::FeatureType::kPedestrianCrossing),
      CountJunctions(net));
  out += StrFormat(
      "Matching health: %.1f m mean snap distance (max %.0f m), %.2f "
      "gaps/km, %.1f%% points unmatched over %lld routes\n",
      results.match_report.mean_snap_distance_m,
      results.match_report.max_snap_distance_m,
      results.match_report.GapsPerKm(),
      100.0 * results.match_report.SkipRate(),
      static_cast<long long>(results.match_report.routes));
  out += StrFormat(
      "Geography effect (REML LRT of the cell intercepts): statistic "
      "%.1f, p %s — %s\n",
      results.geography_lrt.statistic,
      results.geography_lrt.p_value < 1e-12
          ? "< 1e-12"
          : StrFormat("= %.3g", results.geography_lrt.p_value).c_str(),
      results.geography_lrt.Significant()
          ? "strong evidence, as the paper reports"
          : "no evidence");
  return out;
}

namespace {

// PaperChecks with the bootstrap intervals already computed, so that
// the paper report runs the 1000 replicates once for its CI line and
// its checks.
std::vector<PaperCheck> PaperChecksWith(const StudyResults& r,
                                        const LowSpeedIntervals& ci) {
  std::vector<PaperCheck> checks;

  // Table 4: the S-T/T-S routes are slower and thirstier than T-L/L-T.
  const std::vector<analysis::Table4Row> rows =
      analysis::BuildTable4(r.Records(), {"T-S", "T-L"});
  const analysis::Table4Row& ts = rows[0];
  const analysis::Table4Row& tl = rows[1];
  const Group ts_routes{ts.route_time_h.n, "T-S routes"};
  const Group tl_routes{tl.route_time_h.n, "T-L routes"};
  checks.push_back(Check(
      "low% T-S > T-L", {ts_routes, tl_routes},
      ts.low_speed_pct.mean > tl.low_speed_pct.mean,
      StrFormat("%.1f > %.1f", ts.low_speed_pct.mean, tl.low_speed_pct.mean)));
  checks.push_back(Check("normal% T-L > T-S", {tl_routes, ts_routes},
                         tl.normal_speed_pct.mean > ts.normal_speed_pct.mean,
                         StrFormat("%.1f > %.1f", tl.normal_speed_pct.mean,
                                   ts.normal_speed_pct.mean)));
  checks.push_back(Check(
      "fuel T-S > T-L", {ts_routes, tl_routes},
      ts.fuel_ml.mean > tl.fuel_ml.mean,
      StrFormat("%.0f > %.0f ml", ts.fuel_ml.mean, tl.fuel_ml.mean)));
  checks.push_back(
      Check("intervals do not overlap (the contrast is not resampling "
            "noise)",
            {ts_routes, tl_routes}, ci.ts.lo > ci.tl.hi));

  // Table 5: lights slow a cell down; cells without lights or bus stops
  // vary more.
  const analysis::Table5 t5 = analysis::BuildTable5(r.cells);
  checks.push_back(Check(
      "lights reduce mean speed",
      {{t5.lights.num_cells, "cells with lights"},
       {t5.no_lights.num_cells, "cells without lights"}},
      t5.lights.mean < t5.no_lights.mean,
      StrFormat("%.1f < %.1f", t5.lights.mean, t5.no_lights.mean)));
  checks.push_back(
      Check("variance higher without lights/bus stops",
            {{t5.no_lights_no_bus.num_cells,
              "cells without lights or bus stops"},
             {t5.lights_and_bus.num_cells, "cells with lights and bus stops"}},
            t5.no_lights_no_bus.variance > t5.lights_and_bus.variance,
            StrFormat("%.0f > %.0f", t5.no_lights_no_bus.variance,
                      t5.lights_and_bus.variance)));

  // Fig. 5: autumn is faster than winter and spring.
  const SeasonalSpeed* season = r.seasonal;
  checks.push_back(Check("autumn fastest, winter slowest ordering",
                         {{season[0].n, "winter point speeds"},
                          {season[1].n, "spring point speeds"},
                          {season[3].n, "autumn point speeds"}},
                         season[0].delta_kmh < season[3].delta_kmh &&
                             season[1].delta_kmh < season[3].delta_kmh));

  // Fig. 6: the L-T corridor crosses cells with fewer features than the
  // S-T one (the area below line D).
  const CellDensity lt = DensityOf(r, "L-T");
  const CellDensity st = DensityOf(r, "S-T");
  checks.push_back(Check(
      "L-T cells carry fewer features than S-T cells",
      {{lt.cells, "L-T cells"}, {st.cells, "S-T cells"}},
      lt.mean_features < st.mean_features,
      StrFormat("%.1f < %.1f", lt.mean_features, st.mean_features)));

  // Figs. 7-9: near-Gaussian cell intercepts, most of them solid, a slow
  // centre and a wide geography effect.
  const std::vector<model::QqPoint> qq = InterceptQqSeries(r);
  const SolidIntercepts solid = CountSolidIntercepts(r);
  const InterceptSpread spread = SpreadOfIntercepts(r);
  const Group fitted_cells{solid.total, "fitted cells"};
  checks.push_back(Check("correlation > 0.9", {fitted_cells},
                         model::QqCorrelation(qq) > 0.9));
  checks.push_back(
      Check("majority solid", {fitted_cells}, solid.solid * 2 > solid.total));
  checks.push_back(Check("centre is slower than average",
                         {{spread.centre_cells, "fitted centre cells"}},
                         spread.centre_mean < -1.0));
  checks.push_back(Check("spread reaches beyond +/-8 km/h", {fitted_cells},
                         spread.min < -8.0 && spread.max > 8.0));

  // Fig. 10: many lights raise the low-speed share in most weathers.
  const WeatherLightContrast contrast = ContrastLightsByWeather(r);
  checks.push_back(Check(
      StrFormat(">=%d lights raises low-speed share in %d of %d populated "
                "temperature classes",
                kFig10LightBoundary, contrast.holds, contrast.populated),
      {{contrast.populated, "populated temperature classes"}},
      contrast.holds * 2 > contrast.populated));
  return checks;
}

}  // namespace

std::vector<PaperCheck> PaperChecks(const StudyResults& results) {
  return PaperChecksWith(results, BootstrapLowSpeed(results.Records()));
}

std::string FormatPaperCheck(const PaperCheck& check) {
  std::string out = "Check: " + check.name;
  if (!check.detail.empty()) out += ": " + check.detail;
  out += check.holds ? " -> HOLDS" : " -> VIOLATED";
  return out;
}

namespace {

// The text of tables.txt; the four figure CSVs are only previewed, so
// they come rendered from the artefacts that carry them in full.
std::string FormatPaperReport(const StudyResults& r,
                              const std::string& fig3_csv,
                              const std::string& fig7_csv,
                              const std::string& fig8_csv,
                              const std::string& fig10_csv) {
  std::string out;

  // Table 1.
  out += FormatTable1(r.map.network, 10) + "\n";
  const roadnet::MapPreparationStats& prep = r.map.preparation_stats;
  out += StrFormat(
      "Map preparation: %d elements -> %d edges (%d merged from multiple "
      "elements), %d junctions, %d terminals, %d intermediate points\n",
      prep.num_elements, prep.num_edges, prep.num_multi_element_edges,
      prep.num_junctions, prep.num_terminals, prep.num_intermediate_points);
  out +=
      "Paper shape: edges list their contributing traffic elements "
      "(e.g. {138854,138855,122734}) between two junction points.\n\n";

  // Table 2.
  out += FormatTable2Report(r.cleaning_report) + "\n";
  out += StrFormat(
      "Paper shape: almost 30000 raw taxi trips are considered (ours: "
      "%lld); day-long engine-on runs split into per-ride segments;\n"
      "segments with <5 points or >30 km are removed.\n\n",
      static_cast<long long>(r.raw_trips));

  // Table 3.
  out += FormatTable3(r.table3) + "\n";
  out +=
      "Paper totals: 18077 segments -> 5337 filtered -> 770 transitions "
      "-> 674 within centre -> 544 post-filtered.\n"
      "The shape to hold: a steep funnel whose tail (the analysis "
      "population) lands in the hundreds.\n\n";

  // Table 4.
  const std::vector<analysis::TransitionRecord> records = r.Records();
  out += FormatTable4(analysis::BuildTable4(records)) + "\n";
  out +=
      "Paper shape to hold: S-T/T-S routes show a greater proportion of "
      "low speed than T-L/L-T (paper means 38/33 vs 23/24%), the normal-"
      "speed proportion is contrariwise (6/9 vs 15/15%), low speed "
      "correlates with fuel, and the mean count of traffic lights alone "
      "does not explain the difference.\n";
  const LowSpeedIntervals ci = BootstrapLowSpeed(records);
  out += StrFormat(
      "Bootstrap 95%% CIs (1000 cluster replicates): low%% T-S "
      "[%.1f, %.1f], T-L [%.1f, %.1f]\n\n",
      ci.ts.lo, ci.ts.hi, ci.tl.lo, ci.tl.hi);

  // Table 5.
  out += FormatTable5(analysis::BuildTable5(r.cells)) + "\n";
  out +=
      "Paper values: mean 25.5 (no lights) vs 18.7 km/h (lights), and "
      "the no-light/no-bus cells show much higher variance (303 vs 50).\n\n";

  // Fig. 3.
  out += "FIG 3. Cleaned speed data for taxi 1 (series preview):\n";
  out += Preview(fig3_csv, 8);
  const std::vector<double> taxi1 = Taxi1Speeds(
      r, [](const analysis::TransitionRecord&, const trace::RoutePoint&) {
        return true;
      });
  out += StrFormat(
      "Taxi 1 measured speed points: %zu (paper: 4186), mean %.1f "
      "km/h.\nPaper shape: speeds colour the driven corridors between "
      "the T, S, L gates, slowest in the centre.\n\n",
      taxi1.size(), analysis::Mean(taxi1));

  // Fig. 4.
  out += "FIG 4. Taxi 1 data categorised by direction:\n";
  out += "  direction  points   mean km/h  median km/h\n";
  for (const char* dir : {"T-S", "S-T", "T-L", "L-T"}) {
    const analysis::Summary s = analysis::Summarize(Taxi1Speeds(
        r, [dir](const analysis::TransitionRecord& record,
                 const trace::RoutePoint&) {
          return record.direction == dir;
        }));
    out += StrFormat("  %-9s %7lld  %9.1f  %11.1f\n", dir,
                     static_cast<long long>(s.n), s.mean, s.median);
  }
  out +=
      "Paper shape: the same corridors light up per direction; S<->T "
      "speeds sit below T<->L speeds.\n\n";

  // Fig. 5.
  out += "FIG 5. Taxi 1 data categorised by season:\n";
  out += "  season  points   mean km/h\n";
  for (int s = 0; s < analysis::kNumSeasons; ++s) {
    const auto season = static_cast<analysis::Season>(s);
    const analysis::Summary summary = analysis::Summarize(Taxi1Speeds(
        r, [season](const analysis::TransitionRecord&,
                    const trace::RoutePoint& p) {
          return analysis::SeasonOfTimestamp(p.timestamp_s) == season;
        }));
    out += StrFormat("  %-7s %7lld  %9.1f\n",
                     std::string(analysis::SeasonName(season)).c_str(),
                     static_cast<long long>(summary.n), summary.mean);
  }
  out +=
      "\nFleet-wide seasonal deltas vs the all-year mean (paper: winter "
      "-0.07, spring +0.46, summer +0.70, autumn +1.38 km/h):\n";
  for (int s = 0; s < analysis::kNumSeasons; ++s) {
    out += StrFormat(
        "  %-7s %+0.2f km/h (n=%lld)\n",
        std::string(analysis::SeasonName(static_cast<analysis::Season>(s)))
            .c_str(),
        r.seasonal[s].delta_kmh, static_cast<long long>(r.seasonal[s].n));
  }
  out += "\n";

  // Fig. 6.
  out += "FIG 6. Average speed and map properties, L-T direction:\n";
  out += "  cell(x,y)    points  mean km/h  lights  bus  ped  junc\n";
  if (const auto lt = r.cells_by_direction.find("L-T");
      lt != r.cells_by_direction.end()) {
    const size_t shown = std::min<size_t>(lt->second.size(), 12);
    for (size_t i = 0; i < shown; ++i) {
      const analysis::CellRecord& c = lt->second[i];
      out += StrFormat("  (%3d,%3d) %9lld  %9.1f  %6d %4d %4d %5d\n",
                       c.cell.cx, c.cell.cy,
                       static_cast<long long>(c.num_points),
                       c.mean_speed_kmh, c.features.traffic_lights,
                       c.features.bus_stops, c.features.pedestrian_crossings,
                       c.features.junctions);
    }
    out += StrFormat("  ... (%zu L-T cells total)\n", lt->second.size());
  }
  const roadnet::RoadNetwork& net = r.map.network;
  out += StrFormat(
      "\nStudy-area census {lights, bus stops, ped. crossings, other "
      "junctions} = {%d,%d,%d,%d}; paper: {67,48,293,271}.\n\n",
      net.CountFeatures(roadnet::FeatureType::kTrafficLight),
      net.CountFeatures(roadnet::FeatureType::kBusStop),
      net.CountFeatures(roadnet::FeatureType::kPedestrianCrossing),
      CountJunctions(net));

  // Fig. 7.
  out += "FIG 7. Cell intercept regularisation QQ plot (preview):\n";
  out += Preview(fig7_csv, 8);
  const std::vector<model::QqPoint> qq = InterceptQqSeries(r);
  out += StrFormat(
      "QQ correlation of the %zu cell intercepts: %.4f.\n"
      "Paper shape: the points follow the Gaussian line with the "
      "exception of only the far edges — i.e. near-Gaussian with heavy "
      "tails, so the correlation sits high but below 1.\n\n",
      qq.size(), model::QqCorrelation(qq));

  // Fig. 8.
  out += "FIG 8. Cell intercepts with confidence limits (preview):\n";
  out += Preview(fig8_csv, 10);
  const SolidIntercepts solid = CountSolidIntercepts(r);
  out += StrFormat(
      "Cells with 95%% intervals excluding zero: %d of %d (%.0f%%).\n"
      "Paper shape: while the variation is large for some cells, for "
      "most cells the result is solid.\n\n",
      solid.solid, solid.total, 100.0 * solid.solid / std::max(1, solid.total));

  // Fig. 9.
  const InterceptSpread spread = SpreadOfIntercepts(r);
  out += "FIG 9. Cell intercept predictions on map:\n";
  out += StrFormat(
      "  BLUP range: [%.1f, %.1f] km/h (paper: ca. -15 to +20 km/h)\n",
      spread.min, spread.max);
  out += StrFormat(
      "  Mean BLUP in the very centre (<350 m): %.1f km/h (paper: "
      "reductions up to -8 km/h)\n",
      spread.centre_mean);
  out += StrFormat(
      "  sigma_cell = %.1f km/h, sigma_resid = %.1f km/h (REML), "
      "lambda = %.2f\n\n",
      std::sqrt(r.cell_model.sigma2_group),
      std::sqrt(r.cell_model.sigma2_residual), r.cell_model.lambda);

  // Fig. 10.
  out += StrFormat(
      "FIG 10. Low speed %% by temperature class, lights <%d (white) vs "
      ">=%d (grey)\n(boundary %d: the experimentally chosen analogue of "
      "the paper's 9 for our light-count range):\n",
      kFig10LightBoundary, kFig10LightBoundary, kFig10LightBoundary);
  out += Preview(fig10_csv, 14);
  out += "\n";

  out += FormatTextAggregates(r) + "\n";

  out += "PAPER CHECKS (Tables 4-5, Figs. 5-10):\n";
  for (const PaperCheck& check : PaperChecksWith(r, ci)) {
    out += FormatPaperCheck(check) + "\n";
  }
  return out;
}

}  // namespace

std::vector<PaperArtefact> PaperArtefacts(const StudyResults& results) {
  const StudyResults& r = results;
  std::string fig3 = SpeedPointsCsv(r, 1);
  std::string fig7 = QqPlotCsv(r);
  std::string fig8 = InterceptsCsv(r);
  std::string fig10 = WeatherLowSpeedCsv(r, kFig10LightBoundary);
  std::vector<PaperArtefact> files;
  files.push_back(
      {"tables.txt", FormatPaperReport(r, fig3, fig7, fig8, fig10)});
  files.push_back({"fig3_speed_map_taxi1.csv", std::move(fig3)});
  files.push_back({"fig4_fig5_speed_points_all.csv", SpeedPointsCsv(r, 0)});
  files.push_back({"fig6_cell_map_LT.geojson", CellMapGeoJson(r, "L-T")});
  files.push_back({"fig7_qqplot.csv", std::move(fig7)});
  files.push_back({"fig8_intercepts.csv", std::move(fig8)});
  files.push_back({"fig9_intercept_map.geojson", CellMapGeoJson(r)});
  files.push_back({"fig10_weather_low_speed.csv", std::move(fig10)});
  files.push_back({"hourly_speed.csv", HourlySpeedCsv(r)});
  files.push_back({"fig2_gates.geojson", GatesGeoJson(r)});
  files.push_back(
      {"road_network.geojson", roadnet::NetworkToGeoJson(r.map.network)});
  files.push_back({"traffic_elements.csv",
                   roadnet::ElementsToCsv(r.map.source_elements)});
  files.push_back(
      {"map_features.csv", roadnet::FeaturesToCsv(r.map.source_features)});
  return files;
}

std::string StudyDigestJson(const StudyResults& results) {
  std::string out = "{\n";
  bool first = true;
  const auto count = [&](const char* key, int64_t value) {
    if (!first) out += ",\n";
    first = false;
    out += StrFormat("  \"%s\": %lld", key, static_cast<long long>(value));
  };
  const auto real = [&](const char* key, double value) {
    if (!first) out += ",\n";
    first = false;
    out += StrFormat("  \"%s\": %.9g", key, value);
  };

  count("raw_trips", results.raw_trips);
  const clean::CleaningReport& cr = results.cleaning_report;
  count("raw_points", cr.raw_points);
  count("order_trips_consistent", cr.order.trips_consistent);
  count("order_trips_repaired_by_id", cr.order.trips_repaired_by_id);
  count("order_trips_repaired_by_timestamp",
        cr.order.trips_repaired_by_timestamp);
  count("outlier_duplicates_removed", cr.outliers.duplicates_removed);
  count("outlier_spikes_removed", cr.outliers.spikes_removed);
  count("outlier_implied_speed_removed", cr.outliers.implied_speed_removed);
  count("interpolation_points_inserted", cr.interpolation.points_inserted);
  for (int rule = 0; rule < 5; ++rule) {
    count(StrFormat("segmentation_splits_rule%d", rule + 1).c_str(),
          cr.segmentation.splits_by_rule[rule]);
  }
  count("filter_removed_too_few_points", cr.filter.removed_too_few_points);
  count("filter_removed_too_long", cr.filter.removed_too_long);
  count("clean_segments", cr.clean_segments);
  count("clean_points", cr.clean_points);
  count("faults_injected_total", cr.faults.TotalInjected());
  count("faults_dropped_total", cr.faults.TotalDropped());

  for (const odselect::Table3Row& row : results.table3) {
    const std::string prefix = StrFormat("car%d_", row.car_id);
    count((prefix + "segments_total").c_str(), row.segments_total);
    count((prefix + "filtered_cleaned").c_str(), row.filtered_cleaned);
    count((prefix + "transitions_total").c_str(), row.transitions_total);
    count((prefix + "transitions_central").c_str(),
          row.transitions_central);
    count((prefix + "post_filtered").c_str(), row.post_filtered);
  }

  count("transitions", static_cast<int64_t>(results.transitions.size()));
  count("cells", static_cast<int64_t>(results.cells.size()));
  count("total_point_speeds", results.total_point_speeds);
  real("overall_mean_speed_kmh", results.overall_mean_speed_kmh);
  for (int s = 0; s < analysis::kNumSeasons; ++s) {
    count(StrFormat("season%d_n", s).c_str(), results.seasonal[s].n);
    real(StrFormat("season%d_mean_kmh", s).c_str(),
         results.seasonal[s].mean_kmh);
  }

  count("match_routes", results.match_report.routes);
  count("match_matched_points", results.match_report.matched_points);
  count("match_skipped_points", results.match_report.skipped_points);
  count("match_gaps_filled", results.match_report.gaps_filled);
  real("match_mean_snap_distance_m",
       results.match_report.mean_snap_distance_m);
  real("match_total_length_km", results.match_report.total_length_km);

  real("cell_model_mu", results.cell_model.mu);
  real("cell_model_sigma2_group", results.cell_model.sigma2_group);
  real("cell_model_sigma2_residual", results.cell_model.sigma2_residual);
  count("cell_model_num_observations",
        results.cell_model.num_observations);
  real("geography_lrt_statistic", results.geography_lrt.statistic);

  out += "\n}\n";
  return out;
}

}  // namespace core
}  // namespace taxitrace
