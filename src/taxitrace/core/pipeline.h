// The end-to-end study pipeline: synthetic city + fleet -> cleaning ->
// OD selection -> map matching -> attribute fetching -> grid statistics
// -> mixed model. Produces every data structure behind the paper's
// tables and figures.

#ifndef TAXITRACE_CORE_PIPELINE_H_
#define TAXITRACE_CORE_PIPELINE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "taxitrace/analysis/cell_stats.h"
#include "taxitrace/analysis/route_stats.h"
#include "taxitrace/analysis/seasons.h"
#include "taxitrace/core/segment_match.h"
#include "taxitrace/core/study_config.h"
#include "taxitrace/mapmatch/match_report.h"
#include "taxitrace/model/one_way_reml.h"
#include "taxitrace/model/significance.h"
#include "taxitrace/obs/observability.h"
#include "taxitrace/stream/ingest_session.h"

namespace taxitrace {
namespace core {

/// Wall-clock cost of each pipeline stage, milliseconds, plus the
/// worker count every parallel stage ran with (0 = serial). Derived
/// from the run's top-level obs::Trace stage spans; kept as a flat
/// struct for the bench call sites.
///
/// The fused clean + match unit, and a fault plan's shard transform
/// before it, run as the shards are simulated, so their time is inside
/// `simulation_ms` and `cleaning_ms` is near zero; on an online-ingest
/// run that includes each car's shard ingest, and `stream_ingest_ms`
/// covers only the end of every car's stream (the shuffle's tail and
/// the last windows). `selection_matching_ms` is left with the Table 3
/// rows, so it is near-empty on every source.
struct StageTimings {
  double map_generation_ms = 0.0;
  double simulation_ms = 0.0;
  double cleaning_ms = 0.0;
  double selection_matching_ms = 0.0;
  double analysis_ms = 0.0;
  /// Online ingestion (stream_ingestion runs only).
  double stream_ingest_ms = 0.0;

  int workers = 0;

  [[nodiscard]] double TotalMs() const {
    return map_generation_ms + simulation_ms + cleaning_ms +
           selection_matching_ms + analysis_ms + stream_ingest_ms;
  }
};

/// Per-season aggregates of the transition point speeds.
struct SeasonalSpeed {
  int64_t n = 0;
  double mean_kmh = 0.0;
  /// Mean minus the all-year mean, km/h (the Section VI-A deltas).
  double delta_kmh = 0.0;
};

/// Everything the study produces.
struct StudyResults {
  StudyResults(synth::CityMap map_in, synth::WeatherModel weather_in,
               synth::PedestrianModel pedestrians_in)
      : map(std::move(map_in)),
        weather(std::move(weather_in)),
        pedestrians(std::move(pedestrians_in)) {}

  synth::CityMap map;
  synth::WeatherModel weather;
  /// The crowd-activity model the simulation drove with (the WiFi-count
  /// proxy of the paper's crowdsourcing outlook).
  synth::PedestrianModel pedestrians;
  clean::CleaningReport cleaning_report;
  int64_t raw_trips = 0;

  /// Table 3 funnel, one row per car.
  std::vector<odselect::Table3Row> table3;

  /// Post-filtered transitions with matches and records (the analysis
  /// population).
  std::vector<MatchedTransition> transitions;

  /// Grid join over all transition points (Table 5 base).
  std::vector<analysis::CellRecord> cells;
  /// Grid joins restricted to one direction (Fig. 6 uses "L-T").
  std::unordered_map<std::string, std::vector<analysis::CellRecord>>
      cells_by_direction;
  std::unordered_map<analysis::CellId, analysis::CellFeatureCounts,
                     analysis::CellIdHash>
      cell_features;

  /// The Eq. (3) random-intercept model over point speeds.
  model::OneWayRemlFit cell_model;
  /// Group index -> cell of the model fit.
  std::vector<analysis::CellId> model_cells;
  /// REML likelihood-ratio test of the cell effect ("the effect of
  /// geography on the point speeds").
  model::RandomEffectLrt geography_lrt;

  /// Analysis grid cell size used for the joins above, metres.
  double grid_cell_m = 200.0;

  /// Point-speed aggregates.
  int64_t total_point_speeds = 0;
  double overall_mean_speed_kmh = 0.0;
  SeasonalSpeed seasonal[analysis::kNumSeasons];

  /// Matching health across the analysed transitions.
  mapmatch::MatchReport match_report;

  /// Online ingestion accounting (folded over every car's session in
  /// car order), populated only on a stream_ingestion run;
  /// default-empty otherwise. Deterministic in the config seeds at any
  /// worker count, like the funnel.
  stream::IngestStats ingest_stats;

  /// Wall-clock cost of each stage of this run.
  StageTimings timings;

  /// Metrics, funnel ledger and stage spans, populated only when
  /// StudyConfig::observability.enabled; default-empty otherwise. The
  /// funnel and counters are deterministic in the config seeds; gauges,
  /// histograms of timings, and spans are observations of the run.
  obs::StudySnapshot observability;

  /// All transition records (convenience view over `transitions`).
  [[nodiscard]] std::vector<analysis::TransitionRecord> Records() const;
};

/// Runs the study.
class Pipeline {
 public:
  explicit Pipeline(StudyConfig config);

  /// Executes every stage. Deterministic in the config seeds.
  Result<StudyResults> Run() const;

  [[nodiscard]] const StudyConfig& config() const { return config_; }

 private:
  StudyConfig config_;
};

}  // namespace core
}  // namespace taxitrace

#endif  // TAXITRACE_CORE_PIPELINE_H_
