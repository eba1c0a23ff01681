// Study configuration: every stage's options bundled, with presets for
// the paper-scale study and a fast reduced study for tests and examples.

#ifndef TAXITRACE_CORE_STUDY_CONFIG_H_
#define TAXITRACE_CORE_STUDY_CONFIG_H_

#include "taxitrace/analysis/speed_categories.h"
#include "taxitrace/clean/cleaning_pipeline.h"
#include "taxitrace/fault/fault_plan.h"
#include "taxitrace/mapattr/attribute_fetcher.h"
#include "taxitrace/mapmatch/incremental_matcher.h"
#include "taxitrace/obs/observability.h"
#include "taxitrace/odselect/od_gate.h"
#include "taxitrace/odselect/transition_filter.h"
#include "taxitrace/stream/ingest_session.h"
#include "taxitrace/synth/city_map_generator.h"
#include "taxitrace/synth/fleet_simulator.h"

namespace taxitrace {
namespace core {

/// All knobs of the end-to-end study.
struct StudyConfig {
  synth::CityMapOptions map;
  uint64_t weather_seed = 19121;
  synth::FleetOptions fleet;
  clean::CleaningOptions cleaning;
  odselect::OdGateOptions gate;
  odselect::TransitionFilterOptions transition_filter;
  mapmatch::MatcherOptions matcher;
  mapattr::AttributeFetcherOptions attributes;
  analysis::SpeedCategoryOptions speed;
  /// Analysis grid cell size (the paper's 200 m).
  double grid_cell_m = 200.0;

  /// Fault-injection plan applied to the raw traces between simulation
  /// and cleaning. All probabilities default to zero (no injection, no
  /// extra work); any nonzero probability also enables the cleaning
  /// sanitiser so the corrupted study still runs end to end, and makes
  /// the study build the raw trace store: file-level faults corrupt one
  /// CSV view of all trips.
  fault::FaultPlan faults;

  /// Metrics / tracing / funnel collection. Off by default: a disabled
  /// run takes the exact pre-observability code paths (no registry, no
  /// funnel, empty StudyResults::observability).
  obs::ObservabilityOptions observability;

  /// Ignored. Every study without a fault plan already cleans and
  /// matches each simulated (car, day) shard as it is simulated,
  /// without building the raw trace store.
  /// The field stays only because the benchmark driver
  /// (perfbench/perfbench.cc) still assigns it; the next change to the
  /// benchmark removes that assignment and this field with it.
  bool stream_simulation = false;

  /// Online ingestion: feed each car's raw trips, day by day as they
  /// are simulated, as an arrival stream (stream/stream_source.h)
  /// through a per-car session, undo bounded reordering with a
  /// watermark that trails the stream head by `ingest.reorder_lag`
  /// slots, and run cleaning + matching per window as it closes —
  /// point-in, matched-segment-out with bounded latency instead of
  /// per-trip batches. StudyResults are byte-identical to the batch
  /// path at any worker count whenever every arrival displacement fits
  /// the lossless bound (reorder_lag / 2); records beyond it become
  /// counted funnel drops (`points.ingested`), never silent losses.
  /// With a fault plan, ingestion replays each car's trips from the
  /// fault-corrupted raw trace store instead, exactly what a
  /// store-order run would have seen.
  bool stream_ingestion = false;
  stream::IngestOptions ingest;

  /// Worker threads for the parallel stages (simulation, cleaning,
  /// selection + matching): 0 = serial, -1 = resolve from the
  /// TAXITRACE_THREADS environment variable (else all hardware
  /// threads). At most kMaxExecutorWorkers; Pipeline::Run rejects a
  /// larger count. Results are byte-identical at any value.
  int num_threads = -1;

  /// The paper-scale study: 7 taxis, 365 days.
  static StudyConfig FullStudy();

  /// A reduced study (fewer cars/days) that runs in seconds; same code
  /// paths, smaller counts.
  static StudyConfig SmallStudy();
};

}  // namespace core
}  // namespace taxitrace

#endif  // TAXITRACE_CORE_STUDY_CONFIG_H_
