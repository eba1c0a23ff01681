// The observability bundle a study run produces: the funnel ledger,
// the metrics snapshots and the stage-span trace, plus the study-level
// on/off switch.
//
// Determinism contract (enforced by parallel_determinism_test):
//   - `funnel` and `counters` are pure functions of the study config —
//     byte-identical at any worker count.
//   - `gauges`, `histograms` of timings, and `spans` describe the run
//     itself (wall times, worker load) and may vary freely.
// Disabled observability is a strict no-op: no registry, no funnel, no
// extra work on any hot path, so the golden digest and the benchmarked
// wall times are untouched.

#ifndef TAXITRACE_OBS_OBSERVABILITY_H_
#define TAXITRACE_OBS_OBSERVABILITY_H_

#include <string>
#include <vector>

#include "taxitrace/obs/funnel.h"
#include "taxitrace/obs/metrics.h"
#include "taxitrace/obs/stage_span.h"

namespace taxitrace {
namespace obs {

/// Study-level observability switch (StudyConfig::observability).
struct ObservabilityOptions {
  /// Collect the funnel ledger, metrics registry and span trace into
  /// StudyResults::observability. Off by default: the pipeline then
  /// records only its top-level stage spans, seven at most, for
  /// StageTimings.
  bool enabled = false;
};

/// Everything observability collected over one study run.
struct StudySnapshot {
  bool enabled = false;
  FunnelLedger funnel;
  std::vector<CounterSample> counters;      ///< Deterministic.
  std::vector<GaugeSample> gauges;          ///< Run-dependent.
  std::vector<HistogramSample> histograms;  ///< Value histograms.
  std::vector<SpanRecord> spans;            ///< Run-dependent timings.
};

/// One JSON document with funnel, counters, gauges, histograms and
/// spans (the `taxitrace_cli study --metrics-json` payload).
std::string SnapshotJson(const StudySnapshot& snapshot);

/// Human-readable rendering: funnel table plus span tree.
std::string SnapshotText(const StudySnapshot& snapshot);

}  // namespace obs
}  // namespace taxitrace

#endif  // TAXITRACE_OBS_OBSERVABILITY_H_
