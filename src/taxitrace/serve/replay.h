// Synthetic query replay against a Snapshot: the serve layer's bench
// and proof harness in one.
//
// The workload is a hot-cell Zipf mix over the observed cells (rank by
// point count, weight 1/rank^s) of point, bbox, scenario-slice, and
// deliberate out-of-bounds queries. Query i of shard k derives every
// random choice from MixSeed(seed, k, i) — counter-derived, so the
// query stream, the funnel tallies, and the result digest are
// byte-identical at any worker count, while shards run concurrently
// through common/executor. Latency percentiles and QPS are
// observations of the run (gauges, never inputs to anything
// deterministic). Each worker counts its latencies in a LatencyTable
// of its own, so their memory grows with the workers, not the queries.

#ifndef TAXITRACE_SERVE_REPLAY_H_
#define TAXITRACE_SERVE_REPLAY_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "taxitrace/common/executor.h"
#include "taxitrace/common/result.h"
#include "taxitrace/obs/funnel.h"
#include "taxitrace/obs/metrics.h"
#include "taxitrace/serve/query_engine.h"
#include "taxitrace/serve/snapshot.h"

namespace taxitrace {
namespace serve {

struct WorkloadOptions {
  int64_t num_queries = 1'000'000;
  uint64_t seed = 20121;
  /// Zipf exponent of the hot-cell mix; larger = hotter head.
  double zipf_exponent = 1.1;
  /// Query-type mix; the remainder after the three shares are
  /// deliberate out-of-bounds probes.
  double point_share = 0.55;
  double bbox_share = 0.15;
  double slice_share = 0.20;
  /// Bbox queries span [1, bbox_max_span_cells] cells per axis.
  int32_t bbox_max_span_cells = 6;
  /// Fixed query shards; independent of worker count.
  int num_shards = 64;
};

/// Exact latency counts: one bucket per nanosecond below
/// kBucketCount ns, and every slower sample kept verbatim (rare: the
/// replay's p99 is under 1 µs). Memory is the fixed 512 KiB table plus
/// the slow samples, however many samples are recorded. Counts are
/// int64_t, so no bucket overflows below INT64_MAX samples.
class LatencyTable {
 public:
  static constexpr int64_t kBucketCount = int64_t{1} << 16;

  LatencyTable() : counts_(static_cast<size_t>(kBucketCount), 0) {}

  /// Records one sample; a negative one counts as 0 ns.
  void Record(int64_t ns) {
    if (ns < kBucketCount) {
      ++counts_[static_cast<size_t>(std::max<int64_t>(ns, 0))];
    } else {
      slow_.push_back(ns);
    }
  }

  /// Adds `other`'s samples to this table. The fold only adds integers
  /// and appends, so folding tables in any order gives the same
  /// quantiles.
  void Add(const LatencyTable& other);

  /// Number of samples recorded.
  [[nodiscard]] int64_t count() const;

  /// For q in [0, 1], the sample of ascending rank
  /// k = min(n - 1, floor(q * n)) — what std::nth_element places at k
  /// over all n samples — in ns; 0 for an empty table. q = 1 is the
  /// maximum.
  [[nodiscard]] int64_t Quantile(double q) const;

 private:
  std::vector<int64_t> counts_;  ///< counts_[ns], ns < kBucketCount.
  std::vector<int64_t> slow_;    ///< Samples >= kBucketCount ns.
};

struct ReplayResult {
  QueryStats stats;            ///< Deterministic funnel tallies.
  uint64_t digest = 0;         ///< Order-sensitive fold of all results.
  int64_t num_queries = 0;
  double wall_ms = 0.0;        ///< Run observation.
  double qps = 0.0;            ///< num_queries / wall.
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
};

/// Replays the workload. When `metrics` is set, publishes the
/// serve.query.* counter family (deterministic) and serve.replay.*
/// gauges (run observations). When `funnel` is set, appends a
/// "serve.queries" stage (in = offered, out = answered, drops =
/// out_of_bounds + empty_cell) and enforces its reconciliation.
Result<ReplayResult> ReplayWorkload(const Snapshot& snapshot,
                                    const WorkloadOptions& options,
                                    const Executor* executor,
                                    obs::MetricsRegistry* metrics = nullptr,
                                    obs::FunnelLedger* funnel = nullptr);

}  // namespace serve
}  // namespace taxitrace

#endif  // TAXITRACE_SERVE_REPLAY_H_
