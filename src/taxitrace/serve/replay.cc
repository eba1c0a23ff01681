// tt-lint: allow-file(adhoc-timing): the replay driver *is* the timing
//   instrument — it measures per-query service latency for the
//   replay percentiles, which obs::StageSpan (one span per stage)
//   cannot express. Latencies feed gauges only, never results.
// tt-lint: allow-file(ambient-entropy): the steady_clock::now() reads
//   here are the latency measurement itself; every random choice in
//   the workload is counter-derived via MixSeed, and clock readings
//   never influence query selection, funnel tallies, or the digest.

#include "taxitrace/serve/replay.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <vector>

#include "taxitrace/common/check.h"
#include "taxitrace/common/hash.h"
#include "taxitrace/common/random.h"

namespace taxitrace {
namespace serve {
namespace {

// One shard's deterministic outputs, merged in shard order after the
// parallel loop. Each worker updates its shard's tallies on every
// query, so a shard gets cache lines of its own: without the
// alignment, neighbouring shards in the array share a line and the
// replay's speed depends on where the heap happened to place it.
// Latencies are not per shard: each worker counts its own in a
// LatencyTable slot.
struct alignas(64) ShardResult {
  QueryStats stats;
  uint64_t digest = 0;
};
static_assert(alignof(ShardResult) == 64);

// The Zipf cumulative distribution over the hot-cell ranking.
struct ZipfTable {
  std::vector<int64_t> ranked_cell_index;  ///< Hottest first.
  std::vector<double> cdf;                 ///< Normalised, same length.
};

ZipfTable BuildZipfTable(const Snapshot& snapshot, double exponent) {
  ZipfTable table;
  const int64_t all_slice = 0;
  struct Hot {
    int64_t index;
    int64_t n;
  };
  std::vector<Hot> hot;
  hot.reserve(static_cast<size_t>(snapshot.num_cells()));
  for (int64_t i = 0; i < snapshot.num_cells(); ++i) {
    const int64_t n = snapshot.moments(all_slice, i).n;
    if (n > 0) hot.push_back(Hot{i, n});
  }
  // Rank by point count, ties broken by the (already sorted) index
  // position so the ranking is deterministic.
  std::sort(hot.begin(), hot.end(), [](const Hot& a, const Hot& b) {
    return a.n != b.n ? a.n > b.n : a.index < b.index;
  });
  table.ranked_cell_index.reserve(hot.size());
  table.cdf.reserve(hot.size());
  double total = 0.0;
  for (size_t rank = 0; rank < hot.size(); ++rank) {
    table.ranked_cell_index.push_back(hot[rank].index);
    total += 1.0 / std::pow(static_cast<double>(rank + 1), exponent);
    table.cdf.push_back(total);
  }
  for (double& c : table.cdf) c /= total;
  return table;
}

int64_t SampleZipf(const ZipfTable& table, Rng* rng) {
  const double u = rng->NextDouble();
  const auto it = std::lower_bound(table.cdf.begin(), table.cdf.end(), u);
  const size_t rank = it == table.cdf.end()
                          ? table.cdf.size() - 1
                          : static_cast<size_t>(it - table.cdf.begin());
  return table.ranked_cell_index[rank];
}

uint64_t FoldOutcome(uint64_t digest, QueryOutcome outcome,
                     const CellStats& stats) {
  digest = SplitMix64(digest ^ static_cast<uint64_t>(outcome));
  if (outcome == QueryOutcome::kAnswered) {
    digest = SplitMix64(digest ^ static_cast<uint64_t>(stats.n));
    digest = SplitMix64(digest ^ std::bit_cast<uint64_t>(stats.mean_speed_kmh));
    digest = SplitMix64(digest ^ std::bit_cast<uint64_t>(stats.model.blup));
  }
  return digest;
}

}  // namespace

void LatencyTable::Add(const LatencyTable& other) {
  for (size_t ns = 0; ns < counts_.size(); ++ns) {
    counts_[ns] += other.counts_[ns];
  }
  slow_.insert(slow_.end(), other.slow_.begin(), other.slow_.end());
}

int64_t LatencyTable::count() const {
  int64_t n = static_cast<int64_t>(slow_.size());
  for (const int64_t c : counts_) n += c;
  return n;
}

int64_t LatencyTable::Quantile(double q) const {
  const int64_t n = count();
  if (n == 0) return 0;
  const int64_t k =
      std::min(n - 1, static_cast<int64_t>(q * static_cast<double>(n)));
  int64_t below = 0;  // Samples in the buckets scanned so far.
  for (size_t ns = 0; ns < counts_.size(); ++ns) {
    below += counts_[ns];
    if (k < below) return static_cast<int64_t>(ns);
  }
  // Rank k lies among the slow samples, after the `below` fast ones.
  std::vector<int64_t> slow = slow_;
  const auto kth = slow.begin() + (k - below);
  std::nth_element(slow.begin(), kth, slow.end());
  return *kth;
}

Result<ReplayResult> ReplayWorkload(const Snapshot& snapshot,
                                    const WorkloadOptions& options,
                                    const Executor* executor,
                                    obs::MetricsRegistry* metrics,
                                    obs::FunnelLedger* funnel) {
  if (options.num_queries < 0 || options.num_shards <= 0) {
    return Status::InvalidArgument(
        "ReplayWorkload: num_queries and num_shards must be positive");
  }
  if (options.point_share < 0.0 || options.bbox_share < 0.0 ||
      options.slice_share < 0.0 ||
      options.point_share + options.bbox_share + options.slice_share > 1.0) {
    return Status::InvalidArgument("ReplayWorkload: bad query-type mix");
  }
  const Executor& exec = executor != nullptr ? *executor : Executor::Serial();
  const ZipfTable zipf = BuildZipfTable(snapshot, options.zipf_exponent);
  const SnapshotMeta& meta = snapshot.meta();
  const analysis::Grid grid(meta.cell_size_m);
  const double cell_m = meta.cell_size_m;
  const int64_t num_slices = snapshot.num_slices();

  const int64_t num_queries = options.num_queries;
  const int64_t num_shards =
      std::min<int64_t>(options.num_shards,
                        std::max<int64_t>(num_queries, 1));
  std::vector<ShardResult> shards(static_cast<size_t>(num_shards));
  const WorkerLocal<LatencyTable> latency_tables;

  using Clock = std::chrono::steady_clock;
  const Clock::time_point wall_begin = Clock::now();
  const Status status = exec.ParallelFor(
      0, num_shards, [&](int64_t shard) -> Status {
        ShardResult& out = shards[static_cast<size_t>(shard)];
        const int64_t begin = shard * num_queries / num_shards;
        const int64_t end = (shard + 1) * num_queries / num_shards;
        LatencyTable& latency = latency_tables.Local();
        out.digest = 0x74617869ull;  // Shared fold seed.
        QueryEngine engine(&snapshot);
        CellStats stats;
        std::vector<CellStats> box_stats;
        for (int64_t i = begin; i < end; ++i) {
          Rng rng(MixSeed(options.seed, static_cast<uint64_t>(shard),
                          static_cast<uint64_t>(i)));
          const double u = rng.NextDouble();
          QueryOutcome outcome;
          stats = CellStats{};
          const Clock::time_point t0 = Clock::now();
          if (!zipf.ranked_cell_index.empty() && u < options.point_share) {
            // Hot-cell point lookup: uniform position inside the cell.
            const analysis::CellId cell = snapshot.cell(SampleZipf(zipf, &rng));
            const geo::Bbox bounds = grid.CellBounds(cell);
            const geo::EnPoint p{rng.Uniform(bounds.min_x, bounds.max_x),
                                 rng.Uniform(bounds.min_y, bounds.max_y)};
            outcome = engine.PointQuery(p, 0, &stats);
          } else if (!zipf.ranked_cell_index.empty() &&
                     u < options.point_share + options.bbox_share) {
            // Bbox around a hot cell, 1..max span cells per axis.
            const analysis::CellId cell = snapshot.cell(SampleZipf(zipf, &rng));
            const int64_t wx =
                rng.UniformInt(1, options.bbox_max_span_cells);
            const int64_t wy =
                rng.UniformInt(1, options.bbox_max_span_cells);
            const geo::Bbox bounds = grid.CellBounds(cell);
            const geo::Bbox box{
                bounds.min_x - static_cast<double>(wx / 2) * cell_m,
                bounds.min_y - static_cast<double>(wy / 2) * cell_m,
                bounds.max_x + static_cast<double>((wx - 1) / 2) * cell_m,
                bounds.max_y + static_cast<double>((wy - 1) / 2) * cell_m};
            box_stats.clear();
            outcome = engine.BboxQuery(box, 0, &box_stats);
            stats.n = static_cast<int64_t>(box_stats.size());
            for (const CellStats& s : box_stats) {
              stats.mean_speed_kmh += s.mean_speed_kmh;
            }
          } else if (!zipf.ranked_cell_index.empty() &&
                     u < options.point_share + options.bbox_share +
                             options.slice_share) {
            // Scenario-slice lookup at a hot cell's centre.
            const analysis::CellId cell = snapshot.cell(SampleZipf(zipf, &rng));
            const int64_t slice_index =
                num_slices > 1 ? rng.UniformInt(1, num_slices - 1) : 0;
            outcome =
                engine.CellQuery(cell, slice_index, &stats);
          } else {
            // Deliberate out-of-bounds probe beyond the observed grid.
            const analysis::CellId cell{
                meta.max_cx + 2 + static_cast<int32_t>(rng.UniformInt(0, 7)),
                meta.max_cy + 2 + static_cast<int32_t>(rng.UniformInt(0, 7))};
            outcome = engine.CellQuery(cell, 0, &stats);
          }
          const Clock::time_point t1 = Clock::now();
          out.digest = FoldOutcome(out.digest, outcome, stats);
          latency.Record(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count());
        }
        out.stats = engine.stats();
        return Status::OK();
      });
  const Clock::time_point wall_end = Clock::now();
  TAXITRACE_RETURN_IF_ERROR(status);

  // Fold the deterministic outputs in shard order.
  ReplayResult result;
  result.num_queries = num_queries;
  result.digest = 0;
  for (const ShardResult& shard : shards) {
    result.stats.Add(shard.stats);
    result.digest = SplitMix64(result.digest ^ shard.digest);
  }
  TT_CHECK(result.stats.offered == result.stats.answered +
                                       result.stats.out_of_bounds +
                                       result.stats.empty_cell);

  result.wall_ms =
      std::chrono::duration<double, std::milli>(wall_end - wall_begin)
          .count();
  result.qps = result.wall_ms > 0.0
                   ? static_cast<double>(num_queries) * 1000.0 / result.wall_ms
                   : 0.0;
  LatencyTable latency;
  latency_tables.ForEach(
      [&latency](const LatencyTable& worker) { latency.Add(worker); });
  result.p50_us = static_cast<double>(latency.Quantile(0.50)) / 1000.0;
  result.p90_us = static_cast<double>(latency.Quantile(0.90)) / 1000.0;
  result.p99_us = static_cast<double>(latency.Quantile(0.99)) / 1000.0;
  result.max_us = static_cast<double>(latency.Quantile(1.0)) / 1000.0;

  if (metrics != nullptr) {
    metrics->counter("serve.query.offered")->Add(result.stats.offered);
    metrics->counter("serve.query.answered")->Add(result.stats.answered);
    metrics->counter("serve.query.out_of_bounds")
        ->Add(result.stats.out_of_bounds);
    metrics->counter("serve.query.empty_cell")->Add(result.stats.empty_cell);
    metrics->gauge("serve.replay.wall_ms")->Set(result.wall_ms);
    metrics->gauge("serve.replay.qps")->Set(result.qps);
    metrics->gauge("serve.replay.p99_us")->Set(result.p99_us);
  }
  if (funnel != nullptr) {
    funnel
        ->AddStage("serve.queries", "queries", result.stats.offered,
                   result.stats.answered)
        .Drop("out_of_bounds", result.stats.out_of_bounds)
        .Drop("empty_cell", result.stats.empty_cell);
    TAXITRACE_RETURN_IF_ERROR(funnel->CheckReconciles());
  }
  return result;
}

}  // namespace serve
}  // namespace taxitrace
