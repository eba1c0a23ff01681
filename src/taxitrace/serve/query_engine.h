// Point / bbox / scenario-slice lookups over a loaded Snapshot.
//
// Every lookup resolves cells through the snapshot's sorted index
// (binary search on (cx, cy)) — no hash table, no hash order — and
// lands in exactly one funnel bucket:
//
//   queries.offered == answered + out_of_bounds + empty_cell
//
// `out_of_bounds` means the query never touched the observed cell-id
// rectangle, or gave a coordinate with no cell at all (NaN, infinite,
// or beyond the int32 cell lattice; see analysis::Grid::TryCellOf);
// `empty_cell` means it did touch the rectangle, but no indexed cell
// (with points in the requested slice) was there. The per-engine QueryStats
// tally is deterministic in the query sequence, so workloads that
// shard queries over workers fold engine stats in shard order exactly
// like the pipeline folds its per-trip counters.
//
// An engine is a cheap cursor over an immutable snapshot: create one
// per thread / unit of work and share the Snapshot.

#ifndef TAXITRACE_SERVE_QUERY_ENGINE_H_
#define TAXITRACE_SERVE_QUERY_ENGINE_H_

#include <cstdint>
#include <vector>

#include "taxitrace/analysis/grid.h"
#include "taxitrace/geo/geometry.h"
#include "taxitrace/serve/snapshot.h"

namespace taxitrace {
namespace serve {

/// Everything the service knows about one cell in one slice.
struct CellStats {
  analysis::CellId cell;
  int64_t n = 0;
  double mean_speed_kmh = 0.0;
  double speed_variance = 0.0;
  CellFeatureRow features;
  CellModelRow model;  ///< model.n == 0: cell not in the Eq. (3) fit.
};

/// Funnel buckets; every query increments offered plus exactly one of
/// the others.
struct QueryStats {
  int64_t offered = 0;
  int64_t answered = 0;
  int64_t out_of_bounds = 0;
  int64_t empty_cell = 0;

  void Add(const QueryStats& other) {
    offered += other.offered;
    answered += other.answered;
    out_of_bounds += other.out_of_bounds;
    empty_cell += other.empty_cell;
  }
  friend bool operator==(const QueryStats&, const QueryStats&) = default;
};

enum class QueryOutcome : unsigned char {
  kAnswered,
  kOutOfBounds,
  kEmptyCell,
};

class QueryEngine {
 public:
  /// The snapshot must outlive the engine.
  explicit QueryEngine(const Snapshot* snapshot);

  /// Stats of the cell containing `position` in slice `slice_index`.
  QueryOutcome PointQuery(const geo::EnPoint& position, int64_t slice_index,
                          CellStats* out);

  /// Stats of one cell in slice `slice_index`.
  QueryOutcome CellQuery(const analysis::CellId& cell, int64_t slice_index,
                         CellStats* out);

  /// Stats of every indexed cell intersecting `box` with points in the
  /// slice, appended to `out` in (cx, cy) order. One funnel event:
  /// answered when at least one cell matched, empty_cell when the box
  /// touched the observed rectangle but matched none, out_of_bounds
  /// otherwise, including whenever a corner has no cell.
  QueryOutcome BboxQuery(const geo::Bbox& box, int64_t slice_index,
                         std::vector<CellStats>* out);

  /// PointQuery against the slice identified by (kind, param); resolves
  /// to empty_cell when the snapshot has no such slice.
  QueryOutcome SliceQuery(const geo::EnPoint& position, SliceKind kind,
                          int32_t param, CellStats* out);

  [[nodiscard]] const QueryStats& stats() const { return stats_; }
  [[nodiscard]] const Snapshot& snapshot() const { return *snapshot_; }

 private:
  [[nodiscard]] bool InBounds(const analysis::CellId& cell) const;
  /// Counts one query as offered and out of bounds.
  QueryOutcome OutOfBounds();
  void Fill(int64_t cell_index, const CellMoments& moments,
            CellStats* out) const;

  const Snapshot* snapshot_;
  analysis::Grid grid_;
  QueryStats stats_;
};

}  // namespace serve
}  // namespace taxitrace

#endif  // TAXITRACE_SERVE_QUERY_ENGINE_H_
