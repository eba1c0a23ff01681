#include "taxitrace/serve/query_engine.h"

#include <algorithm>
#include <cmath>
#include <optional>

namespace taxitrace {
namespace serve {

QueryEngine::QueryEngine(const Snapshot* snapshot)
    : snapshot_(snapshot), grid_(snapshot->meta().cell_size_m) {}

bool QueryEngine::InBounds(const analysis::CellId& cell) const {
  const SnapshotMeta& meta = snapshot_->meta();
  return cell.cx >= meta.min_cx && cell.cx <= meta.max_cx &&
         cell.cy >= meta.min_cy && cell.cy <= meta.max_cy;
}

void QueryEngine::Fill(int64_t cell_index, const CellMoments& moments,
                       CellStats* out) const {
  out->cell = snapshot_->cell(cell_index);
  out->n = moments.n;
  out->mean_speed_kmh = moments.mean;
  out->speed_variance = moments.Variance();
  out->features = snapshot_->features(cell_index);
  out->model = snapshot_->model(cell_index);
}

QueryOutcome QueryEngine::OutOfBounds() {
  ++stats_.offered;
  ++stats_.out_of_bounds;
  return QueryOutcome::kOutOfBounds;
}

QueryOutcome QueryEngine::PointQuery(const geo::EnPoint& position,
                                     int64_t slice_index, CellStats* out) {
  const std::optional<analysis::CellId> cell = grid_.TryCellOf(position);
  if (!cell) return OutOfBounds();
  return CellQuery(*cell, slice_index, out);
}

QueryOutcome QueryEngine::CellQuery(const analysis::CellId& cell,
                                    int64_t slice_index, CellStats* out) {
  ++stats_.offered;
  if (!InBounds(cell)) {
    ++stats_.out_of_bounds;
    return QueryOutcome::kOutOfBounds;
  }
  const int64_t index = snapshot_->FindCell(cell);
  if (index < 0 || slice_index < 0 ||
      slice_index >= snapshot_->num_slices()) {
    ++stats_.empty_cell;
    return QueryOutcome::kEmptyCell;
  }
  const CellMoments moments = snapshot_->moments(slice_index, index);
  if (moments.n <= 0) {
    ++stats_.empty_cell;
    return QueryOutcome::kEmptyCell;
  }
  if (out != nullptr) Fill(index, moments, out);
  ++stats_.answered;
  return QueryOutcome::kAnswered;
}

QueryOutcome QueryEngine::BboxQuery(const geo::Bbox& box,
                                    int64_t slice_index,
                                    std::vector<CellStats>* out) {
  const std::optional<analysis::CellId> lo =
      grid_.TryCellOf(geo::EnPoint{box.min_x, box.min_y});
  const std::optional<analysis::CellId> hi =
      grid_.TryCellOf(geo::EnPoint{box.max_x, box.max_y});
  if (!lo || !hi) return OutOfBounds();
  const SnapshotMeta& meta = snapshot_->meta();
  const int32_t cx_lo = std::max(lo->cx, meta.min_cx);
  const int32_t cx_hi = std::min(hi->cx, meta.max_cx);
  const int32_t cy_lo = std::max(lo->cy, meta.min_cy);
  const int32_t cy_hi = std::min(hi->cy, meta.max_cy);
  if (cx_lo > cx_hi || cy_lo > cy_hi || slice_index < 0 ||
      slice_index >= snapshot_->num_slices()) {
    return OutOfBounds();
  }
  ++stats_.offered;
  // Walk each covered column from its first indexed cell >= cy_lo; the
  // index is sorted by (cx, cy), so each column is one contiguous run.
  size_t appended = 0;
  for (int32_t cx = cx_lo; cx <= cx_hi; ++cx) {
    int64_t lo_index = 0;
    int64_t hi_index = snapshot_->num_cells();
    while (lo_index < hi_index) {
      const int64_t mid = lo_index + (hi_index - lo_index) / 2;
      const analysis::CellId c = snapshot_->cell(mid);
      if (c.cx < cx || (c.cx == cx && c.cy < cy_lo)) {
        lo_index = mid + 1;
      } else {
        hi_index = mid;
      }
    }
    for (int64_t i = lo_index; i < snapshot_->num_cells(); ++i) {
      const analysis::CellId c = snapshot_->cell(i);
      if (c.cx != cx || c.cy > cy_hi) break;
      const CellMoments moments = snapshot_->moments(slice_index, i);
      if (moments.n <= 0) continue;
      if (out != nullptr) {
        CellStats stats;
        Fill(i, moments, &stats);
        out->push_back(stats);
      }
      ++appended;
    }
  }
  if (appended == 0) {
    ++stats_.empty_cell;
    return QueryOutcome::kEmptyCell;
  }
  ++stats_.answered;
  return QueryOutcome::kAnswered;
}

QueryOutcome QueryEngine::SliceQuery(const geo::EnPoint& position,
                                     SliceKind kind, int32_t param,
                                     CellStats* out) {
  const std::optional<analysis::CellId> cell = grid_.TryCellOf(position);
  if (!cell) return OutOfBounds();
  return CellQuery(*cell, snapshot_->FindSlice(kind, param), out);
}

}  // namespace serve
}  // namespace taxitrace
