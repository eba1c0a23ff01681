#include "taxitrace/roadnet/spatial_index.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_map>
#include <unordered_set>

namespace taxitrace {
namespace roadnet {
namespace {

// Growth of the exact cell cover (build) and of the query square: far
// above the rounding of any coordinate or projection distance, far
// below any distance the callers resolve.
constexpr double kCoverSlackM = 1e-6;

// Largest |cell coordinate| the index represents. Keeping the lattice
// at +-2^30 lets `last + 1` and span products stay inside int32/int64.
constexpr double kMaxCellCoord = 1073741824.0;

// Cells [*first, *last] of side `cell` that hold a point of [lo, hi].
// False when a bound is not finite or leaves the representable
// lattice: converting such a floor to int32 would be undefined.
bool AxisCells(double lo, double hi, double cell, int32_t* first,
               int32_t* last) {
  const double f = std::floor(lo / cell);
  const double l = std::floor(hi / cell);
  if (!(std::abs(f) <= kMaxCellCoord && std::abs(l) <= kMaxCellCoord)) {
    return false;
  }
  *first = static_cast<int32_t>(f);
  *last = static_cast<int32_t>(l);
  return true;
}

// Inclusive rectangle of cell coordinates.
struct CellRect {
  int32_t lo_cx = 0;
  int32_t hi_cx = -1;
  int32_t lo_cy = 0;
  int32_t hi_cy = -1;
};

// Cells of side `cell` holding a point of `box` grown by `slack_m` on
// every side; nullopt when a bound is off the lattice (see AxisCells).
std::optional<CellRect> CellsCovering(const geo::Bbox& box, double slack_m,
                                      double cell) {
  CellRect r;
  if (!AxisCells(box.min_x - slack_m, box.max_x + slack_m, cell, &r.lo_cx,
                 &r.hi_cx) ||
      !AxisCells(box.min_y - slack_m, box.max_y + slack_m, cell, &r.lo_cy,
                 &r.hi_cy)) {
    return std::nullopt;
  }
  return r;
}

// Calls `visit(cx, cy)` for every cell of side `cell` that segment a-b,
// grown by kCoverSlackM, meets: the build's exact supercover.
template <typename Visit>
void CoverSegment(const geo::EnPoint& a, const geo::EnPoint& b, double cell,
                  Visit visit) {
  geo::Bbox seg = geo::Bbox::Empty();
  seg.Extend(a);
  seg.Extend(b);
  const std::optional<CellRect> cols = CellsCovering(seg, kCoverSlackM, cell);
  if (!cols) return;  // the caller has checked the whole edge's bounds
  const double dx = b.x - a.x;
  for (int32_t cx = cols->lo_cx; cx <= cols->hi_cx; ++cx) {
    // The part of the segment within the slack of this column spans
    // x in [x0, x1]; its y-extent there, grown by the slack, gives the
    // column's rows. A vertical segment spans its whole y-extent.
    double y0 = seg.min_y;
    double y1 = seg.max_y;
    if (dx != 0.0) {
      const double x0 = std::max(seg.min_x, cx * cell - kCoverSlackM);
      const double x1 = std::min(seg.max_x, (cx + 1) * cell + kCoverSlackM);
      const double ya =
          a.y + std::clamp((x0 - a.x) / dx, 0.0, 1.0) * (b.y - a.y);
      const double yb =
          a.y + std::clamp((x1 - a.x) / dx, 0.0, 1.0) * (b.y - a.y);
      y0 = std::min(ya, yb);
      y1 = std::max(ya, yb);
    }
    int32_t lo_cy = 0;
    int32_t hi_cy = -1;
    if (!AxisCells(y0 - kCoverSlackM, y1 + kCoverSlackM, cell, &lo_cy,
                   &hi_cy)) {
      continue;
    }
    for (int32_t cy = lo_cy; cy <= hi_cy; ++cy) visit(cx, cy);
  }
}

}  // namespace

SpatialIndex::SpatialIndex(const RoadNetwork* network, double cell_size_m)
    : network_(network),
      cell_size_m_(cell_size_m),
      tile_size_m_(network->tiling().tile_size_m),
      scratch_(std::make_shared<WorkerLocal<QueryScratch>>()) {
  // Queries translate edge ids to ordinals and project with the edges'
  // segment lengths; warm the mapping and the tables (they share the
  // CSR's staleness) on the constructing thread.
  network_->WarmAdjacency();

  // Build pass: collect each edge's cells into a keyed map first (the
  // set of cells is sparse and unknown up front), then flatten into the
  // per-tile dense grids below.
  std::unordered_map<CellKey, std::vector<EdgeId>, CellKeyHash> cells;
  edge_bounds_.assign(network_->num_edges(), geo::Bbox::Empty());
  size_t next_ordinal = 0;
  network_->ForEachEdge([&](const Edge& e) {
    // ForEachEdge runs in tile-major order, so this counter IS the
    // edge's ordinal (RoadNetwork::EdgeOrdinal).
    const size_t ordinal = next_ordinal++;
    const std::vector<geo::EnPoint>& pts = e.geometry.points();
    if (pts.empty()) {
      // An edge with no geometry has no position to index; dropping it
      // here would make Nearby/Nearest silently blind to it, so the
      // drop is counted and surfaced through stats().
      ++empty_geometry_edges_;
      return;
    }
    geo::Bbox bounds = geo::Bbox::Empty();
    bool finite = true;  // Bbox::Extend skips NaN, so check it here
    for (const geo::EnPoint& p : pts) {
      bounds.Extend(p);
      finite = finite && std::isfinite(p.x) && std::isfinite(p.y);
    }
    if (!finite || !CellsCovering(bounds, kCoverSlackM, cell_size_m_)) {
      // A coordinate that is not finite or lies beyond the cell lattice
      // has no cell to live in; drop and count it like an empty
      // geometry rather than cast it into a cell coordinate.
      ++empty_geometry_edges_;
      return;
    }
    edge_bounds_[ordinal] = bounds;
    std::unordered_set<uint64_t> edge_cells;
    const auto insert_cell = [&](int32_t cx, int32_t cy) {
      const uint64_t packed =
          (static_cast<uint64_t>(static_cast<uint32_t>(cx)) << 32) |
          static_cast<uint32_t>(cy);
      if (edge_cells.insert(packed).second) {
        cells[CellKey{cx, cy}].push_back(e.id);
      }
    };
    if (pts.size() == 1) {
      // Single-point (zero-length) geometry: the degenerate segment
      // from the lone point to itself covers the point's cell(s).
      CoverSegment(pts[0], pts[0], cell_size_m_, insert_cell);
      return;
    }
    for (size_t i = 0; i + 1 < pts.size(); ++i) {
      CoverSegment(pts[i], pts[i + 1], cell_size_m_, insert_cell);
    }
  });

  if (cells.empty()) return;

  // Group the occupied cells by owning tile, tracking each tile's cell
  // extent (hash-map iteration only feeds mins/maxes and counts, so the
  // result is iteration-order independent).
  struct Extent {
    int32_t min_cx = 0;
    int32_t max_cx = 0;
    int32_t min_cy = 0;
    int32_t max_cy = 0;
    bool init = false;
  };
  std::unordered_map<TileCoord, Extent, TileCoordHash> extents;
  for (const auto& [key, edge_list] : cells) {
    Extent& ex = extents[OwnerTileOf(key.cx, key.cy)];
    if (!ex.init) {
      ex = Extent{key.cx, key.cx, key.cy, key.cy, true};
    } else {
      ex.min_cx = std::min(ex.min_cx, key.cx);
      ex.max_cx = std::max(ex.max_cx, key.cx);
      ex.min_cy = std::min(ex.min_cy, key.cy);
      ex.max_cy = std::max(ex.max_cy, key.cy);
    }
  }
  std::vector<TileCoord> coords;
  coords.reserve(extents.size());
  for (const auto& [coord, ex] : extents) coords.push_back(coord);
  std::sort(coords.begin(), coords.end(),
            [](const TileCoord& a, const TileCoord& b) {
              return a.ty != b.ty ? a.ty < b.ty : a.tx < b.tx;
            });

  grids_.resize(coords.size());
  for (size_t i = 0; i < coords.size(); ++i) {
    const Extent& ex = extents.at(coords[i]);
    TileGrid& g = grids_[i];
    g.coord = coords[i];
    g.min_cx = ex.min_cx;
    g.min_cy = ex.min_cy;
    g.cols = ex.max_cx - ex.min_cx + 1;
    g.rows = ex.max_cy - ex.min_cy + 1;
    const size_t num_cells =
        static_cast<size_t>(g.cols) * static_cast<size_t>(g.rows);
    g.cell_offsets.assign(num_cells + 1, 0);
    tile_directory_.emplace(coords[i], static_cast<int32_t>(i));
  }
  for (const auto& [key, edge_list] : cells) {
    TileGrid& g =
        grids_[static_cast<size_t>(tile_directory_.at(OwnerTileOf(
            key.cx, key.cy)))];
    const size_t i = static_cast<size_t>(key.cy - g.min_cy) *
                         static_cast<size_t>(g.cols) +
                     static_cast<size_t>(key.cx - g.min_cx);
    g.cell_offsets[i + 1] = static_cast<int32_t>(edge_list.size());
  }
  for (TileGrid& g : grids_) {
    for (size_t i = 1; i < g.cell_offsets.size(); ++i) {
      g.cell_offsets[i] += g.cell_offsets[i - 1];
    }
    g.cell_edges.resize(static_cast<size_t>(g.cell_offsets.back()));
  }
  for (const auto& [key, edge_list] : cells) {
    TileGrid& g =
        grids_[static_cast<size_t>(tile_directory_.at(OwnerTileOf(
            key.cx, key.cy)))];
    const size_t i = static_cast<size_t>(key.cy - g.min_cy) *
                         static_cast<size_t>(g.cols) +
                     static_cast<size_t>(key.cx - g.min_cx);
    std::copy(edge_list.begin(), edge_list.end(),
              g.cell_edges.begin() + g.cell_offsets[i]);
  }
}

TileCoord SpatialIndex::OwnerTileOf(int32_t cx, int32_t cy) const {
  if (tile_size_m_ <= 0.0) return TileCoord{0, 0};
  // Owner of a cell = tile containing the cell's min corner; computed
  // from the lattice coordinate so build and query always agree.
  return TileCoord{
      static_cast<int32_t>(
          std::floor(static_cast<double>(cx) * cell_size_m_ / tile_size_m_)),
      static_cast<int32_t>(
          std::floor(static_cast<double>(cy) * cell_size_m_ / tile_size_m_))};
}

std::vector<EdgeCandidate> SpatialIndex::Nearby(const geo::EnPoint& p,
                                                double radius_m) const {
  std::vector<EdgeCandidate> out;
  Nearby(p, radius_m, &out);
  return out;
}

void SpatialIndex::Nearby(const geo::EnPoint& p, double radius_m,
                          std::vector<EdgeCandidate>* out) const {
  out->clear();
  // Gather candidate edges from the cells overlapping the query disc's
  // bounding square grown by the cover slack. Complete by construction:
  // every edge point within `radius_m` of `p` lies in one of these
  // cells, and the build put the edge in every cell it meets. A point
  // or radius off the cell lattice (NaN, infinite, too far out) has
  // no cells and so no candidates.
  const double reach = radius_m + kCoverSlackM;
  const std::optional<CellRect> rect =
      CellsCovering(geo::Bbox{p.x, p.y, p.x, p.y}, reach, cell_size_m_);
  QueryScratch& scratch = scratch_->Local();
  if (!rect) {
    scratch.tallies.queries.Add(1);
    return;
  }
  const auto [lo_cx, hi_cx, lo_cy, hi_cy] = *rect;
  const int64_t cells_probed =
      std::max<int64_t>(0, int64_t{hi_cx} - lo_cx + 1) *
      std::max<int64_t>(0, int64_t{hi_cy} - lo_cy + 1);
  if (scratch.seen_stamp.size() < edge_bounds_.size()) {
    scratch.seen_stamp.assign(edge_bounds_.size(), 0);
    scratch.generation = 0;
  }
  if (++scratch.generation == 0) {  // stamp wrap: invalidate everything
    std::fill(scratch.seen_stamp.begin(), scratch.seen_stamp.end(), 0);
    scratch.generation = 1;
  }
  const uint32_t gen = scratch.generation;
  std::vector<EdgeId>& gathered = scratch.gathered;
  gathered.clear();

  const TileCoord lo_t = OwnerTileOf(lo_cx, lo_cy);
  const TileCoord hi_t = OwnerTileOf(hi_cx, hi_cy);
  int64_t tiles_probed = 0;
  for (int32_t tty = lo_t.ty; tty <= hi_t.ty; ++tty) {
    for (int32_t ttx = lo_t.tx; ttx <= hi_t.tx; ++ttx) {
      ++tiles_probed;
      const auto it = tile_directory_.find(TileCoord{ttx, tty});
      if (it == tile_directory_.end()) continue;
      const TileGrid& g = grids_[static_cast<size_t>(it->second)];
      // Clip the query window to this tile grid's occupied extent.
      const int32_t scan_lo_cx = std::max(lo_cx, g.min_cx);
      const int32_t scan_hi_cx = std::min(hi_cx, g.min_cx + g.cols - 1);
      const int32_t scan_lo_cy = std::max(lo_cy, g.min_cy);
      const int32_t scan_hi_cy = std::min(hi_cy, g.min_cy + g.rows - 1);
      // Every cell in the clipped rectangle is owned by this tile:
      // ownership is a per-axis floor, so a grid's occupied extent
      // never reaches into a neighbouring tile's cell range.
      for (int32_t cy = scan_lo_cy; cy <= scan_hi_cy; ++cy) {
        for (int32_t cx = scan_lo_cx; cx <= scan_hi_cx; ++cx) {
          const size_t i = static_cast<size_t>(cy - g.min_cy) *
                               static_cast<size_t>(g.cols) +
                           static_cast<size_t>(cx - g.min_cx);
          for (int32_t k = g.cell_offsets[i]; k < g.cell_offsets[i + 1];
               ++k) {
            const EdgeId id = g.cell_edges[static_cast<size_t>(k)];
            uint32_t& stamp =
                scratch.seen_stamp[network_->EdgeOrdinal(id)];
            if (stamp != gen) {
              stamp = gen;
              gathered.push_back(id);
            }
          }
        }
      }
    }
  }

  // Pre-projection reject against the edge's geometry bounds. The slack
  // keeps the reject strictly conservative against floating-point
  // rounding of the squared distance: an edge is only skipped when its
  // whole bounding box - and therefore its polyline - is beyond the
  // radius, so the surviving projections produce exactly the candidates
  // the unfiltered loop would.
  const double limit_sq = reach * reach;
  out->reserve(8);
  for (EdgeId id : gathered) {
    const geo::Bbox& b = edge_bounds_[network_->EdgeOrdinal(id)];
    const double ddx = std::max({b.min_x - p.x, 0.0, p.x - b.max_x});
    const double ddy = std::max({b.min_y - p.y, 0.0, p.y - b.max_y});
    if (ddx * ddx + ddy * ddy > limit_sq) continue;
    const geo::PolylineProjection proj = network_->edge(id).geometry.Project(
        p, network_->SegmentLengths(id));
    if (proj.distance <= radius_m) {
      out->push_back(EdgeCandidate{id, proj});
    }
  }
  std::sort(out->begin(), out->end(),
            [](const EdgeCandidate& a, const EdgeCandidate& b) {
              if (a.projection.distance != b.projection.distance) {
                return a.projection.distance < b.projection.distance;
              }
              return a.edge < b.edge;
            });

  // This worker's tallies of deterministic per-query work, so their
  // sum over workers is thread-count-invariant.
  QueryTallies& t = scratch.tallies;
  t.queries.Add(1);
  t.cells_probed.Add(cells_probed);
  t.tiles_probed.Add(tiles_probed);
  t.candidates.Add(static_cast<int64_t>(gathered.size()));
  t.hits.Add(static_cast<int64_t>(out->size()));
}

std::optional<EdgeCandidate> SpatialIndex::Nearest(
    const geo::EnPoint& p, double max_radius_m) const {
  // Expand the search ring until a hit is found or the cap is reached.
  // Each ring refills this worker's reusable list, so a warm Nearest()
  // allocates nothing.
  std::vector<EdgeCandidate>& found = scratch_->Local().ring_hits;
  double radius = cell_size_m_;
  while (radius < max_radius_m * 2) {
    Nearby(p, std::min(radius, max_radius_m), &found);
    if (!found.empty()) return found.front();
    if (radius >= max_radius_m) break;
    radius *= 2;
  }
  return std::nullopt;
}

size_t SpatialIndex::ApproxMemoryBytes() const {
  size_t bytes = sizeof(SpatialIndex);
  bytes += edge_bounds_.capacity() * sizeof(geo::Bbox);
  bytes += tile_directory_.size() *
           (sizeof(TileCoord) + sizeof(int32_t) + 2 * sizeof(void*));
  for (const TileGrid& g : grids_) {
    bytes += sizeof(TileGrid);
    bytes += g.cell_offsets.capacity() * sizeof(int32_t);
    bytes += g.cell_edges.capacity() * sizeof(EdgeId);
  }
  return bytes;
}

SpatialIndexStats SpatialIndex::stats() const {
  SpatialIndexStats s;
  scratch_->ForEach([&s](const QueryScratch& scratch) {
    const QueryTallies& t = scratch.tallies;
    s.queries += t.queries.value();
    s.cells_probed += t.cells_probed.value();
    s.tiles_probed += t.tiles_probed.value();
    s.candidates += t.candidates.value();
    s.hits += t.hits.value();
  });
  s.empty_geometry_edges = empty_geometry_edges_;
  return s;
}

}  // namespace roadnet
}  // namespace taxitrace
