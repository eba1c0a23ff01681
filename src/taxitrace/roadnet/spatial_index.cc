#include "taxitrace/roadnet/spatial_index.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <numbers>

#include "taxitrace/common/check.h"
#include "taxitrace/common/hash.h"

namespace taxitrace {
namespace roadnet {
namespace {

constexpr double kCell = SpatialIndex::kCellSizeM;

// Largest |cell coordinate| the index represents. Keeping the lattice
// at +-2^30 lets `last + 1` and span products stay inside int32/int64.
constexpr double kMaxCellCoord = 1073741824.0;

// A cell lists a segment that passes within this distance of the
// cell's centre. Every point of the cell is within half a diagonal of
// the centre, so this holds for every segment within kReachM of any
// point of the cell.
constexpr double kCentreReachM =
    SpatialIndex::kReachM + 0.5 * std::numbers::sqrt2 * kCell;

// Growth of the build's listing test against rounding: an absolute
// floor plus a share of the coordinate magnitude, far above the error
// of a cell floor or a projection at that magnitude (a few ulps) and
// far below any distance the callers resolve.
constexpr double kCoverSlackM = 1e-6;
constexpr double kRelativeSlack = 1e-12;

// Listing reach of geometry whose coordinates are at most `magnitude`
// in absolute value.
double ListingReach(double magnitude) {
  return kCentreReachM + kCoverSlackM +
         kRelativeSlack * (magnitude + kCentreReachM);
}

double Magnitude(const geo::EnPoint& p) {
  return std::max(std::abs(p.x), std::abs(p.y));
}

// Listing reach of segment a-b.
double SegmentReach(const geo::EnPoint& a, const geo::EnPoint& b) {
  return ListingReach(std::max(Magnitude(a), Magnitude(b)));
}

// Cells [*first, *last] that hold a point of [lo, hi]. False when a
// bound is not finite or leaves the representable lattice: converting
// such a floor to int32 would be undefined.
bool AxisCells(double lo, double hi, int32_t* first, int32_t* last) {
  const double f = std::floor(lo / kCell);
  const double l = std::floor(hi / kCell);
  if (!(std::abs(f) <= kMaxCellCoord && std::abs(l) <= kMaxCellCoord)) {
    return false;
  }
  *first = static_cast<int32_t>(f);
  *last = static_cast<int32_t>(l);
  return true;
}

// The cell coordinate `*c` that holds `v`, on the same terms.
bool AxisCell(double v, int32_t* c) { return AxisCells(v, v, c, c); }

// The points within `reach` of the segment from `a` to `b`: two discs
// and the band between them.
struct ListingRegion {
  ListingRegion(const geo::EnPoint& from, const geo::EnPoint& to,
                double reach)
      : a(from),
        b(to),
        d(to - from),
        len2(geo::Dot(d, d)),
        reach2(reach * reach),
        width(std::sqrt(reach2 * len2)),
        inv_dx(d.x != 0.0 ? 1.0 / d.x : 0.0),
        inv_dy(d.y != 0.0 ? 1.0 / d.y : 0.0) {}

  // Whether (x, y) lies in the region. No division or root: the end
  // regions compare the squared distance to an endpoint, the middle the
  // squared perpendicular one. The three cases are combined without
  // branches: the tests run near the region's boundary, where a branch
  // would mispredict.
  bool Contains(double x, double y) const {
    const geo::EnPoint w{x - a.x, y - a.y};
    const geo::EnPoint v = w - d;
    const double along = geo::Dot(w, d);
    const double cross = w.x * d.y - w.y * d.x;
    const bool before = along <= 0.0;
    const bool after = along >= len2;
    return (before & (geo::Dot(w, w) <= reach2)) |
           (after & (geo::Dot(v, v) <= reach2)) |
           (!before & !after & (cross * cross <= reach2 * len2));
  }

  // The y-range [*y0, *y1] of the points of the vertical line at `x`
  // that pass, up to rounding: the union of the line's sections with
  // the discs around the ends and with the band along the segment.
  // False when the line misses the region.
  bool Section(double x, double* y0, double* y1) const {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -lo;
    for (const geo::EnPoint& end : {a, b}) {
      const double h2 = reach2 - (x - end.x) * (x - end.x);
      if (h2 >= 0.0) {
        const double h = std::sqrt(h2);
        lo = std::min(lo, end.y - h);
        hi = std::max(hi, end.y + h);
      }
    }
    // The band, in u = y - a.y: 0 <= along <= len2 and
    // |cross| <= width, both linear in u.
    if (len2 > 0.0) {
      const double dx = x - a.x;
      double u0 = -std::numeric_limits<double>::infinity();
      double u1 = -u0;
      bool empty = false;
      // low <= offset + u * slope <= high, with inv = 1 / slope.
      const auto clip = [&](double offset, double slope, double inv,
                            double low, double high) {
        if (slope == 0.0) {
          empty = empty || offset < low || offset > high;
          return;
        }
        const double ua = (low - offset) * inv;
        const double ub = (high - offset) * inv;
        u0 = std::max(u0, std::min(ua, ub));
        u1 = std::min(u1, std::max(ua, ub));
      };
      clip(dx * d.x, d.y, inv_dy, 0.0, len2);
      clip(dx * d.y, -d.x, -inv_dx, -width, width);
      if (!empty && u0 <= u1) {
        lo = std::min(lo, a.y + u0);
        hi = std::max(hi, a.y + u1);
      }
    }
    *y0 = lo;
    *y1 = hi;
    return lo <= hi;
  }

  geo::EnPoint a;
  geo::EnPoint b;
  geo::EnPoint d;
  double len2;
  double reach2;
  double width;   // reach * |d|
  double inv_dx;  // 0 for a vertical segment, unused then
  double inv_dy;
};

// The cells [lo_cy, hi_cy] of column cx that list segment `row`.
struct ColumnRun {
  int32_t cx;
  int32_t lo_cy;
  int32_t hi_cy;
  uint32_t row;
};

// A listing of one column: the cell's row offset and the segment's row.
struct ColumnListing {
  uint32_t y;
  uint32_t row;
};

// Stable LSD radix sort of `*items` by `key`, whose values are at most
// `span`, 11 bits a pass; `*buffer` is scratch.
template <typename T, typename Key>
void RadixSort(uint32_t span, Key key, std::vector<T>* items,
               std::vector<T>* buffer) {
  constexpr int kBits = 11;
  constexpr uint32_t kDigitMask = (1u << kBits) - 1;
  buffer->resize(items->size());
  for (int shift = 0; shift < 32 && (span >> shift) != 0; shift += kBits) {
    // Digits above the span's never occur: count only the buckets used.
    const uint32_t mask =
        std::bit_ceil(std::min(span >> shift, kDigitMask) + 1) - 1;
    std::array<uint32_t, kDigitMask + 2> start;
    std::fill_n(start.begin(), mask + 2, 0u);
    for (const T& item : *items) ++start[((key(item) >> shift) & mask) + 1];
    for (uint32_t b = 1; b <= mask + 1; ++b) start[b] += start[b - 1];
    for (const T& item : *items) {
      (*buffer)[start[(key(item) >> shift) & mask]++] = item;
    }
    items->swap(*buffer);
  }
}

// Rows, listings and cell rows are counted in uint32; this value is
// never one of them.
constexpr uint32_t kNoId = std::numeric_limits<uint32_t>::max();

}  // namespace

SpatialIndex::SpatialIndex(const RoadNetwork* network)
    : network_(network),
      tallies_(std::make_shared<WorkerLocal<QueryTallies>>()) {
  // Rows copy the edges' segment lengths; warm the tables on the
  // constructing thread.
  network_->WarmAdjacency();

  // One row per segment, in (edge, segment) order, with the arc length
  // before it summed in order exactly as Polyline::Project sums it.
  size_t segments = 0;
  network_->ForEachEdge([&](const Edge& e) {
    segments += std::max<size_t>(e.geometry.size(), 2) - 1;
  });
  rows_.reserve(segments);
  network_->ForEachEdge([&](const Edge& e) {
    const std::vector<geo::EnPoint>& pts = e.geometry.points();
    if (pts.empty()) {
      // An edge with no geometry has no position to index; dropping it
      // here would make Nearby silently blind to it, so the drop is
      // counted and surfaced through stats().
      ++empty_geometry_edges_;
      return;
    }
    double magnitude = 0.0;
    bool finite = true;
    for (const geo::EnPoint& p : pts) {
      magnitude = std::max(magnitude, Magnitude(p));
      finite = finite && std::isfinite(p.x) && std::isfinite(p.y);
    }
    int32_t first = 0;
    int32_t last = 0;
    if (!finite ||
        !AxisCells(-magnitude - ListingReach(magnitude),
                   magnitude + ListingReach(magnitude), &first, &last)) {
      // A coordinate that is not finite or lies beyond the cell lattice
      // has no cell to live in; drop and count it like an empty
      // geometry rather than cast it into a cell coordinate.
      ++empty_geometry_edges_;
      return;
    }
    if (pts.size() == 1) {
      // Single-point (zero-length) geometry: the degenerate segment
      // from the lone point to itself projects as Project does.
      rows_.push_back(SegmentRow{pts[0], pts[0], 0.0, 0.0, e.id, 0});
      return;
    }
    const std::span<const double> lengths = network_->SegmentLengths(e.id);
    double arc = 0.0;
    for (size_t i = 0; i + 1 < pts.size(); ++i) {
      rows_.push_back(SegmentRow{pts[i], pts[i + 1], lengths[i], arc, e.id,
                                 static_cast<uint32_t>(i)});
      arc += lengths[i];
    }
  });
  TT_CHECK(rows_.size() < kNoId);
  // Each row's columns within reach bound its runs: reserving them
  // spares the build the growth copies, a third of its time.
  size_t columns = 0;
  for (const SegmentRow& s : rows_) {
    const double reach = SegmentReach(s.a, s.b);
    columns += static_cast<size_t>(
        std::floor((std::max(s.a.x, s.b.x) + reach) / kCell) -
        std::floor((std::min(s.a.x, s.b.x) - reach) / kCell) + 1);
  }

  // Listing, one column at a time: the cell centres within the listing
  // reach of a segment form one convex region, so the cells of a column
  // that list it are one stretch, found from the section of the
  // column's centre line with that region.
  std::vector<ColumnRun> runs;
  runs.reserve(columns);
  size_t listings = 0;
  int32_t min_cx = std::numeric_limits<int32_t>::max();
  int32_t max_cx = std::numeric_limits<int32_t>::min();
  for (uint32_t row = 0; row < rows_.size(); ++row) {
    const SegmentRow& s = rows_[row];
    const double reach = SegmentReach(s.a, s.b);
    const ListingRegion region(s.a, s.b, reach);
    int32_t lo_cx = 0;
    int32_t hi_cx = -1;
    // On the lattice: the edge's whole grown extent was checked above.
    AxisCells(std::min(s.a.x, s.b.x) - reach, std::max(s.a.x, s.b.x) + reach,
              &lo_cx, &hi_cx);
    for (int32_t cx = lo_cx; cx <= hi_cx; ++cx) {
      const double x = (cx + 0.5) * kCell;
      double y0 = 0.0;
      double y1 = 0.0;
      if (!region.Section(x, &y0, &y1)) continue;
      int32_t lo_cy = static_cast<int32_t>(std::ceil(y0 / kCell - 0.5));
      int32_t hi_cy = static_cast<int32_t>(std::floor(y1 / kCell - 0.5));
      // Contains() has the last word: widen the stretch past any
      // centre the section's rounding left out.
      while (region.Contains(x, (lo_cy - 0.5) * kCell)) --lo_cy;
      while (region.Contains(x, (hi_cy + 1.5) * kCell)) ++hi_cy;
      if (lo_cy > hi_cy) continue;
      runs.push_back(ColumnRun{cx, lo_cy, hi_cy, row});
      listings += static_cast<size_t>(hi_cy - lo_cy) + 1;
      min_cx = std::min(min_cx, cx);
      max_cx = std::max(max_cx, cx);
    }
  }
  TT_CHECK(listings < kNoId);
  if (runs.empty()) return;

  // Group the runs by column; the sort is stable, so each column's runs
  // stay in row order.
  std::vector<ColumnRun> buffer;
  RadixSort(
      static_cast<uint32_t>(int64_t{max_cx} - min_cx),
      [min_cx](const ColumnRun& r) {
        return static_cast<uint32_t>(int64_t{r.cx} - min_cx);
      },
      &runs, &buffer);

  // Each column's listings, stably sorted by cell row, give its cells
  // in order and each cell's segments in (edge, segment) order: one
  // stretch of cell_segments_ per cell.
  std::vector<CellSlot> cells;
  cells.reserve(listings);  // an upper bound; only the used part is touched
  std::vector<ColumnListing> column;
  std::vector<ColumnListing> column_buffer;
  cell_segments_.resize(listings);
  uint32_t listed = 0;
  for (size_t first = 0, last = 0; first < runs.size(); first = last) {
    const int32_t cx = runs[first].cx;
    int32_t lo_cy = runs[first].lo_cy;
    int32_t hi_cy = runs[first].hi_cy;
    size_t size = 0;
    for (last = first; last < runs.size() && runs[last].cx == cx; ++last) {
      lo_cy = std::min(lo_cy, runs[last].lo_cy);
      hi_cy = std::max(hi_cy, runs[last].hi_cy);
      size += static_cast<size_t>(runs[last].hi_cy - runs[last].lo_cy) + 1;
    }
    column.resize(size);
    size_t k = 0;
    for (size_t r = first; r < last; ++r) {
      for (int32_t cy = runs[r].lo_cy; cy <= runs[r].hi_cy; ++cy) {
        column[k++] = ColumnListing{static_cast<uint32_t>(int64_t{cy} - lo_cy),
                                    runs[r].row};
      }
    }
    RadixSort(
        static_cast<uint32_t>(int64_t{hi_cy} - lo_cy),
        [](const ColumnListing& l) { return l.y; }, &column, &column_buffer);
    uint32_t y = kNoId;
    for (const ColumnListing& l : column) {
      if (l.y != y) {
        y = l.y;
        cells.push_back(CellSlot{
            cx, static_cast<int32_t>(lo_cy + int64_t{y}), listed, listed});
      }
      cell_segments_[listed++] = l.row;
      ++cells.back().end;
    }
  }

  // The directory: open addressing, at most three-quarters full.
  size_t slots = 1;
  while (4 * cells.size() > 3 * slots) slots *= 2;
  directory_.assign(slots, CellSlot{});
  const size_t mask = slots - 1;
  for (const CellSlot& cell : cells) {
    size_t i = HashCell2D(cell.cx, cell.cy) & mask;
    while (directory_[i].end != 0) i = (i + 1) & mask;
    directory_[i] = cell;
  }
}

std::span<const uint32_t> SpatialIndex::CellSegments(int32_t cx,
                                                     int32_t cy) const {
  if (directory_.empty()) return {};
  const size_t mask = directory_.size() - 1;
  // At most three-quarters full, so the probe reaches an empty slot.
  for (size_t i = HashCell2D(cx, cy) & mask;; i = (i + 1) & mask) {
    const CellSlot& slot = directory_[i];
    if (slot.end == 0) return {};
    if (slot.cx == cx && slot.cy == cy) {
      return {cell_segments_.data() + slot.begin, slot.end - slot.begin};
    }
  }
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
  QueryTallies& t = tallies_->Local();
  t.queries.Add(1);
  // The cell under `p` lists every segment within kReachM of any of its
  // points. A radius above that, a negative one, or a point or radius
  // that is not finite or off the cell lattice finds nothing.
  int32_t cx = 0;
  int32_t cy = 0;
  if (!(radius_m >= 0.0 && radius_m <= kReachM) ||
      !AxisCell(p.x, &cx) || !AxisCell(p.y, &cy)) {
    return;
  }
  const std::span<const uint32_t> ids = CellSegments(cx, cy);

  // Each edge's segments are one run of `ids`, in order, so the strict
  // `<` keeps the lowest-index minimum, and the arc length is the sum
  // Project forms: the same operands in the same order.
  int64_t edges = 0;
  EdgeCandidate best;
  const auto emit = [&] {
    ++edges;
    if (best.projection.distance <= radius_m) out->push_back(best);
  };
  for (const uint32_t id : ids) {
    const SegmentRow& s = rows_[id];
    const geo::PointProjection proj =
        geo::ProjectOntoSegment(p, geo::Segment{s.a, s.b});
    if (s.edge != best.edge) {
      if (best.edge != kInvalidEdge) emit();
      best.edge = s.edge;
    } else if (!(proj.distance < best.projection.distance)) {
      continue;
    }
    best.projection = geo::PolylineProjection{
        proj.point, s.segment, proj.t, s.arc0 + proj.t * s.length,
        proj.distance};
  }
  if (best.edge != kInvalidEdge) emit();
  std::sort(out->begin(), out->end(),
            [](const EdgeCandidate& a, const EdgeCandidate& b) {
              if (a.projection.distance != b.projection.distance) {
                return a.projection.distance < b.projection.distance;
              }
              return a.edge < b.edge;
            });

  // This worker's tallies of deterministic per-query work, so their
  // sum over workers is thread-count-invariant.
  t.cells_probed.Add(1);
  t.candidates.Add(edges);
  t.hits.Add(static_cast<int64_t>(out->size()));
}

size_t SpatialIndex::ApproxMemoryBytes() const {
  size_t bytes = sizeof(SpatialIndex);
  bytes += rows_.capacity() * sizeof(SegmentRow);
  bytes += cell_segments_.capacity() * sizeof(uint32_t);
  bytes += directory_.capacity() * sizeof(CellSlot);
  return bytes;
}

SpatialIndexStats SpatialIndex::stats() const {
  SpatialIndexStats s;
  tallies_->ForEach([&s](const QueryTallies& t) {
    s.queries += t.queries.value();
    s.cells_probed += t.cells_probed.value();
    s.candidates += t.candidates.value();
    s.hits += t.hits.value();
  });
  s.empty_geometry_edges = empty_geometry_edges_;
  return s;
}

}  // namespace roadnet
}  // namespace taxitrace
