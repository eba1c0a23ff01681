// Spatial index over edge geometry, used by map matching and feature
// attachment to find candidate edges near a GPS point quickly.

#ifndef TAXITRACE_ROADNET_SPATIAL_INDEX_H_
#define TAXITRACE_ROADNET_SPATIAL_INDEX_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "taxitrace/common/executor.h"
#include "taxitrace/roadnet/road_network.h"

namespace taxitrace {
namespace roadnet {

/// An edge near a query point, with the projection details.
struct EdgeCandidate {
  EdgeId edge = kInvalidEdge;
  geo::PolylineProjection projection;  ///< Nearest point on the edge.
};

/// Probe accounting, readable at any time via SpatialIndex::stats().
/// The counters are sums over deterministic per-query work, so their
/// totals are identical at any thread count.
struct SpatialIndexStats {
  int64_t queries = 0;        ///< Nearby() calls (Nearest() makes several).
  /// Cells read: one per query of radius up to SpatialIndex::kReachM.
  int64_t cells_probed = 0;
  /// Distinct edges projected: an edge counts once per query, however
  /// many of its segments the cells list.
  int64_t candidates = 0;
  int64_t hits = 0;           ///< candidates returned within the radius.
  /// Edges dropped at build time: no geometry, or a coordinate that is
  /// not finite or lies beyond the cell lattice.
  int64_t empty_geometry_edges = 0;
};

/// Grid of kCellSizeM cells, each listing the id of every edge segment
/// that passes within kReachM of the cell, in (edge, segment) order. A
/// query of radius up to kReachM reads only the cell under its point
/// and projects that cell's segments; a larger radius reads the cells
/// within `radius - kReachM` of the point. Behind the ids sits one row
/// per segment (endpoints, length and the in-order arc length before
/// it), so a projection is bit-identical to geo::Polyline::Project.
/// Cells are keyed through an open-addressing directory of the occupied
/// cells only, so the memory follows the map's roads, not its bounding
/// box. The index is immutable after construction and holds a pointer
/// to the network, which must outlive it.
class SpatialIndex {
 public:
  /// Side of a grid cell, metres.
  static constexpr double kCellSizeM = 20.0;
  /// Each cell lists the segments within this distance of it: the
  /// largest radius one cell answers. Just above the matcher's default
  /// 55 m search radius.
  static constexpr double kReachM = 56.0;
  /// Radius of Nearest()'s first search ring, metres.
  static constexpr double kNearestFirstRingM = 50.0;

  /// Builds the index.
  explicit SpatialIndex(const RoadNetwork* network);

  /// All edges with a point within `radius_m` of `p`, one candidate per
  /// edge (its closest projection, computed with the edge's precomputed
  /// segment lengths), sorted by ascending distance. A point or radius
  /// that is not finite, a negative radius, or a point whose search
  /// window leaves the cell lattice (about +-2e10 m) finds nothing.
  std::vector<EdgeCandidate> Nearby(const geo::EnPoint& p,
                                    double radius_m) const;

  /// Same as above, written into `*out` (cleared first) so a caller
  /// looping over many points can reuse one vector's storage.
  void Nearby(const geo::EnPoint& p, double radius_m,
              std::vector<EdgeCandidate>* out) const;

  /// The closest edge within `max_radius_m`, if any; none for a point
  /// Nearby() cannot search.
  std::optional<EdgeCandidate> Nearest(const geo::EnPoint& p,
                                       double max_radius_m) const;

  /// The network this index was built over.
  [[nodiscard]] const RoadNetwork& network() const { return *network_; }

  /// Approximate resident bytes of the index storage.
  [[nodiscard]] size_t ApproxMemoryBytes() const;

  /// The probe counters accumulated so far: the sum of every worker's
  /// own tallies, shared with copies of this index.
  [[nodiscard]] SpatialIndexStats stats() const;

 private:
  // One indexed edge segment. A one-point geometry has one row from
  // its point to itself, with zero length.
  struct SegmentRow {
    geo::EnPoint a;
    geo::EnPoint b;
    double length = 0.0;  // the edge's SegmentLengths entry
    double arc0 = 0.0;    // in-order sum of the lengths before it
    EdgeId edge = kInvalidEdge;
    uint32_t segment = 0;
  };
  // Directory slot of cell (cx, cy): its segment ids are
  // cell_segments_[begin, end). An occupied cell lists at least one
  // segment, so end == 0 marks an empty slot.
  struct CellSlot {
    int32_t cx = 0;
    int32_t cy = 0;
    uint32_t begin = 0;
    uint32_t end = 0;
  };

  // The segment ids cell (cx, cy) lists; empty for an unoccupied cell.
  [[nodiscard]] std::span<const uint32_t> CellSegments(int32_t cx,
                                                       int32_t cy) const;

  const RoadNetwork* network_;
  std::vector<SegmentRow> rows_;  // (edge, segment) order
  std::vector<uint32_t> cell_segments_;
  // Open addressing with linear probing, a power-of-two size; empty
  // when no edge has a segment.
  std::vector<CellSlot> directory_;
  size_t occupied_cells_ = 0;
  // Extent of the occupied cells, for clipping a multi-cell window.
  int32_t min_cx_ = 0;
  int32_t max_cx_ = -1;
  int32_t min_cy_ = 0;
  int32_t max_cy_ = -1;
  // Per-worker query scratch. A multi-cell query meets a segment in
  // several cells, so it gathers the distinct rows with a
  // generation-stamped marker per row (same trick as the router's
  // SearchScratch): one array read per listed id, and a warm query
  // allocates nothing. `ring_hits` is the candidate list Nearest()
  // reuses across its search rings.
  //
  // The scratch also keeps the worker's query tallies, the per-worker
  // terms of SpatialIndexStats, on a cache line of their own: no
  // object shared across workers is written per query, and stats()
  // sums the slots. Copies of the index share the scratch, and so the
  // tallies.
  struct alignas(kCacheLineBytes) QueryTallies {
    WorkerTally queries;
    WorkerTally cells_probed;
    WorkerTally candidates;
    WorkerTally hits;
  };
  struct QueryScratch {
    std::vector<uint32_t> row_stamp;
    std::vector<uint32_t> gathered;
    uint32_t generation = 0;
    std::vector<EdgeCandidate> ring_hits;
    QueryTallies tallies;
  };
  std::shared_ptr<WorkerLocal<QueryScratch>> scratch_;
  int64_t empty_geometry_edges_ = 0;
};

}  // namespace roadnet
}  // namespace taxitrace

#endif  // TAXITRACE_ROADNET_SPATIAL_INDEX_H_
