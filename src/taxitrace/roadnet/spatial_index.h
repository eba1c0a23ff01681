// Spatial index over edge geometry, used by map matching to find the
// candidate edges near a GPS point quickly.

#ifndef TAXITRACE_ROADNET_SPATIAL_INDEX_H_
#define TAXITRACE_ROADNET_SPATIAL_INDEX_H_

#include <cstdint>
#include <memory>
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
  int64_t queries = 0;        ///< Nearby() calls.
  /// Cells read: one per query that can be answered, none otherwise.
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
/// query, of radius at most kReachM, reads only the cell under its
/// point and projects that cell's segments. Behind the ids sits one row
/// per segment (endpoints, length and the in-order arc length before
/// it), so a projection is bit-identical to geo::Polyline::Project.
/// Cells are keyed through an open-addressing directory of the occupied
/// cells only, so the memory follows the map's roads, not its bounding
/// box. The index is immutable after construction and holds a pointer
/// to the network, which must outlive it. A study builds one, in
/// core::Pipeline; a one-off lookup scans RoadNetwork::ForEachEdgeWithin.
class SpatialIndex {
 public:
  /// Side of a grid cell, metres.
  static constexpr double kCellSizeM = 20.0;
  /// Each cell lists the segments within this distance of it: the
  /// largest radius a query answers. Just above the matcher's 55 m
  /// search radius.
  static constexpr double kReachM = 56.0;

  /// Builds the index.
  explicit SpatialIndex(const RoadNetwork* network);

  /// All edges with a point within `radius_m` of `p`, one candidate per
  /// edge (its closest projection, computed with the edge's precomputed
  /// segment lengths), sorted by ascending distance. Only radii in
  /// [0, kReachM] are answered: a larger, negative or non-finite radius,
  /// a point that is not finite, or a point off the cell lattice (about
  /// +-2e10 m) finds nothing and reads no cell.
  std::vector<EdgeCandidate> Nearby(const geo::EnPoint& p,
                                    double radius_m) const;

  /// Same as above, written into `*out` (cleared first) so a caller
  /// looping over many points can reuse one vector's storage.
  void Nearby(const geo::EnPoint& p, double radius_m,
              std::vector<EdgeCandidate>* out) const;

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
  // Each worker's query tallies, the per-worker terms of
  // SpatialIndexStats, on a cache line of their own: no object shared
  // across workers is written per query, and stats() sums the slots.
  // Copies of the index share the tallies.
  struct alignas(kCacheLineBytes) QueryTallies {
    WorkerTally queries;
    WorkerTally cells_probed;
    WorkerTally candidates;
    WorkerTally hits;
  };
  std::shared_ptr<WorkerLocal<QueryTallies>> tallies_;
  int64_t empty_geometry_edges_ = 0;
};

}  // namespace roadnet
}  // namespace taxitrace

#endif  // TAXITRACE_ROADNET_SPATIAL_INDEX_H_
