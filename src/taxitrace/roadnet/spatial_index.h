// Uniform-grid spatial index over edge geometry, used by map matching and
// feature attachment to find candidate edges near a GPS point quickly.

#ifndef TAXITRACE_ROADNET_SPATIAL_INDEX_H_
#define TAXITRACE_ROADNET_SPATIAL_INDEX_H_

#include <cstdint>
#include <memory>
#include <optional>
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
  int64_t cells_probed = 0;   ///< grid-cell lookups performed.
  int64_t candidates = 0;     ///< distinct edges distance-checked.
  int64_t hits = 0;           ///< candidates returned within the radius.
  /// Edges dropped at build time: no geometry, or a coordinate that is
  /// not finite or lies beyond the cell lattice.
  int64_t empty_geometry_edges = 0;
};

/// Uniform grid over the bounding box of a network's edges. Each cell
/// stores every edge whose geometry meets it (an exact supercover of
/// each polyline segment, grown by 1e-6 m against rounding), so a
/// query needs only the cells its search square overlaps. The grid is
/// one dense row-major array of cells spanning the occupied cell
/// extent, flattened CSR-style, so a probe is an array load. The index
/// is immutable after construction and holds a pointer to the network,
/// which must outlive it.
class SpatialIndex {
 public:
  /// Builds the index. `cell_size_m` trades memory for query precision;
  /// 50 m suits a downtown-scale network.
  explicit SpatialIndex(const RoadNetwork* network, double cell_size_m = 50.0);

  /// All edges with a point within `radius_m` of `p`, one candidate per
  /// edge (its closest projection, computed with the edge's precomputed
  /// segment lengths), sorted by ascending distance. A
  /// point or radius that is not finite, or whose search square leaves
  /// the cell lattice (about +-5e10 m at 50 m cells), finds nothing.
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
  const RoadNetwork* network_;
  double cell_size_m_;
  // Cell (cx, cy) owns the edge ids cell_edges_[cell_offsets_[i] ..
  // cell_offsets_[i + 1]) with i = (cy - min_cy_) * cols_ + (cx - min_cx_).
  // The extent spans only the occupied cells; empty when no edge has a
  // cell.
  int32_t min_cx_ = 0;
  int32_t min_cy_ = 0;
  int32_t cols_ = 0;
  int32_t rows_ = 0;
  std::vector<int32_t> cell_offsets_;
  std::vector<EdgeId> cell_edges_;
  // Bounding box of each edge's geometry, indexed by edge id. The box
  // encloses the polyline, so a point farther than `r` from the box is
  // farther than `r` from the edge — a safe pre-projection reject.
  std::vector<geo::Bbox> edge_bounds_;
  // Per-worker query scratch: the gathered-candidate list and a
  // generation-stamped seen marker per edge id (same trick as the
  // router's SearchScratch), so a query deduplicates with one array
  // read per gathered id and allocates nothing in steady state, and
  // the candidate list Nearest() reuses across its search rings. Purely
  // an execution detail — the deduplicated set is what the old
  // per-query sort produced, and the output is fully re-ordered
  // afterwards.
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
    std::vector<EdgeId> gathered;
    std::vector<uint32_t> seen_stamp;
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
