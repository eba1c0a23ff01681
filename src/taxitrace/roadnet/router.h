// Shortest-path routing over the prepared road network — the stand-in
// for pgRouting's Dijkstra used by the paper for filling map-matching
// gaps when consecutive GPS points are far apart.
//
// The search runs over the network's CSR adjacency with per-thread
// reusable scratch (see search_scratch.h) and goes goal-directed (A*
// ordered by dist + straight-line lower bound) whenever the target
// vertices are known and every edge cost multiplier is >= 1, which
// keeps the straight-line heuristic admissible; otherwise it falls back
// to plain Dijkstra with the exact heap order of the historical
// implementation. Both modes relax edges with a strict improvement
// test, so computed distances — and, whenever shortest paths are unique
// at full double precision, the paths themselves — are identical
// between the two.
//
// Connecting two positions on the same edge (most of map matching's
// connections) usually needs no search at all: when a bound proves the
// sub-edge between them no longer than every way of leaving the edge
// and coming back, ShortestPathBetween returns it directly.

#ifndef TAXITRACE_ROADNET_ROUTER_H_
#define TAXITRACE_ROADNET_ROUTER_H_

#include <memory>
#include <vector>

#include "taxitrace/common/executor.h"
#include "taxitrace/common/result.h"
#include "taxitrace/roadnet/road_network.h"
#include "taxitrace/roadnet/search_scratch.h"

namespace taxitrace {
namespace roadnet {

/// Search work accounting, readable via Router::stats(). Each search
/// does deterministic work — goal-directed or not is decided by the
/// arguments alone, and the heap/settle trace of one search never
/// depends on other searches — so the totals are identical at any
/// executor worker count.
struct RouterStats {
  int64_t searches = 0;          ///< Search runs (either mode).
  int64_t heap_pops = 0;         ///< Priority-queue pops, stale included.
  int64_t settled_vertices = 0;  ///< Vertices finalised (non-stale pops).
  /// Searches that ran goal-directed (A*); the rest were plain Dijkstra.
  int64_t goal_directed_searches = 0;
  /// Sum over searches of the distinct graph tiles each one relaxed a
  /// vertex in (always == searches on single-tile maps).
  int64_t tiles_touched = 0;
  /// ShortestPathBetween calls answered with the direct sub-edge path
  /// without a search; every other call that gets past argument checks
  /// runs exactly one search.
  int64_t direct_connections = 0;
};

/// A traversal of one edge within a path.
struct PathStep {
  EdgeId edge = kInvalidEdge;
  bool forward = true;  ///< Traversed from -> to?
};

/// A shortest path through the network.
struct Path {
  std::vector<PathStep> steps;  ///< Edges in traversal order.
  double length_m = 0.0;
  geo::Polyline geometry;  ///< Concatenated driving geometry.
};

/// Per-edge cost multipliers computed on demand, so a search only pays
/// for the edges it actually relaxes — the alternative to materialising
/// an |E|-sized vector per query. Implementations must be pure:
/// Multiplier(e) returns the same value every time it is asked within
/// one search (the relax loop may query an edge more than once), and
/// must be safe to call from any worker thread.
class EdgeCostModel {
 public:
  virtual ~EdgeCostModel() = default;

  /// Cost scale for one edge; must be > 0.
  [[nodiscard]] virtual double Multiplier(EdgeId edge) const = 0;

  /// A lower bound over all edges' multipliers. When it is > 0 the
  /// router runs goal-directed with the straight-line heuristic scaled
  /// by min(1, MinMultiplier()), which keeps the heuristic admissible
  /// and consistent: every edge costs at least MinMultiplier() times
  /// its length, hence at least that times the straight-line gap.
  [[nodiscard]] virtual double MinMultiplier() const = 0;
};

/// Length-minimising router honouring one-way constraints. Holds a
/// pointer to the network, which must outlive it. Constructing a Router
/// warms the network's CSR adjacency and segment tables, so build
/// Routers before sharing the network across threads.
class Router {
 public:
  explicit Router(const RoadNetwork* network);

  /// Shortest drivable path between two vertices. NotFound when the
  /// destination is unreachable. `edge_cost_multiplier`, when given, must
  /// have one entry per edge and scales each edge's length for route
  /// choice (it models driver preference noise); the returned length_m is
  /// always the real geometric length.
  Result<Path> ShortestPath(
      VertexId from, VertexId to,
      const std::vector<double>* edge_cost_multiplier = nullptr) const;

  /// Same contract, with edge multipliers supplied lazily by `cost`
  /// instead of a materialised |E|-vector. Runs goal-directed whenever
  /// cost.MinMultiplier() > 0 (heuristic scaled accordingly), so the
  /// common "noise around 1" models stay A* instead of falling back to
  /// a full Dijkstra sweep.
  Result<Path> ShortestPath(VertexId from, VertexId to,
                            const EdgeCostModel& cost) const;

  /// Distance (metres, real edge lengths, no multipliers) from `from`
  /// to `to`, searching only as far as `limit_m`: returns +infinity as
  /// soon as every frontier key exceeds the limit. Decision-equivalent
  /// to ShortestPath(from, to)->length_m compared against limit_m, at a
  /// fraction of the cost — the goal-directed search touches only the
  /// ball of radius limit_m around the endpoints.
  double BoundedVertexDistance(VertexId from, VertexId to,
                               double limit_m) const;

  /// Shortest drivable path between two positions on edges (as produced
  /// by map matching). Includes the partial first and last edges in the
  /// returned geometry/length, cut with the edges' precomputed segment
  /// lengths (RoadNetwork::SegmentLengths; bit-identical to cutting
  /// without them). Arcs are clamped to their edge. When both
  /// positions lie on one edge, the direct sub-edge path wins every
  /// exact tie with a route that leaves the edge and re-enters it. It
  /// is returned without a search (counted in direct_connections)
  /// whenever a bound proves it optimal: a route back to the vertex it
  /// left costs at least exit + entry, never less than direct, and one
  /// to the other vertex at least exit + the straight line between the
  /// edge's vertices + entry, because edges are at least as long as
  /// their chords; that bound must beat direct by 1e-6 m, against
  /// rounding. Otherwise one search decides, with the same result.
  /// InvalidArgument for an unknown edge or a non-finite arc; NotFound
  /// when unreachable.
  Result<Path> ShortestPathBetween(const EdgePosition& from,
                                   const EdgePosition& to) const;

  [[nodiscard]] const RoadNetwork& network() const { return *network_; }

  /// The search counters accumulated so far: the sum of every worker's
  /// own tallies (SearchTallies), shared with copies of this Router.
  [[nodiscard]] RouterStats stats() const;

 private:
  /// Runs one search from the given seed vertices (with initial costs),
  /// stopping once both stop vertices are settled. Returns the calling
  /// thread's scratch holding the result; it stays valid until this
  /// thread's next search through the same Router (or a copy of it).
  SearchScratch& Search(
      const std::vector<std::pair<VertexId, double>>& seeds,
      VertexId stop_at_both_a = kInvalidVertex,
      VertexId stop_at_both_b = kInvalidVertex,
      const std::vector<double>* edge_cost_multiplier = nullptr) const;

  /// Shared search loop behind both ShortestPath overloads:
  /// `multiplier(edge)` supplies the cost scale, `goal_directed` (with
  /// `heuristic_scale` applied to the straight-line bound) was decided
  /// by the caller. Instantiated only in router.cc.
  template <typename MultiplierFn>
  SearchScratch& SearchImpl(
      const std::vector<std::pair<VertexId, double>>& seeds,
      VertexId stop_at_both_a, VertexId stop_at_both_b, bool goal_directed,
      double heuristic_scale, MultiplierFn multiplier) const;

  /// Same vertex reconstruction as ShortestPath once a search settled
  /// `to`; factored out of the two overloads.
  Result<Path> BuildVertexPath(const SearchScratch& res, VertexId from,
                               VertexId to) const;

  const RoadNetwork* network_;
  // Shared across copies, and with it the search tallies each slot
  // keeps: distinct worker threads use distinct slots, and one thread
  // never runs two searches concurrently. No object shared across
  // workers is written per search; stats() sums the slots.
  std::shared_ptr<WorkerLocal<SearchScratch>> scratch_;
};

}  // namespace roadnet
}  // namespace taxitrace

#endif  // TAXITRACE_ROADNET_ROUTER_H_
