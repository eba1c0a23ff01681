// Reusable per-thread state for one shortest-path search.
//
// A naive Dijkstra pays O(|V|) per search just to allocate and
// infinity-fill its dist/prev arrays. SearchScratch keeps those arrays
// alive between searches and marks validity with a generation stamp:
// entry v is meaningful only when stamp[v] equals the current search's
// generation, so starting a new search is a single counter increment
// and a search touches only the vertices it actually visits. The heap
// storage is reused the same way, making steady-state searches
// allocation-free.
//
// The arrays are indexed by vertex id and sized to the network when the
// scratch binds to it (the first search, or the first after the graph
// grew or the thread switched networks).
//
// One instance serves one thread at a time (the Router hands each
// executor worker its own via WorkerLocal); results read through the
// accessors stay valid until the next BeginSearch on the same instance.
// The instance also carries its worker's search tallies, which
// Router::stats() sums over all workers.

#ifndef TAXITRACE_ROADNET_SEARCH_SCRATCH_H_
#define TAXITRACE_ROADNET_SEARCH_SCRATCH_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "taxitrace/common/executor.h"
#include "taxitrace/roadnet/road_network.h"

namespace taxitrace {
namespace roadnet {

/// One heap element of a search: `key` orders the heap (equal to `dist`
/// for Dijkstra, dist + heuristic for A*), `dist` is the tentative cost
/// used for the stale-entry check.
struct SearchHeapEntry {
  double key = 0.0;
  double dist = 0.0;
  VertexId vertex = kInvalidVertex;
  bool operator>(const SearchHeapEntry& other) const {
    return key > other.key;
  }
};

/// One worker's routing work, the per-worker terms of RouterStats. Only
/// the owning worker writes it, on a cache line of its own.
struct alignas(kCacheLineBytes) SearchTallies {
  WorkerTally searches;
  WorkerTally heap_pops;
  WorkerTally settled_vertices;
  WorkerTally goal_directed_searches;
  WorkerTally direct_connections;
};

class SearchScratch {
 public:
  /// Starts a new search over `network`: binds the scratch to it
  /// (re-sizing the arrays if the network changed or grew), advances the
  /// generation so every previous entry becomes stale, and clears the
  /// heap storage.
  void BeginSearch(const RoadNetwork& network) {
    if (network_ != &network || stamp_.size() != network.num_vertices()) {
      network_ = &network;
      const size_t n = network.num_vertices();
      stamp_.assign(n, 0u);
      dist_.assign(n, 0.0);
      prev_edge_.assign(n, kInvalidEdge);
      prev_vertex_.assign(n, kInvalidVertex);
    }
    if (++generation_ == 0) {
      // uint32 wrap: every stored stamp could now alias a live search,
      // so reset them all once per ~4 billion searches.
      std::fill(stamp_.begin(), stamp_.end(), 0u);
      generation_ = 1;
    }
    heap.clear();
  }

  /// True when `v` was reached by the current search.
  [[nodiscard]] bool Visited(VertexId v) const {
    return stamp_[static_cast<size_t>(v)] == generation_;
  }

  /// Tentative (final once settled) cost of `v`; +infinity if the
  /// current search never reached it.
  [[nodiscard]] double Dist(VertexId v) const {
    return Visited(v) ? RawDist(v) : std::numeric_limits<double>::infinity();
  }
  /// Unchecked cost read; valid only when Visited(v).
  [[nodiscard]] double RawDist(VertexId v) const {
    return dist_[static_cast<size_t>(v)];
  }

  /// Edge / vertex the search reached `v` through; kInvalidEdge /
  /// kInvalidVertex for seeds and unreached vertices.
  [[nodiscard]] EdgeId PrevEdge(VertexId v) const {
    return Visited(v) ? prev_edge_[static_cast<size_t>(v)] : kInvalidEdge;
  }
  [[nodiscard]] VertexId PrevVertex(VertexId v) const {
    return Visited(v) ? prev_vertex_[static_cast<size_t>(v)] : kInvalidVertex;
  }

  /// Records a (possibly improved) path to `v`, stamping it into the
  /// current generation. Seeds pass kInvalidEdge / kInvalidVertex.
  void Relax(VertexId v, double dist, EdgeId prev_edge,
             VertexId prev_vertex) {
    const auto i = static_cast<size_t>(v);
    stamp_[i] = generation_;
    dist_[i] = dist;
    prev_edge_[i] = prev_edge;
    prev_vertex_[i] = prev_vertex;
  }

  /// Reusable heap storage for the search loop (cleared by
  /// BeginSearch). Exposed directly: the Router drives it with
  /// std::push_heap / std::pop_heap.
  std::vector<SearchHeapEntry> heap;

  /// This worker's routing tallies (not reset by BeginSearch).
  SearchTallies tallies;

 private:
  // Entry v is valid only when stamp_[v] == generation_.
  const RoadNetwork* network_ = nullptr;
  std::vector<double> dist_;
  std::vector<EdgeId> prev_edge_;
  std::vector<VertexId> prev_vertex_;
  std::vector<uint32_t> stamp_;
  uint32_t generation_ = 0;
};

}  // namespace roadnet
}  // namespace taxitrace

#endif  // TAXITRACE_ROADNET_SEARCH_SCRATCH_H_
