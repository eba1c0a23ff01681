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
// Storage mirrors the network's tiling (tile.h): one slab of
// dist/prev/stamp arrays per tile, allocated the first time a search
// relaxes a vertex of that tile. A thread's resident scratch is
// therefore bounded by the working set of tiles its searches actually
// touch, not |V| — the point of tiled storage at city scale.
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
#include "taxitrace/roadnet/tile.h"

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
  WorkerTally tiles_touched;
  WorkerTally direct_connections;
};

class SearchScratch {
 public:
  /// Starts a new search over `network`: binds the tile layout (sizing
  /// the slab table, invalidating slabs if the graph grew), advances
  /// the generation so every previous entry becomes stale, and clears
  /// the heap storage.
  void BeginSearch(const RoadNetwork& network) {
    if (network_ != &network || bound_vertices_ != network.num_vertices() ||
        slabs_.size() != network.num_tiles()) {
      network_ = &network;
      bound_vertices_ = network.num_vertices();
      // Tile-local vertex counts may have changed; drop every slab so
      // first touch re-sizes against the current tile. Rebinding is
      // rare (graph mutation or a different network on this thread).
      slabs_.assign(network.num_tiles(), TileSlab{});
    }
    if (++generation_ == 0) {
      // uint32 wrap: every stored stamp could now alias a live search,
      // so reset them all once per ~4 billion searches.
      for (TileSlab& s : slabs_) {
        std::fill(s.stamp.begin(), s.stamp.end(), 0u);
        s.touched_generation = 0;
      }
      generation_ = 1;
    }
    tiles_touched_ = 0;
    heap.clear();
  }

  /// True when `v` was reached by the current search.
  [[nodiscard]] bool Visited(VertexId v) const {
    const TileSlab& s = slabs_[static_cast<size_t>(TileIndexOf(v))];
    const auto i = static_cast<size_t>(LocalIdOf(v));
    // An untouched tile has an empty slab; the size check doubles as
    // its unvisited test (a touched slab always spans the whole tile).
    return i < s.stamp.size() && s.stamp[i] == generation_;
  }

  /// Tentative (final once settled) cost of `v`; +infinity if the
  /// current search never reached it.
  [[nodiscard]] double Dist(VertexId v) const {
    return Visited(v) ? RawDist(v) : std::numeric_limits<double>::infinity();
  }
  /// Unchecked cost read; valid only when Visited(v).
  [[nodiscard]] double RawDist(VertexId v) const {
    return slabs_[static_cast<size_t>(TileIndexOf(v))]
        .dist[static_cast<size_t>(LocalIdOf(v))];
  }

  /// Edge / vertex the search reached `v` through; kInvalidEdge /
  /// kInvalidVertex for seeds and unreached vertices.
  [[nodiscard]] EdgeId PrevEdge(VertexId v) const {
    return Visited(v) ? slabs_[static_cast<size_t>(TileIndexOf(v))]
                            .prev_edge[static_cast<size_t>(LocalIdOf(v))]
                      : kInvalidEdge;
  }
  [[nodiscard]] VertexId PrevVertex(VertexId v) const {
    return Visited(v) ? slabs_[static_cast<size_t>(TileIndexOf(v))]
                            .prev_vertex[static_cast<size_t>(LocalIdOf(v))]
                      : kInvalidVertex;
  }

  /// Records a (possibly improved) path to `v`, stamping it into the
  /// current generation. Seeds pass kInvalidEdge / kInvalidVertex.
  void Relax(VertexId v, double dist, EdgeId prev_edge,
             VertexId prev_vertex) {
    const auto t = static_cast<size_t>(TileIndexOf(v));
    TileSlab& s = slabs_[t];
    if (s.stamp.empty()) AllocateSlab(s, static_cast<TileIndex>(t));
    if (s.touched_generation != generation_) {
      s.touched_generation = generation_;
      ++tiles_touched_;
    }
    const auto i = static_cast<size_t>(LocalIdOf(v));
    s.stamp[i] = generation_;
    s.dist[i] = dist;
    s.prev_edge[i] = prev_edge;
    s.prev_vertex[i] = prev_vertex;
  }

  /// Number of distinct tiles the current search has relaxed a vertex
  /// in — the working-set metric surfaced through RouterStats.
  [[nodiscard]] size_t tiles_touched() const { return tiles_touched_; }

  /// Reusable heap storage for the search loop (cleared by
  /// BeginSearch). Exposed directly: the Router drives it with
  /// std::push_heap / std::pop_heap.
  std::vector<SearchHeapEntry> heap;

  /// This worker's routing tallies (not reset by BeginSearch).
  SearchTallies tallies;

 private:
  // Per-tile arrays; entry i is valid only when stamp[i] == generation_.
  // Empty vectors mean the tile was never touched by this scratch.
  struct TileSlab {
    std::vector<double> dist;
    std::vector<EdgeId> prev_edge;
    std::vector<VertexId> prev_vertex;
    std::vector<uint32_t> stamp;
    uint32_t touched_generation = 0;
  };

  void AllocateSlab(TileSlab& s, TileIndex t) {
    const size_t n = network_->tile(t).vertices.size();
    s.stamp.assign(n, 0u);
    s.dist.assign(n, 0.0);
    s.prev_edge.assign(n, kInvalidEdge);
    s.prev_vertex.assign(n, kInvalidVertex);
  }

  const RoadNetwork* network_ = nullptr;
  size_t bound_vertices_ = 0;
  std::vector<TileSlab> slabs_;
  size_t tiles_touched_ = 0;
  uint32_t generation_ = 0;
};

}  // namespace roadnet
}  // namespace taxitrace

#endif  // TAXITRACE_ROADNET_SEARCH_SCRATCH_H_
