// A small LRU memo for gap-fill routing queries.
//
// Map matching can ask the router for the same (from, to) edge-position
// pair more than once within a trip, and each repeat is a full
// shortest-path search. GapFiller::Connect decides which results are
// stored. The cache keys on the exact bit pattern of both positions, so
// a hit is guaranteed to return the byte-identical Result the router
// produced (NotFound outcomes are cached too).
//
// Determinism contract: a RouteCache must be confined to one
// deterministic unit of work — one trip's Match call — and never shared
// across executor work items. Hit/miss sequences then depend only on
// the trip, not on worker count or scheduling, which keeps StudyResults
// and every published cache counter byte-identical at any thread count.

#ifndef TAXITRACE_MAPMATCH_ROUTE_CACHE_H_
#define TAXITRACE_MAPMATCH_ROUTE_CACHE_H_

#include <bit>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>

#include "taxitrace/common/result.h"
#include "taxitrace/roadnet/router.h"

namespace taxitrace {
namespace mapmatch {

class RouteCache {
 public:
  /// Capacity 0 disables the cache: Find always misses (uncounted) and
  /// Insert is a no-op.
  explicit RouteCache(size_t capacity) : capacity_(capacity) {}

  /// Tallies of this cache's lifetime. Deterministic per unit of work
  /// (see the header comment), so sums over trips merge into exact
  /// counters.
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
  };

  /// The cached result for the pair, refreshing its recency, or nullptr
  /// on a miss. The pointer stays valid until the next Insert.
  const Result<roadnet::Path>* Find(const roadnet::EdgePosition& from,
                                    const roadnet::EdgePosition& to);

  /// Stores a result for the pair, evicting the least recently used
  /// entry when full. Inserting an existing key refreshes its value.
  void Insert(const roadnet::EdgePosition& from,
              const roadnet::EdgePosition& to,
              Result<roadnet::Path> path);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] size_t size() const { return entries_.size(); }
  [[nodiscard]] size_t capacity() const { return capacity_; }

 private:
  struct Key {
    roadnet::EdgeId from_edge = roadnet::kInvalidEdge;
    roadnet::EdgeId to_edge = roadnet::kInvalidEdge;
    double from_arc = 0.0;
    double to_arc = 0.0;
    // Equality compares the arc *bit patterns*, exactly like KeyHash
    // hashes them. Value comparison would break the unordered_map
    // contract (equal keys must hash equally): -0.0 == +0.0 but their
    // bit patterns hash differently, and a NaN arc would never equal
    // itself, duplicating entries and turning guaranteed hits into
    // misses.
    bool operator==(const Key& other) const {
      return from_edge == other.from_edge && to_edge == other.to_edge &&
             std::bit_cast<uint64_t>(from_arc) ==
                 std::bit_cast<uint64_t>(other.from_arc) &&
             std::bit_cast<uint64_t>(to_arc) ==
                 std::bit_cast<uint64_t>(other.to_arc);
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const;
  };
  struct Entry {
    Key key;
    Result<roadnet::Path> path;
  };

  size_t capacity_;
  // Recency order, most recent at the front; the map indexes into it.
  std::list<Entry> entries_;
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_;
  Stats stats_;
};

}  // namespace mapmatch
}  // namespace taxitrace

#endif  // TAXITRACE_MAPMATCH_ROUTE_CACHE_H_
