// Gap filling: when consecutive GPS points are far apart, the route
// between their matched positions is reconstructed with the Dijkstra
// shortest path (the paper uses pgRouting's Dijkstra for this).

#ifndef TAXITRACE_MAPMATCH_GAP_FILLER_H_
#define TAXITRACE_MAPMATCH_GAP_FILLER_H_

#include "taxitrace/common/result.h"
#include "taxitrace/mapmatch/route_cache.h"
#include "taxitrace/roadnet/router.h"

namespace taxitrace {
namespace mapmatch {

/// Gap-filling thresholds.
struct GapFillOptions {
  /// A connection counts as a gap (Dijkstra-filled) when its network
  /// length exceeds this, metres.
  double gap_threshold_m = 250.0;
  /// A connection is rejected as a plausible continuation when its
  /// network length exceeds detour_factor * straight-line + slack.
  double detour_factor = 1.8;
  double detour_slack_m = 120.0;
  /// Entry capacity of the per-trip route cache the matcher threads
  /// through Connect; 0 disables caching. Results are identical either
  /// way — the cache only skips repeat searches.
  size_t route_cache_capacity = 128;
};

/// Connects two matched positions through the network.
class GapFiller {
 public:
  GapFiller(const roadnet::RoadNetwork* network,
            GapFillOptions options = {});

  /// Shortest drivable connection between two on-edge positions,
  /// assembled into `*out` as Router::ShortestPathBetween does (a cache
  /// hit is copied into it, reusing its storage; on an error it is
  /// left empty). When `cache` is given, every connection is looked up
  /// in it, but only gap fills and failed connections are stored:
  /// short successful connections almost never repeat within a trip
  /// (the small study's pipeline hits 0 of 1,878 lookups, the
  /// paper-scale match_all about 0.05%), so storing them would cost a
  /// list node, a hash node and a path copy each for nothing.
  Status Connect(const roadnet::EdgePosition& from,
                 const roadnet::EdgePosition& to, RouteCache* cache,
                 roadnet::Path* out) const;

  /// The same connection as a fresh Path.
  Result<roadnet::Path> Connect(const roadnet::EdgePosition& from,
                                const roadnet::EdgePosition& to,
                                RouteCache* cache = nullptr) const;

  /// True when a connection of `network_length_m` between points
  /// `straight_line_m` apart is a plausible continuation of the drive.
  [[nodiscard]]
  bool IsPlausible(double network_length_m, double straight_line_m) const;

  /// True when the connection length marks a filled gap.
  [[nodiscard]] bool IsGap(double network_length_m) const {
    return network_length_m > options_.gap_threshold_m;
  }

  [[nodiscard]] const GapFillOptions& options() const { return options_; }

  /// The underlying router, for reading its Dijkstra work counters.
  [[nodiscard]] const roadnet::Router& router() const { return router_; }

 private:
  roadnet::Router router_;
  GapFillOptions options_;
};

}  // namespace mapmatch
}  // namespace taxitrace

#endif  // TAXITRACE_MAPMATCH_GAP_FILLER_H_
