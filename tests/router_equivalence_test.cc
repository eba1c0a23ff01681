// Property test for the router: its one search loop (CSR adjacency,
// generation-stamped scratch, A* with a heuristic scaled by the cost
// model's lower bound on multipliers) must return the same paths as a
// plain textbook Dijkstra — identical step sequences and lengths, not
// just equal costs — across hundreds of random OD pairs, with and
// without edge cost multipliers, and BoundedVertexDistance must agree
// with the reference distance under its limit.
//
// The reference below is deliberately the naive historical algorithm:
// freshly allocated O(|V|) arrays, a (dist, vertex)-keyed binary heap,
// strict-improvement relaxation in OutArcs order. A* explores in a
// different heap order, but relaxation is strict in both, so prev
// pointers — and therefore reconstructed paths — agree whenever
// shortest paths are unique at full double precision, which random
// geometric lengths make overwhelmingly likely.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "taxitrace/common/random.h"
#include "taxitrace/roadnet/router.h"
#include "taxitrace/synth/city_map_generator.h"

namespace taxitrace {
namespace roadnet {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct ReferencePath {
  bool found = false;
  std::vector<PathStep> steps;
  double cost = 0.0;
};

// Textbook Dijkstra from `from`, stopping when `to` settles.
ReferencePath ReferenceDijkstra(
    const RoadNetwork& net, VertexId from, VertexId to,
    const std::vector<double>* edge_cost_multiplier = nullptr) {
  const size_t n = net.num_vertices();
  std::vector<double> dist(n, kInf);
  std::vector<EdgeId> prev_edge(n, kInvalidEdge);
  std::vector<VertexId> prev_vertex(n, kInvalidVertex);
  using HeapEntry = std::pair<double, VertexId>;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      heap;
  dist[static_cast<size_t>(from)] = 0.0;
  heap.emplace(0.0, from);
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > dist[static_cast<size_t>(v)]) continue;  // stale
    if (v == to) break;
    for (const HalfEdge& arc : net.OutArcs(v)) {
      if (!arc.traversable_out) continue;
      const double mult =
          edge_cost_multiplier == nullptr
              ? 1.0
              : (*edge_cost_multiplier)[static_cast<size_t>(arc.edge)];
      const double nd = d + arc.length_m * mult;
      if (nd < dist[static_cast<size_t>(arc.head)]) {
        dist[static_cast<size_t>(arc.head)] = nd;
        prev_edge[static_cast<size_t>(arc.head)] = arc.edge;
        prev_vertex[static_cast<size_t>(arc.head)] = v;
        heap.emplace(nd, arc.head);
      }
    }
  }

  ReferencePath result;
  if (!(dist[static_cast<size_t>(to)] < kInf)) return result;
  result.found = true;
  result.cost = dist[static_cast<size_t>(to)];
  std::vector<PathStep> rev;
  VertexId v = to;
  while (v != from) {
    const EdgeId e = prev_edge[static_cast<size_t>(v)];
    const VertexId p = prev_vertex[static_cast<size_t>(v)];
    rev.push_back(PathStep{e, net.edge(e).from == p});
    v = p;
  }
  result.steps.assign(rev.rbegin(), rev.rend());
  return result;
}

const synth::CityMap& TestMap() {
  static const synth::CityMap map = [] {
    synth::CityMapOptions options;
    return synth::GenerateCityMap(options).value();
  }();
  return map;
}

void ExpectSamePath(const ReferencePath& ref, const Result<Path>& got,
                    VertexId from, VertexId to) {
  ASSERT_EQ(ref.found, got.ok())
      << "reachability disagrees for " << from << " -> " << to;
  if (!ref.found) return;
  const RoadNetwork& net = TestMap().network;
  ASSERT_EQ(ref.steps.size(), got->steps.size())
      << "step count disagrees for " << from << " -> " << to;
  double real_length = 0.0;
  for (size_t i = 0; i < ref.steps.size(); ++i) {
    EXPECT_EQ(ref.steps[i].edge, got->steps[i].edge)
        << "step " << i << " of " << from << " -> " << to;
    EXPECT_EQ(ref.steps[i].forward, got->steps[i].forward)
        << "step " << i << " of " << from << " -> " << to;
    real_length += net.edge(ref.steps[i].edge).length_m;
  }
  // ShortestPath reports the real geometric length regardless of the
  // multiplier used for route choice.
  EXPECT_EQ(real_length, got->length_m) << from << " -> " << to;
}

// 200+ random OD pairs, no multiplier: goal-directed A* throughout.
TEST(RouterEquivalenceTest, MatchesReferenceDijkstraOnRandomPairs) {
  const RoadNetwork& net = TestMap().network;
  const Router router(&net);
  const auto n = static_cast<int64_t>(net.num_vertices());
  Rng rng(1234);
  int reachable = 0;
  for (int i = 0; i < 220; ++i) {
    const auto from = static_cast<VertexId>(rng.UniformInt(0, n - 1));
    const auto to = static_cast<VertexId>(rng.UniformInt(0, n - 1));
    const ReferencePath ref = ReferenceDijkstra(net, from, to);
    ExpectSamePath(ref, router.ShortestPath(from, to), from, to);
    reachable += ref.found ? 1 : 0;
  }
  // The generated city core is strongly connected; if nearly every pair
  // were unreachable the test would be vacuous.
  EXPECT_GT(reachable, 150);
  EXPECT_EQ(router.stats().goal_directed_searches, router.stats().searches);
}

// Route-choice multipliers read from a per-edge vector. The model
// reports `min_multiplier` as its lower bound, which is valid for any
// value <= the vector's true minimum.
class VectorCostModel final : public EdgeCostModel {
 public:
  VectorCostModel(const std::vector<double>* mult, double min_multiplier)
      : mult_(mult), min_(min_multiplier) {}
  double Multiplier(EdgeId edge) const override {
    return (*mult_)[static_cast<size_t>(edge)];
  }
  double MinMultiplier() const override { return min_; }

 private:
  const std::vector<double>* mult_;
  double min_;
};

// Runs `pairs` random OD pairs with multipliers drawn from [lo, hi],
// served by a model reporting the true minimum times `bound_share`, and
// expects every path to match the reference run with the same costs.
RouterStats RunMultiplierPairs(uint64_t seed, double lo, double hi,
                               double bound_share, int pairs) {
  const RoadNetwork& net = TestMap().network;
  const Router router(&net);
  const auto n = static_cast<int64_t>(net.num_vertices());
  Rng rng(seed);
  std::vector<double> multiplier(net.num_edges());
  for (double& m : multiplier) m = rng.Uniform(lo, hi);
  const VectorCostModel model(
      &multiplier,
      bound_share * *std::min_element(multiplier.begin(), multiplier.end()));
  for (int i = 0; i < pairs; ++i) {
    const auto from = static_cast<VertexId>(rng.UniformInt(0, n - 1));
    const auto to = static_cast<VertexId>(rng.UniformInt(0, n - 1));
    ExpectSamePath(ReferenceDijkstra(net, from, to, &multiplier),
                   router.ShortestPath(from, to, model), from, to);
  }
  return router.stats();
}

// Multipliers >= 1 keep the unscaled straight-line heuristic
// admissible: the router runs plain A* and agrees with the reference.
TEST(RouterEquivalenceTest, MatchesReferenceWithInflatingMultipliers) {
  const RouterStats stats = RunMultiplierPairs(5678, 1.0, 1.8, 1.0, 110);
  EXPECT_EQ(stats.goal_directed_searches, stats.searches);
}

// Multipliers below 1 scale the heuristic down by the model's bound; the
// search stays goal-directed and still agrees with the reference.
TEST(RouterEquivalenceTest, MatchesReferenceWithShrinkingMultipliers) {
  const RouterStats stats = RunMultiplierPairs(24680, 0.6, 1.5, 1.0, 110);
  EXPECT_EQ(stats.goal_directed_searches, stats.searches);
}

// A model whose bound is 0 scales the heuristic to 0: keys equal
// distances, the plain Dijkstra heap order (goal_directed_searches
// stays 0), and the paths still match the reference.
TEST(RouterEquivalenceTest, MatchesReferenceUnderDijkstraFallback) {
  const RouterStats stats = RunMultiplierPairs(9876, 0.6, 1.5, 0.0, 110);
  EXPECT_GT(stats.searches, 0);
  EXPECT_EQ(stats.goal_directed_searches, 0);
}

// --- BoundedVertexDistance -------------------------------------------------

// The reference distance when it is within the limit, +inf otherwise,
// for limits 0, 900 m, just short of the distance and +inf, over random
// nearby pairs (a random walk of 0-12 arcs, so many fall on either side
// of 900 m and some are the same vertex) and random far pairs; unknown
// vertices are +inf.
TEST(RouterEquivalenceTest, BoundedVertexDistanceMatchesReference) {
  const RoadNetwork& net = TestMap().network;
  const Router router(&net);
  const auto n = static_cast<int64_t>(net.num_vertices());
  Rng rng(97531);
  int within_900 = 0;
  int beyond_900 = 0;
  for (int i = 0; i < 200; ++i) {
    const auto from = static_cast<VertexId>(rng.UniformInt(0, n - 1));
    VertexId to = from;
    if (i % 4 == 0) {
      to = static_cast<VertexId>(rng.UniformInt(0, n - 1));
    } else {
      for (int64_t hop = rng.UniformInt(0, 12); hop > 0; --hop) {
        std::vector<VertexId> heads;
        for (const HalfEdge& arc : net.OutArcs(to)) {
          if (arc.traversable_out) heads.push_back(arc.head);
        }
        if (heads.empty()) break;
        to = heads[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(heads.size()) - 1))];
      }
    }
    const ReferencePath ref = ReferenceDijkstra(net, from, to);
    const double want = ref.found ? ref.cost : kInf;
    // The largest limit below the distance cuts the search off with `to`
    // reached but not settled, so its tentative distance must not leak.
    const double just_short = want > 0.0 && want < kInf
                                  ? std::nextafter(want, 0.0)
                                  : 0.0;
    for (const double limit : {0.0, 900.0, just_short, kInf}) {
      EXPECT_EQ(want <= limit ? want : kInf,
                router.BoundedVertexDistance(from, to, limit))
          << from << " -> " << to << " within " << limit;
    }
    within_900 += want <= 900.0 ? 1 : 0;
    beyond_900 += want > 900.0 && want < kInf ? 1 : 0;
  }
  EXPECT_GT(within_900, 20);
  EXPECT_GT(beyond_900, 20);
  EXPECT_EQ(router.BoundedVertexDistance(-1, 0, kInf), kInf);
  EXPECT_EQ(router.BoundedVertexDistance(0, static_cast<VertexId>(n), 900.0),
            kInf);
}

// --- ShortestPathBetween ---------------------------------------------------

// The expected ShortestPathBetween answer, assembled from the reference:
// on one edge the direct sub-edge, otherwise (or when cheaper) the best
// of the four ways to leave the source edge at one end and enter the
// destination edge at one end, each connected by ReferenceDijkstra.
// Ties resolve as the router's do: direct before any graph route, entry
// at te.from before te.to, and at one entry the route with fewer steps
// (equal costs there come from a zero-cost exit whose route passes
// through the other exit vertex, which the router's seeds reach first).
// Costs are summed in the router's order: exit, each edge, entry.
struct ExpectedConnection {
  bool found = false;
  std::vector<PathStep> steps;
  double length_m = kInf;
  geo::Polyline geometry;
};

ExpectedConnection ReferenceBetween(const RoadNetwork& net,
                                    const EdgePosition& from,
                                    const EdgePosition& to) {
  const Edge& fe = net.edge(from.edge);
  const Edge& te = net.edge(to.edge);
  const double a = std::clamp(from.arc_length_m, 0.0, fe.length_m);
  const double b = std::clamp(to.arc_length_m, 0.0, te.length_m);

  ExpectedConnection best;
  if (from.edge == to.edge) {
    for (const bool forward : {true, false}) {
      if (!net.CanTraverse(from.edge, forward)) continue;
      if (forward ? b < a : a < b) continue;
      const double cost = forward ? b - a : a - b;
      if (cost < best.length_m) {
        best.found = true;
        best.length_m = cost;
        best.steps = {PathStep{from.edge, forward}};
        best.geometry = fe.geometry.SubLine(a, b);
      }
    }
  }

  struct Exit {
    VertexId vertex;
    double cost;
    bool forward;
  };
  std::vector<Exit> exits;
  if (net.CanTraverse(from.edge, true)) {
    exits.push_back({fe.to, fe.length_m - a, true});
  }
  if (net.CanTraverse(from.edge, false)) {
    exits.push_back({fe.from, a, false});
  }
  for (const bool enter_forward : {true, false}) {
    if (!net.CanTraverse(to.edge, enter_forward)) continue;
    const VertexId entry = enter_forward ? te.from : te.to;
    const double entry_cost = enter_forward ? b : te.length_m - b;
    ExpectedConnection at_entry;
    for (const Exit& exit : exits) {
      const ReferencePath ref = ReferenceDijkstra(net, exit.vertex, entry);
      if (!ref.found) continue;
      double cost = exit.cost;
      for (const PathStep& s : ref.steps) cost += net.edge(s.edge).length_m;
      cost += entry_cost;
      const size_t num_steps = ref.steps.size() + 2;
      if (cost < at_entry.length_m ||
          (cost == at_entry.length_m && num_steps < at_entry.steps.size())) {
        at_entry.found = true;
        at_entry.length_m = cost;
        at_entry.steps = {PathStep{from.edge, exit.forward}};
        at_entry.steps.insert(at_entry.steps.end(), ref.steps.begin(),
                              ref.steps.end());
        at_entry.steps.push_back(PathStep{to.edge, enter_forward});
        at_entry.geometry =
            fe.geometry.SubLine(a, exit.forward ? fe.length_m : 0.0);
        for (const PathStep& s : ref.steps) {
          const geo::Polyline& g = net.edge(s.edge).geometry;
          at_entry.geometry.Extend(s.forward ? g : g.Reversed());
        }
        at_entry.geometry.Extend(
            te.geometry.SubLine(enter_forward ? 0.0 : te.length_m, b));
      }
    }
    if (at_entry.length_m < best.length_m) best = std::move(at_entry);
  }
  return best;
}

// Checks one ShortestPathBetween call against the reference, bit for
// bit; returns the router's step count (0 when it found no path). With
// `reused`, the call assembles into that buffer, still holding whatever
// the previous call left there, instead of returning a fresh Path.
size_t ExpectSameConnection(const RoadNetwork& net, const Router& router,
                            const EdgePosition& from, const EdgePosition& to,
                            Path* reused = nullptr) {
  const ExpectedConnection want = ReferenceBetween(net, from, to);
  Path fresh;
  bool found = false;
  if (reused != nullptr) {
    found = router.ShortestPathBetween(from, to, reused).ok();
  } else if (Result<Path> r = router.ShortestPathBetween(from, to); r.ok()) {
    found = true;
    fresh = *std::move(r);
  }
  const Path& got = reused != nullptr ? *reused : fresh;
  const auto where = [&] {
    return testing::Message()
           << "edge " << from.edge << " @" << from.arc_length_m
           << " -> edge " << to.edge << " @" << to.arc_length_m
           << (reused != nullptr ? " (reused buffer)" : "");
  };
  EXPECT_EQ(want.found, found) << where();
  if (!want.found || !found) return 0;
  EXPECT_EQ(std::bit_cast<uint64_t>(want.length_m),
            std::bit_cast<uint64_t>(got.length_m))
      << where();
  EXPECT_EQ(want.steps.size(), got.steps.size()) << where();
  for (size_t i = 0; i < std::min(want.steps.size(), got.steps.size());
       ++i) {
    EXPECT_EQ(want.steps[i].edge, got.steps[i].edge)
        << "step " << i << ", " << where();
    EXPECT_EQ(want.steps[i].forward, got.steps[i].forward)
        << "step " << i << ", " << where();
  }
  const std::vector<geo::EnPoint>& want_pts = want.geometry.points();
  const std::vector<geo::EnPoint>& got_pts = got.geometry.points();
  EXPECT_EQ(want_pts.size(), got_pts.size()) << where();
  for (size_t i = 0; i < std::min(want_pts.size(), got_pts.size()); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(want_pts[i].x),
              std::bit_cast<uint64_t>(got_pts[i].x))
        << "point " << i << ", " << where();
    EXPECT_EQ(std::bit_cast<uint64_t>(want_pts[i].y),
              std::bit_cast<uint64_t>(got_pts[i].y))
        << "point " << i << ", " << where();
  }
  return got.steps.size();
}

// What a reused buffer held before each call of a sweep: how many calls
// found it holding a longer path than the one they built, and how many
// came right after a call that found no path.
struct ReuseTally {
  size_t previous_points = 0;
  bool previous_failed = false;
  int after_longer = 0;
  int after_not_found = 0;

  void Record(const Path& buffer, size_t steps) {
    const bool failed = steps == 0;
    if (!failed) {
      after_longer += previous_points > buffer.geometry.size() ? 1 : 0;
      after_not_found += previous_failed ? 1 : 0;
    }
    previous_points = failed ? 0 : buffer.geometry.size();
    previous_failed = failed;
  }
};

using PositionPair = std::pair<EdgePosition, EdgePosition>;

// Checks every pair against the reference twice: through the
// Result-returning call, then through one Path buffer that every call
// reuses. Calls on_call(from, to, steps) after each check; returns what
// the reused buffer held before its calls.
template <typename OnCall>
ReuseTally SweepTwice(const RoadNetwork& net, const Router& router,
                      const std::vector<PositionPair>& pairs,
                      OnCall on_call) {
  for (const auto& [from, to] : pairs) {
    on_call(from, to, ExpectSameConnection(net, router, from, to));
  }
  Path buffer;
  ReuseTally reuse;
  for (const auto& [from, to] : pairs) {
    const size_t steps = ExpectSameConnection(net, router, from, to, &buffer);
    reuse.Record(buffer, steps);
    on_call(from, to, steps);
  }
  return reuse;
}

// Arcs at both ends (where projections clamp, and the direct path ties
// exactly with leaving the edge and re-entering it at the same vertex),
// beyond them (clamped), and strictly inside.
std::vector<double> ProbeArcs(double length_m) {
  return {-5.0,           0.0,           0.3 * length_m, 0.5 * length_m,
          0.7 * length_m, length_m,      length_m + 5.0};
}

// Random same-edge and adjacent-edge connections on the generated city,
// whose one-way streets force backward moves to loop round the block.
TEST(RouterEquivalenceTest, BetweenPositionsMatchesReferenceOnCity) {
  const RoadNetwork& net = TestMap().network;
  const Router router(&net);
  const auto m = static_cast<int64_t>(net.num_edges());
  Rng rng(13579);
  std::vector<PositionPair> pairs;
  for (int i = 0; i < 150; ++i) {
    const Edge& e = net.edge(static_cast<EdgeId>(rng.UniformInt(0, m - 1)));
    // Loop edges (both ends one vertex) are left out: a route through
    // the search that leaves or enters one is always reported as
    // leaving forward or entering at `from`, whichever way its cost was
    // counted, so its steps and geometry can disagree with the
    // reference. The benchmark's reference digests pin that defect.
    const auto is_loop = [&](EdgeId id) {
      return net.edge(id).from == net.edge(id).to;
    };
    if (is_loop(e.id)) continue;
    // The destination is the same edge, or one sharing a vertex with it.
    std::vector<EdgeId> targets = {e.id};
    for (const VertexId v : {e.from, e.to}) {
      for (const HalfEdge& arc : net.OutArcs(v)) {
        if (arc.edge != e.id && !is_loop(arc.edge)) {
          targets.push_back(arc.edge);
        }
      }
    }
    const EdgeId target = targets[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(targets.size()) - 1))];
    for (const double a : ProbeArcs(e.length_m)) {
      for (const double b : ProbeArcs(net.edge(target).length_m)) {
        pairs.emplace_back(EdgePosition{e.id, a}, EdgePosition{target, b});
      }
    }
  }
  int direct = 0;
  int one_way_backward = 0;
  const ReuseTally reuse = SweepTwice(
      net, router, pairs,
      [&](const EdgePosition& from, const EdgePosition& to, size_t steps) {
        const bool same_edge = from.edge == to.edge;
        direct += same_edge && steps == 1 ? 1 : 0;
        one_way_backward += same_edge && to.arc_length_m < from.arc_length_m &&
                                    !net.CanTraverse(from.edge, false)
                                ? 1
                                : 0;
      });
  EXPECT_GT(one_way_backward, 0);
  EXPECT_GT(reuse.after_longer, 0);
  const RouterStats stats = router.stats();
  EXPECT_GT(stats.direct_connections, 0);
  EXPECT_LE(stats.direct_connections, direct);
  EXPECT_EQ(stats.searches + stats.direct_connections,
            static_cast<int64_t>(2 * pairs.size()));
}

Edge MakeEdge(VertexId from, VertexId to, std::vector<geo::EnPoint> pts,
              TravelDirection direction) {
  Edge e;
  e.from = from;
  e.to = to;
  e.geometry = geo::Polyline(std::move(pts));
  e.direction = direction;
  return e;
}

// Every pair of positions on a hand-built network: a one-way square
// (backward moves loop round), two-way dead-end spurs (U-turns at the
// end tie exactly with the direct path at arc L), a one-way edge
// against its geometry, winding two-way edges whose endpoints are
// joined by a shorter straight street, so a long move along one must
// leave and re-enter through the search, and a one-way dead end that
// nothing is reachable from.
TEST(RouterEquivalenceTest, BetweenPositionsMatchesReferenceOnLayouts) {
  RoadNetwork net(geo::LatLon{65.0121, 25.4682});
  const VertexId v0 = net.AddVertex({0, 0}, true);
  const VertexId v1 = net.AddVertex({100, 0}, true);
  const VertexId v2 = net.AddVertex({100, 100}, true);
  const VertexId v3 = net.AddVertex({0, 100}, true);
  const VertexId v4 = net.AddVertex({230, 0}, false);
  const VertexId v5 = net.AddVertex({100, 260}, false);
  const VertexId v6 = net.AddVertex({230, 90}, false);
  constexpr TravelDirection kFwd = TravelDirection::kForward;
  constexpr TravelDirection kBoth = TravelDirection::kBoth;
  net.AddEdge(MakeEdge(v0, v1, {{0, 0}, {100, 0}}, kFwd));
  net.AddEdge(MakeEdge(v1, v2, {{100, 0}, {100, 100}}, kFwd));
  net.AddEdge(MakeEdge(v2, v3, {{100, 100}, {0, 100}}, kFwd));
  net.AddEdge(MakeEdge(v3, v0, {{0, 100}, {0, 0}}, kFwd));
  net.AddEdge(MakeEdge(v1, v4, {{100, 0}, {230, 0}}, kBoth));
  net.AddEdge(
      MakeEdge(v2, v5, {{100, 100}, {140, 170}, {90, 210}, {100, 260}},
               kBoth));
  net.AddEdge(MakeEdge(v3, v5, {{0, 100}, {20, 200}, {100, 260}},
                       TravelDirection::kBackward));
  net.AddEdge(MakeEdge(v4, v6, {{230, 0}, {230, 90}}, kFwd));
  // Two winding edges: the short street joins the first's ends from
  // `from` to `to` (re-entering backward beats a long forward move) and
  // the second's from `to` to `from` (re-entering forward beats a long
  // backward move).
  const EdgeId winding_a = net.AddEdge(MakeEdge(
      v0, v1, {{0, 0}, {10, -90}, {50, -130}, {90, -90}, {100, 0}}, kBoth));
  const EdgeId winding_b = net.AddEdge(MakeEdge(
      v3, v2, {{0, 100}, {10, 190}, {50, 230}, {90, 190}, {100, 100}},
      kBoth));

  const Router router(&net);
  std::vector<PositionPair> pairs;
  net.ForEachEdge([&](const Edge& from_edge) {
    net.ForEachEdge([&](const Edge& to_edge) {
      for (const double a : ProbeArcs(from_edge.length_m)) {
        for (const double b : ProbeArcs(to_edge.length_m)) {
          pairs.emplace_back(EdgePosition{from_edge.id, a},
                             EdgePosition{to_edge.id, b});
        }
      }
    });
  });
  int direct = 0;
  bool winding_a_searched = false;
  bool winding_b_searched = false;
  const ReuseTally reuse = SweepTwice(
      net, router, pairs,
      [&](const EdgePosition& from, const EdgePosition& to, size_t steps) {
        const bool same_edge = from.edge == to.edge;
        direct += same_edge && steps == 1 ? 1 : 0;
        winding_a_searched |= same_edge && from.edge == winding_a && steps > 1;
        winding_b_searched |= same_edge && from.edge == winding_b && steps > 1;
      });
  EXPECT_TRUE(winding_a_searched);
  EXPECT_TRUE(winding_b_searched);
  EXPECT_GT(reuse.after_longer, 0);
  EXPECT_GT(reuse.after_not_found, 0);
  const RouterStats stats = router.stats();
  EXPECT_GT(stats.direct_connections, 0);
  EXPECT_LE(stats.direct_connections, direct);
  EXPECT_EQ(stats.searches + stats.direct_connections,
            static_cast<int64_t>(2 * pairs.size()));
}

}  // namespace
}  // namespace roadnet
}  // namespace taxitrace
