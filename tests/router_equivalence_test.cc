// Property test for the routing overhaul: the production Router (CSR
// adjacency, generation-stamped scratch, goal-directed A* with Dijkstra
// fallback) must return the same paths as a plain textbook Dijkstra —
// identical step sequences and lengths, not just equal costs — across
// hundreds of random OD pairs, with and without edge cost multipliers.
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
#include <functional>
#include <limits>
#include <queue>
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

// Multipliers >= 1 keep the straight-line heuristic admissible: the
// router must stay goal-directed and still agree with the reference.
TEST(RouterEquivalenceTest, MatchesReferenceWithInflatingMultipliers) {
  const RoadNetwork& net = TestMap().network;
  const Router router(&net);
  const auto n = static_cast<int64_t>(net.num_vertices());
  Rng rng(5678);
  std::vector<double> multiplier(net.num_edges());
  for (double& m : multiplier) m = rng.Uniform(1.0, 1.8);
  for (int i = 0; i < 110; ++i) {
    const auto from = static_cast<VertexId>(rng.UniformInt(0, n - 1));
    const auto to = static_cast<VertexId>(rng.UniformInt(0, n - 1));
    ExpectSamePath(ReferenceDijkstra(net, from, to, &multiplier),
                   router.ShortestPath(from, to, &multiplier), from, to);
  }
  EXPECT_EQ(router.stats().goal_directed_searches, router.stats().searches);
}

// A single multiplier below 1 breaks admissibility; the router must
// fall back to plain Dijkstra (goal_directed_searches stays 0) and the
// paths must still match the reference run with the same costs.
TEST(RouterEquivalenceTest, MatchesReferenceUnderDijkstraFallback) {
  const RoadNetwork& net = TestMap().network;
  const Router router(&net);
  const auto n = static_cast<int64_t>(net.num_vertices());
  Rng rng(9876);
  std::vector<double> multiplier(net.num_edges());
  for (double& m : multiplier) m = rng.Uniform(0.6, 1.5);
  for (int i = 0; i < 110; ++i) {
    const auto from = static_cast<VertexId>(rng.UniformInt(0, n - 1));
    const auto to = static_cast<VertexId>(rng.UniformInt(0, n - 1));
    ExpectSamePath(ReferenceDijkstra(net, from, to, &multiplier),
                   router.ShortestPath(from, to, &multiplier), from, to);
  }
  EXPECT_GT(router.stats().searches, 0);
  EXPECT_EQ(router.stats().goal_directed_searches, 0);
}

// The same multipliers served through the EdgeCostModel interface (the
// lazy-noise hook the simulator uses) must reproduce the vector
// overload's paths step for step. With inflating multipliers both
// overloads run the identical unscaled A*; with sub-unity multipliers
// the vector overload falls back to Dijkstra while the model overload
// keeps a MinMultiplier()-scaled (still admissible) heuristic — the
// costs are the same either way, so so are the shortest paths.
class VectorCostModel final : public EdgeCostModel {
 public:
  explicit VectorCostModel(const std::vector<double>* mult)
      : mult_(mult),
        min_(*std::min_element(mult->begin(), mult->end())) {}
  double Multiplier(EdgeId edge) const override {
    return (*mult_)[static_cast<size_t>(edge)];
  }
  double MinMultiplier() const override { return min_; }

 private:
  const std::vector<double>* mult_;
  double min_;
};

TEST(RouterEquivalenceTest, CostModelMatchesVectorOverload) {
  const RoadNetwork& net = TestMap().network;
  const Router router(&net);
  const auto n = static_cast<int64_t>(net.num_vertices());
  Rng rng(24680);
  std::vector<double> multiplier(net.num_edges());
  for (const auto& [lo, hi] : {std::pair<double, double>{1.0, 1.8},
                               std::pair<double, double>{0.6, 1.5}}) {
    for (double& m : multiplier) m = rng.Uniform(lo, hi);
    const VectorCostModel model(&multiplier);
    for (int i = 0; i < 60; ++i) {
      const auto from = static_cast<VertexId>(rng.UniformInt(0, n - 1));
      const auto to = static_cast<VertexId>(rng.UniformInt(0, n - 1));
      const Result<Path> via_vector =
          router.ShortestPath(from, to, &multiplier);
      const Result<Path> via_model = router.ShortestPath(from, to, model);
      ASSERT_EQ(via_vector.ok(), via_model.ok()) << from << "->" << to;
      if (!via_vector.ok()) continue;
      ASSERT_EQ(via_vector->steps.size(), via_model->steps.size())
          << from << "->" << to;
      for (size_t s = 0; s < via_vector->steps.size(); ++s) {
        EXPECT_EQ(via_vector->steps[s].edge, via_model->steps[s].edge);
        EXPECT_EQ(via_vector->steps[s].forward,
                  via_model->steps[s].forward);
      }
      EXPECT_EQ(via_vector->length_m, via_model->length_m);
    }
  }
  // The model overload never fell back to plain Dijkstra: sub-unity
  // multipliers only scaled its heuristic.
  EXPECT_GT(router.stats().goal_directed_searches, 0);
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

// Checks one ShortestPathBetween call against the reference; returns
// the router's step count (0 when it found no path).
size_t ExpectSameConnection(const RoadNetwork& net, const Router& router,
                            const EdgePosition& from,
                            const EdgePosition& to) {
  const ExpectedConnection want = ReferenceBetween(net, from, to);
  const Result<Path> got = router.ShortestPathBetween(from, to);
  const auto where = [&] {
    return testing::Message()
           << "edge " << from.edge << " @" << from.arc_length_m
           << " -> edge " << to.edge << " @" << to.arc_length_m;
  };
  EXPECT_EQ(want.found, got.ok()) << where();
  if (!want.found || !got.ok()) return 0;
  EXPECT_EQ(want.length_m, got->length_m) << where();
  EXPECT_EQ(want.steps.size(), got->steps.size()) << where();
  for (size_t i = 0; i < std::min(want.steps.size(), got->steps.size());
       ++i) {
    EXPECT_EQ(want.steps[i].edge, got->steps[i].edge)
        << "step " << i << ", " << where();
    EXPECT_EQ(want.steps[i].forward, got->steps[i].forward)
        << "step " << i << ", " << where();
  }
  const std::vector<geo::EnPoint>& want_pts = want.geometry.points();
  const std::vector<geo::EnPoint>& got_pts = got->geometry.points();
  EXPECT_EQ(want_pts.size(), got_pts.size()) << where();
  for (size_t i = 0; i < std::min(want_pts.size(), got_pts.size()); ++i) {
    EXPECT_EQ(want_pts[i].x, got_pts[i].x) << "point " << i << ", " << where();
    EXPECT_EQ(want_pts[i].y, got_pts[i].y) << "point " << i << ", " << where();
  }
  return got->steps.size();
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
  int64_t calls = 0;
  int direct = 0;
  int one_way_backward = 0;
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
    const std::vector<double> from_arcs = ProbeArcs(e.length_m);
    const std::vector<double> to_arcs = ProbeArcs(net.edge(target).length_m);
    for (const double a : from_arcs) {
      for (const double b : to_arcs) {
        const size_t steps = ExpectSameConnection(
            net, router, EdgePosition{e.id, a}, EdgePosition{target, b});
        direct += target == e.id && steps == 1 ? 1 : 0;
        ++calls;
        one_way_backward += target == e.id && b < a &&
                                    !net.CanTraverse(e.id, false)
                                ? 1
                                : 0;
      }
    }
  }
  EXPECT_GT(one_way_backward, 0);
  const RouterStats stats = router.stats();
  EXPECT_GT(stats.direct_connections, 0);
  EXPECT_LE(stats.direct_connections, direct);
  EXPECT_EQ(stats.searches + stats.direct_connections, calls);
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
// against its geometry, and winding two-way edges whose endpoints are
// joined by a shorter straight street, so a long move along one must
// leave and re-enter through the search.
TEST(RouterEquivalenceTest, BetweenPositionsMatchesReferenceOnLayouts) {
  RoadNetwork net(geo::LatLon{65.0121, 25.4682});
  const VertexId v0 = net.AddVertex({0, 0}, true);
  const VertexId v1 = net.AddVertex({100, 0}, true);
  const VertexId v2 = net.AddVertex({100, 100}, true);
  const VertexId v3 = net.AddVertex({0, 100}, true);
  const VertexId v4 = net.AddVertex({230, 0}, false);
  const VertexId v5 = net.AddVertex({100, 260}, false);
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
  int64_t calls = 0;
  int direct = 0;
  bool winding_a_searched = false;
  bool winding_b_searched = false;
  net.ForEachEdge([&](const Edge& from_edge) {
    net.ForEachEdge([&](const Edge& to_edge) {
      for (const double a : ProbeArcs(from_edge.length_m)) {
        for (const double b : ProbeArcs(to_edge.length_m)) {
          const size_t steps = ExpectSameConnection(
              net, router, EdgePosition{from_edge.id, a},
              EdgePosition{to_edge.id, b});
          const bool same_edge = from_edge.id == to_edge.id;
          direct += same_edge && steps == 1 ? 1 : 0;
          winding_a_searched |=
              same_edge && from_edge.id == winding_a && steps > 1;
          winding_b_searched |=
              same_edge && from_edge.id == winding_b && steps > 1;
          ++calls;
        }
      }
    });
  });
  EXPECT_TRUE(winding_a_searched);
  EXPECT_TRUE(winding_b_searched);
  const RouterStats stats = router.stats();
  EXPECT_GT(stats.direct_connections, 0);
  EXPECT_LE(stats.direct_connections, direct);
  EXPECT_EQ(stats.searches + stats.direct_connections, calls);
}

}  // namespace
}  // namespace roadnet
}  // namespace taxitrace
