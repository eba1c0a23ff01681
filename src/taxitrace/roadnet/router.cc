#include "taxitrace/roadnet/router.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <utility>

#include "taxitrace/common/strings.h"
#include "taxitrace/geo/geometry.h"

namespace taxitrace {
namespace roadnet {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Slack on the straight-line bound behind ShortestPathBetween's direct
// connection: far above the rounding of any summed path length, far
// below any length difference the callers resolve.
constexpr double kDirectMarginM = 1e-6;

// Adds one finished search's work to its worker's tallies.
void CountSearch(SearchScratch& scratch, int64_t heap_pops, int64_t settled,
                 bool goal_directed) {
  SearchTallies& t = scratch.tallies;
  t.searches.Add(1);
  t.heap_pops.Add(heap_pops);
  t.settled_vertices.Add(settled);
  if (goal_directed) t.goal_directed_searches.Add(1);
}

}  // namespace

Router::Router(const RoadNetwork* network)
    : network_(network),
      scratch_(std::make_shared<WorkerLocal<SearchScratch>>()) {
  // First CSR touch happens here, on the constructing thread, so the
  // network can be read concurrently afterwards.
  network_->WarmAdjacency();
}

SearchScratch& Router::Search(
    const std::vector<std::pair<VertexId, double>>& seeds,
    VertexId stop_at_both_a, VertexId stop_at_both_b,
    const std::vector<double>* edge_cost_multiplier) const {
  // Goal-directed (A*) needs known targets and an admissible heuristic:
  // every edge's cost must be >= its straight-line endpoint distance,
  // which holds exactly when no multiplier shrinks a length. The scan
  // exits on the first shrinking entry, so the common simulated-driver
  // vectors (noise around 1.0) reject in a handful of reads.
  bool goal_directed =
      stop_at_both_a != kInvalidVertex && stop_at_both_b != kInvalidVertex;
  if (goal_directed && edge_cost_multiplier != nullptr) {
    for (const double m : *edge_cost_multiplier) {
      if (m < 1.0) {
        goal_directed = false;
        break;
      }
    }
  }
  return SearchImpl(seeds, stop_at_both_a, stop_at_both_b, goal_directed,
                    /*heuristic_scale=*/1.0, [&](EdgeId edge) {
                      // Multiplier vectors are indexed by edge id.
                      return edge_cost_multiplier == nullptr
                                 ? 1.0
                                 : (*edge_cost_multiplier)[static_cast<
                                       size_t>(edge)];
                    });
}

template <typename MultiplierFn>
SearchScratch& Router::SearchImpl(
    const std::vector<std::pair<VertexId, double>>& seeds,
    VertexId stop_at_both_a, VertexId stop_at_both_b, bool goal_directed,
    double heuristic_scale, MultiplierFn multiplier) const {
  SearchScratch& scratch = scratch_->Local();
  scratch.BeginSearch(*network_);

  geo::EnPoint goal_a{};
  geo::EnPoint goal_b{};
  if (goal_directed) {
    goal_a = network_->vertex(stop_at_both_a).position;
    goal_b = network_->vertex(stop_at_both_b).position;
  }
  // Lower bound on the remaining cost to the nearer goal; the minimum
  // of two consistent heuristics scaled by a constant <= the smallest
  // multiplier, hence itself consistent: vertices settle with final
  // distances, in non-decreasing key order. heuristic_scale == 1 (the
  // multiplier-free and >=1-vector cases) multiplies exactly, so the
  // historical heap order is preserved bit for bit.
  const auto heuristic = [&](VertexId v) {
    const geo::EnPoint& p = network_->vertex(v).position;
    return heuristic_scale *
           std::min(geo::Distance(p, goal_a), geo::Distance(p, goal_b));
  };

  // Seed phase. Two seeds can name the same vertex (e.g. both ends of a
  // self-loop edge); keep the cheaper cost and push one heap entry per
  // distinct vertex instead of queueing a doomed stale duplicate.
  for (const auto& [v, cost] : seeds) {
    if (!scratch.Visited(v) || cost < scratch.RawDist(v)) {
      scratch.Relax(v, cost, kInvalidEdge, kInvalidVertex);
    }
  }
  for (size_t i = 0; i < seeds.size(); ++i) {
    const VertexId v = seeds[i].first;
    bool duplicate = false;
    for (size_t j = 0; j < i; ++j) duplicate |= seeds[j].first == v;
    if (duplicate) continue;
    const double cost = scratch.RawDist(v);
    scratch.heap.push_back(SearchHeapEntry{
        goal_directed ? cost + heuristic(v) : cost, cost, v});
    std::push_heap(scratch.heap.begin(), scratch.heap.end(),
                   std::greater<SearchHeapEntry>{});
  }

  bool settled_a = stop_at_both_a == kInvalidVertex;
  bool settled_b = stop_at_both_b == kInvalidVertex;
  int64_t heap_pops = 0;
  int64_t settled = 0;
  while (!scratch.heap.empty()) {
    std::pop_heap(scratch.heap.begin(), scratch.heap.end(),
                  std::greater<SearchHeapEntry>{});
    const SearchHeapEntry top = scratch.heap.back();
    scratch.heap.pop_back();
    ++heap_pops;
    if (top.dist > scratch.RawDist(top.vertex)) continue;  // stale entry
    ++settled;
    if (top.vertex == stop_at_both_a) settled_a = true;
    if (top.vertex == stop_at_both_b) settled_b = true;
    if (settled_a && settled_b) break;

    for (const HalfEdge& arc : network_->OutArcs(top.vertex)) {
      if (!arc.traversable_out) continue;
      const double mult = multiplier(arc.edge);
      const double nd = top.dist + arc.length_m * mult;
      if (nd < scratch.Dist(arc.head)) {
        scratch.Relax(arc.head, nd, arc.edge, top.vertex);
        scratch.heap.push_back(SearchHeapEntry{
            goal_directed ? nd + heuristic(arc.head) : nd, nd, arc.head});
        std::push_heap(scratch.heap.begin(), scratch.heap.end(),
                       std::greater<SearchHeapEntry>{});
      }
    }
  }
  CountSearch(scratch, heap_pops, settled, goal_directed);
  return scratch;
}

RouterStats Router::stats() const {
  RouterStats s;
  scratch_->ForEach([&s](const SearchScratch& scratch) {
    const SearchTallies& t = scratch.tallies;
    s.searches += t.searches.value();
    s.heap_pops += t.heap_pops.value();
    s.settled_vertices += t.settled_vertices.value();
    s.goal_directed_searches += t.goal_directed_searches.value();
    s.direct_connections += t.direct_connections.value();
  });
  return s;
}

Result<Path> Router::BuildVertexPath(const SearchScratch& res, VertexId from,
                                     VertexId to) const {
  if (!(res.Dist(to) < kInf)) {
    return Status::NotFound(
        StrFormat("no path from vertex %d to %d", from, to));
  }
  Path path;
  path.length_m = 0.0;
  // Walk predecessors back to the source.
  std::vector<std::pair<EdgeId, bool>> rev;
  VertexId v = to;
  while (v != from) {
    const EdgeId e = res.PrevEdge(v);
    const VertexId p = res.PrevVertex(v);
    rev.emplace_back(e, network_->edge(e).from == p);
    v = p;
  }
  for (auto it = rev.rbegin(); it != rev.rend(); ++it) {
    path.steps.push_back(PathStep{it->first, it->second});
    const Edge& e = network_->edge(it->first);
    path.length_m += e.length_m;
    path.geometry.Extend(it->second ? e.geometry : e.geometry.Reversed());
  }
  if (path.steps.empty()) {
    // from == to: a zero-length path anchored at the vertex.
    const geo::EnPoint p = network_->vertex(from).position;
    path.geometry = geo::Polyline({p, p});
  }
  return path;
}

Result<Path> Router::ShortestPath(
    VertexId from, VertexId to,
    const std::vector<double>* edge_cost_multiplier) const {
  if (!network_->HasVertex(from) || !network_->HasVertex(to)) {
    return Status::InvalidArgument("vertex id out of range");
  }
  if (edge_cost_multiplier != nullptr &&
      edge_cost_multiplier->size() != network_->num_edges()) {
    return Status::InvalidArgument("edge cost multiplier size mismatch");
  }
  const SearchScratch& res =
      Search({{from, 0.0}}, to, to, edge_cost_multiplier);
  return BuildVertexPath(res, from, to);
}

Result<Path> Router::ShortestPath(VertexId from, VertexId to,
                                  const EdgeCostModel& cost) const {
  if (!network_->HasVertex(from) || !network_->HasVertex(to)) {
    return Status::InvalidArgument("vertex id out of range");
  }
  const double min_mult = cost.MinMultiplier();
  // min_mult > 0 keeps the scaled straight-line bound admissible; the
  // scale never exceeds 1 so multiplier-free models keep the exact
  // historical A* order.
  const bool goal_directed = min_mult > 0.0;
  const double heuristic_scale = std::min(1.0, min_mult);
  const SearchScratch& res = SearchImpl(
      {{from, 0.0}}, to, to, goal_directed, heuristic_scale,
      [&cost](EdgeId edge) { return cost.Multiplier(edge); });
  return BuildVertexPath(res, from, to);
}

double Router::BoundedVertexDistance(VertexId from, VertexId to,
                                     double limit_m) const {
  if (!network_->HasVertex(from) || !network_->HasVertex(to)) {
    return kInf;
  }
  SearchScratch& scratch = scratch_->Local();
  scratch.BeginSearch(*network_);
  const geo::EnPoint goal = network_->vertex(to).position;
  const auto heuristic = [&](VertexId v) {
    return geo::Distance(network_->vertex(v).position, goal);
  };

  scratch.Relax(from, 0.0, kInvalidEdge, kInvalidVertex);
  scratch.heap.push_back(SearchHeapEntry{heuristic(from), 0.0, from});

  double found = kInf;
  int64_t heap_pops = 0;
  int64_t settled = 0;
  while (!scratch.heap.empty()) {
    std::pop_heap(scratch.heap.begin(), scratch.heap.end(),
                  std::greater<SearchHeapEntry>{});
    const SearchHeapEntry top = scratch.heap.back();
    scratch.heap.pop_back();
    ++heap_pops;
    // The heuristic is consistent, so popped keys never decrease and
    // key <= true remaining distance of any future settle: once the
    // frontier passes limit_m the target cannot be closer than that.
    if (top.key > limit_m) break;
    if (top.dist > scratch.RawDist(top.vertex)) continue;  // stale entry
    ++settled;
    if (top.vertex == to) {
      found = top.dist;
      break;
    }
    for (const HalfEdge& arc : network_->OutArcs(top.vertex)) {
      if (!arc.traversable_out) continue;
      const double nd = top.dist + arc.length_m;
      if (nd < scratch.Dist(arc.head)) {
        scratch.Relax(arc.head, nd, arc.edge, top.vertex);
        scratch.heap.push_back(
            SearchHeapEntry{nd + heuristic(arc.head), nd, arc.head});
        std::push_heap(scratch.heap.begin(), scratch.heap.end(),
                       std::greater<SearchHeapEntry>{});
      }
    }
  }
  CountSearch(scratch, heap_pops, settled, /*goal_directed=*/true);
  return found;
}

Result<Path> Router::ShortestPathBetween(const EdgePosition& from,
                                         const EdgePosition& to) const {
  if (!network_->HasEdge(from.edge) || !network_->HasEdge(to.edge)) {
    return Status::InvalidArgument("edge id out of range");
  }
  // A NaN arc would key the search heap with NaN, breaking its order;
  // an infinite one would clamp silently to an edge end.
  if (!std::isfinite(from.arc_length_m) || !std::isfinite(to.arc_length_m)) {
    return Status::InvalidArgument("arc length is not finite");
  }
  const Edge& fe = network_->edge(from.edge);
  const Edge& te = network_->edge(to.edge);
  const double from_arc = std::clamp(from.arc_length_m, 0.0, fe.length_m);
  const double to_arc = std::clamp(to.arc_length_m, 0.0, te.length_m);
  const bool leave_fwd = network_->CanTraverse(from.edge, true);
  const bool leave_bwd = network_->CanTraverse(from.edge, false);

  // Option 0: stay on the shared edge.
  double direct_cost = kInf;
  bool direct_forward = true;
  if (from.edge == to.edge) {
    if (to_arc >= from_arc && leave_fwd) {
      direct_cost = to_arc - from_arc;
      direct_forward = true;
    }
    if (from_arc >= to_arc && leave_bwd) {
      const double c = from_arc - to_arc;
      if (c < direct_cost) {
        direct_cost = c;
        direct_forward = false;
      }
    }
  }
  const auto direct_path = [&] {
    Path path;
    path.length_m = direct_cost;
    path.steps.push_back(PathStep{from.edge, direct_forward});
    path.geometry = fe.geometry.SubLine(from_arc, to_arc,
                                        network_->SegmentLengths(from.edge));
    return path;
  };

  // With a = from_arc, b = to_arc and L the edge's length, every other
  // route leaves the edge at one end and re-enters it at one end. Back
  // at the vertex it left, it costs at least exit + entry (a + b, or
  // (L - a) + (L - b)), never below |b - a| = direct_cost,
  // also after monotone rounding, and ties go direct as
  // `best == direct_cost` does below. At the other vertex it costs at
  // least exit + the straight line between the edge's vertices + entry
  // (every edge is at least as long as its chord, as the A* heuristic
  // assumes); the margin absorbs the rounding of the search's sums.
  if (direct_cost < kInf) {
    const double chord = geo::Distance(network_->vertex(fe.from).position,
                                       network_->vertex(fe.to).position);
    const double round_forward =
        leave_fwd ? (fe.length_m - from_arc) + chord + to_arc : kInf;
    const double round_backward =
        leave_bwd ? from_arc + chord + (fe.length_m - to_arc) : kInf;
    if (direct_cost <= round_forward - kDirectMarginM &&
        direct_cost <= round_backward - kDirectMarginM) {
      scratch_->Local().tallies.direct_connections.Add(1);
      return direct_path();
    }
  }

  // Options via the graph: leave the source edge at either end, enter the
  // destination edge at either end.
  std::vector<std::pair<VertexId, double>> seeds;
  if (leave_fwd) seeds.emplace_back(fe.to, fe.length_m - from_arc);
  if (leave_bwd) seeds.emplace_back(fe.from, from_arc);

  const SearchScratch* res = nullptr;
  if (!seeds.empty()) res = &Search(seeds, te.from, te.to);

  const auto arrival_cost = [&](VertexId entry) {
    if (res == nullptr) return kInf;
    const double base = res->Dist(entry);
    if (!(base < kInf)) return kInf;
    if (entry == te.from) {
      return network_->CanTraverse(to.edge, true) ? base + to_arc : kInf;
    }
    return network_->CanTraverse(to.edge, false)
               ? base + (te.length_m - to_arc)
               : kInf;
  };
  const double via_from = arrival_cost(te.from);
  const double via_to = arrival_cost(te.to);

  const double best = std::min({direct_cost, via_from, via_to});
  if (!(best < kInf)) {
    return Status::NotFound(StrFormat("no drivable path from edge %d to %d",
                                      from.edge, to.edge));
  }

  if (best == direct_cost) return direct_path();
  Path path;
  path.length_m = best;

  const VertexId entry = via_from <= via_to ? te.from : te.to;
  // Reconstruct the vertex chain back to whichever seed it started from.
  std::vector<std::pair<EdgeId, bool>> rev;
  VertexId v = entry;
  while (res->PrevEdge(v) != kInvalidEdge) {
    const EdgeId e = res->PrevEdge(v);
    const VertexId p = res->PrevVertex(v);
    rev.emplace_back(e, network_->edge(e).from == p);
    v = p;
  }
  const VertexId seed_vertex = v;

  // Partial source edge from the start position to the seed vertex.
  // Known defect, pinned by the benchmark's reference digests: on a
  // loop edge (both ends one vertex) this says forward even when the
  // cheaper backward seed was kept, and the entry below says `te.from`
  // for a loop destination, so steps and geometry can disagree with
  // length_m there.
  const bool leave_forward = seed_vertex == fe.to;
  path.steps.push_back(PathStep{from.edge, leave_forward});
  path.geometry =
      fe.geometry.SubLine(from_arc, leave_forward ? fe.length_m : 0.0,
                          network_->SegmentLengths(from.edge));

  for (auto it = rev.rbegin(); it != rev.rend(); ++it) {
    path.steps.push_back(PathStep{it->first, it->second});
    const geo::Polyline& g = network_->edge(it->first).geometry;
    path.geometry.Extend(it->second ? g : g.Reversed());
  }

  // Partial destination edge from the entry vertex to the end position.
  const bool enter_forward = entry == te.from;
  path.steps.push_back(PathStep{to.edge, enter_forward});
  path.geometry.Extend(te.geometry.SubLine(
      enter_forward ? 0.0 : te.length_m, to_arc,
      network_->SegmentLengths(to.edge)));
  return path;
}

}  // namespace roadnet
}  // namespace taxitrace
