#include "taxitrace/roadnet/connectivity.h"

#include <algorithm>

namespace taxitrace {
namespace roadnet {
namespace {

// Directed out-neighbours of `v` under the travel constraints.
// `reversed` flips every arc (for Kosaraju's second pass).
std::vector<VertexId> OutNeighbours(const RoadNetwork& network, VertexId v,
                                    bool reversed) {
  std::vector<VertexId> out;
  for (const HalfEdge& arc : network.OutArcs(v)) {
    const bool traversable =
        reversed ? arc.traversable_in : arc.traversable_out;
    if (traversable) out.push_back(arc.head);
  }
  return out;
}

// Iterative DFS collecting vertices in postorder. `visited` is indexed
// by vertex id.
void PostorderDfs(const RoadNetwork& network, VertexId start,
                  std::vector<bool>* visited,
                  std::vector<VertexId>* postorder) {
  std::vector<std::pair<VertexId, size_t>> stack;
  stack.emplace_back(start, 0);
  (*visited)[static_cast<size_t>(start)] = true;
  while (!stack.empty()) {
    auto& [v, next] = stack.back();
    const std::vector<VertexId> neighbours =
        OutNeighbours(network, v, false);
    if (next < neighbours.size()) {
      const VertexId w = neighbours[next++];
      if (!(*visited)[static_cast<size_t>(w)]) {
        (*visited)[static_cast<size_t>(w)] = true;
        stack.emplace_back(w, 0);
      }
    } else {
      postorder->push_back(v);
      stack.pop_back();
    }
  }
}

}  // namespace

std::vector<int> WeakComponents(const RoadNetwork& network) {
  const size_t n = network.num_vertices();
  std::vector<int> label(n, -1);
  int next_label = 0;
  for (size_t start = 0; start < n; ++start) {
    if (label[start] >= 0) continue;
    std::vector<VertexId> stack{static_cast<VertexId>(start)};
    label[start] = next_label;
    while (!stack.empty()) {
      const VertexId v = stack.back();
      stack.pop_back();
      for (const HalfEdge& arc : network.OutArcs(v)) {
        const VertexId w = arc.head;
        if (label[static_cast<size_t>(w)] < 0) {
          label[static_cast<size_t>(w)] = next_label;
          stack.push_back(w);
        }
      }
    }
    ++next_label;
  }
  return label;
}

int CountWeakComponents(const RoadNetwork& network) {
  const std::vector<int> labels = WeakComponents(network);
  return labels.empty()
             ? 0
             : *std::max_element(labels.begin(), labels.end()) + 1;
}

std::vector<VertexId> LargestStronglyConnectedComponent(
    const RoadNetwork& network) {
  const size_t n = network.num_vertices();
  if (n == 0) return {};
  // Kosaraju pass 1: postorder of the forward graph.
  std::vector<bool> visited(n, false);
  std::vector<VertexId> postorder;
  postorder.reserve(n);
  for (size_t v = 0; v < n; ++v) {
    if (!visited[v]) {
      PostorderDfs(network, static_cast<VertexId>(v), &visited, &postorder);
    }
  }
  // Pass 2: traverse the reversed graph in reverse postorder.
  std::vector<int> component(n, -1);
  int next_component = 0;
  for (auto it = postorder.rbegin(); it != postorder.rend(); ++it) {
    if (component[static_cast<size_t>(*it)] >= 0) continue;
    std::vector<VertexId> stack{*it};
    component[static_cast<size_t>(*it)] = next_component;
    while (!stack.empty()) {
      const VertexId v = stack.back();
      stack.pop_back();
      for (VertexId w : OutNeighbours(network, v, true)) {
        if (component[static_cast<size_t>(w)] < 0) {
          component[static_cast<size_t>(w)] = next_component;
          stack.push_back(w);
        }
      }
    }
    ++next_component;
  }
  // Largest component.
  std::vector<int> sizes(static_cast<size_t>(next_component), 0);
  for (int c : component) ++sizes[static_cast<size_t>(c)];
  const int best = static_cast<int>(
      std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
  std::vector<VertexId> out;
  for (size_t v = 0; v < n; ++v) {
    if (component[v] == best) out.push_back(static_cast<VertexId>(v));
  }
  return out;
}

ConnectivityReport AnalyzeConnectivity(const RoadNetwork& network) {
  ConnectivityReport report;
  report.num_vertices = static_cast<int>(network.num_vertices());
  report.weak_components = CountWeakComponents(network);
  report.largest_scc_size =
      static_cast<int>(LargestStronglyConnectedComponent(network).size());
  report.scc_coverage =
      report.num_vertices > 0
          ? static_cast<double>(report.largest_scc_size) /
                static_cast<double>(report.num_vertices)
          : 0.0;
  return report;
}

}  // namespace roadnet
}  // namespace taxitrace
