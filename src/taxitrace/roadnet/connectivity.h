// Connectivity diagnostics for prepared networks: weak connectivity of
// the undirected graph and strong connectivity under the one-way
// constraints (a drivable network must let every street reach every
// other street).
//
// tt-lint: allow-file(test-only-module): the check that the generated
// city is drivable (ConnectivityTest.GeneratedCityIsDrivable) guards
// every study's input map.

#ifndef TAXITRACE_ROADNET_CONNECTIVITY_H_
#define TAXITRACE_ROADNET_CONNECTIVITY_H_

#include <vector>

#include "taxitrace/roadnet/road_network.h"

namespace taxitrace {
namespace roadnet {

/// Component label per vertex id, ignoring travel direction. Labels
/// are 0..k-1 by discovery order.
std::vector<int> WeakComponents(const RoadNetwork& network);

/// Number of weakly connected components.
int CountWeakComponents(const RoadNetwork& network);

/// Vertices of the largest strongly connected component under the
/// one-way constraints (Kosaraju), ascending vertex ids.
std::vector<VertexId> LargestStronglyConnectedComponent(
    const RoadNetwork& network);

/// Connectivity summary for validation / reporting.
struct ConnectivityReport {
  int num_vertices = 0;
  int weak_components = 0;
  int largest_scc_size = 0;
  /// Fraction of vertices inside the largest SCC.
  double scc_coverage = 0.0;
};

/// Computes the summary.
ConnectivityReport AnalyzeConnectivity(const RoadNetwork& network);

}  // namespace roadnet
}  // namespace taxitrace

#endif  // TAXITRACE_ROADNET_CONNECTIVITY_H_
