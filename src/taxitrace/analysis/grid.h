// The 200 m x 200 m analysis grid (Section V): even-sized cells, chosen
// to hold enough measurement points per cell while capturing the effect
// of multiple map features.

#ifndef TAXITRACE_ANALYSIS_GRID_H_
#define TAXITRACE_ANALYSIS_GRID_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "taxitrace/common/hash.h"
#include "taxitrace/geo/geometry.h"
#include "taxitrace/roadnet/road_network.h"

namespace taxitrace {
namespace analysis {

/// Integer cell coordinates.
struct CellId {
  int32_t cx = 0;
  int32_t cy = 0;
  friend bool operator==(const CellId&, const CellId&) = default;
};

// Packs both signed coordinates into one word and runs the shared
// splitmix64 finaliser. The previous ad-hoc `cx * phi32 ^ (cy << 16)`
// mix left the low 16 output bits a function of cx alone, so every
// power-of-two bucket count collapsed whole grid columns into one
// bucket on real (structured, signed) grids.
struct CellIdHash {
  size_t operator()(const CellId& c) const {
    return static_cast<size_t>(HashCell2D(c.cx, c.cy));
  }
};

/// A uniform grid anchored at the local-frame origin.
class Grid {
 public:
  explicit Grid(double cell_size_m = 200.0);

  [[nodiscard]] double cell_size_m() const { return cell_size_m_; }

  /// Cell containing a point. Each coordinate divided by the cell size
  /// must floor into int32 range; use TryCellOf for untrusted points.
  [[nodiscard]] CellId CellOf(const geo::EnPoint& p) const;

  /// Cell containing a point, or none when a coordinate is NaN or
  /// infinite or lies beyond the int32 cell lattice (its floor of
  /// coordinate / cell size outside [-2^31, 2^31)).
  [[nodiscard]] std::optional<CellId> TryCellOf(const geo::EnPoint& p) const;

  /// Centre point of a cell.
  [[nodiscard]] geo::EnPoint CellCenter(const CellId& c) const;

  /// Bounds of a cell.
  [[nodiscard]] geo::Bbox CellBounds(const CellId& c) const;

 private:
  double cell_size_m_;
};

/// Streaming per-cell mean/variance of point speeds (Welford).
class CellSpeedAccumulator {
 public:
  explicit CellSpeedAccumulator(const Grid& grid) : grid_(grid) {}

  /// Adds one measured point speed at a position.
  void Add(const geo::EnPoint& position, double speed_kmh);

  /// Folds another accumulator (over the same grid) into this one with
  /// the Chan et al. pairwise moment combination. Each cell's combined
  /// moments depend only on the two inputs, never on traversal order,
  /// but floating-point combination is not associative across *merge
  /// trees*: callers that want byte-identical results at any worker
  /// count must build the same fixed shards and fold them in the same
  /// canonical order regardless of how many threads computed them.
  void Merge(const CellSpeedAccumulator& other);

  /// Accumulated moments of one cell.
  struct Moments {
    int64_t n = 0;
    double mean = 0.0;
    double m2 = 0.0;  ///< Sum of squared deviations.

    [[nodiscard]] double Variance() const { return n > 1 ? m2 / (n - 1) : 0.0; }
  };

  [[nodiscard]]
  const std::unordered_map<CellId, Moments, CellIdHash>& cells() const {
    return cells_;
  }
  [[nodiscard]] const Grid& grid() const { return grid_; }
  [[nodiscard]] int64_t total_points() const { return total_points_; }

 private:
  Grid grid_;
  std::unordered_map<CellId, Moments, CellIdHash> cells_;
  int64_t total_points_ = 0;
};

/// Static feature counts of one cell.
struct CellFeatureCounts {
  int traffic_lights = 0;
  int bus_stops = 0;
  int pedestrian_crossings = 0;
  int junctions = 0;  ///< Graph junction vertices in the cell.
};

/// Feature counts for every cell touched by the network's features or
/// junction vertices.
std::unordered_map<CellId, CellFeatureCounts, CellIdHash>
ComputeCellFeatures(const roadnet::RoadNetwork& network, const Grid& grid);

}  // namespace analysis
}  // namespace taxitrace

#endif  // TAXITRACE_ANALYSIS_GRID_H_
