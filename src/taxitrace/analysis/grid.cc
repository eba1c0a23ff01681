#include "taxitrace/analysis/grid.h"

#include <cmath>

namespace taxitrace {
namespace analysis {

Grid::Grid(double cell_size_m) : cell_size_m_(cell_size_m) {}

CellId Grid::CellOf(const geo::EnPoint& p) const {
  return CellId{static_cast<int32_t>(std::floor(p.x / cell_size_m_)),
                static_cast<int32_t>(std::floor(p.y / cell_size_m_))};
}

std::optional<CellId> Grid::TryCellOf(const geo::EnPoint& p) const {
  const double fx = std::floor(p.x / cell_size_m_);
  const double fy = std::floor(p.y / cell_size_m_);
  // Written so that NaN fails too: the cast below is defined only for
  // values inside int32 range.
  const auto fits = [](double f) {
    return f >= -2147483648.0 && f < 2147483648.0;
  };
  if (!fits(fx) || !fits(fy)) return std::nullopt;
  return CellId{static_cast<int32_t>(fx), static_cast<int32_t>(fy)};
}

geo::EnPoint Grid::CellCenter(const CellId& c) const {
  return geo::EnPoint{(c.cx + 0.5) * cell_size_m_,
                      (c.cy + 0.5) * cell_size_m_};
}

geo::Bbox Grid::CellBounds(const CellId& c) const {
  return geo::Bbox{c.cx * cell_size_m_, c.cy * cell_size_m_,
                   (c.cx + 1) * cell_size_m_, (c.cy + 1) * cell_size_m_};
}

void CellSpeedAccumulator::Add(const geo::EnPoint& position,
                               double speed_kmh) {
  Moments& m = cells_[grid_.CellOf(position)];
  ++m.n;
  const double delta = speed_kmh - m.mean;
  m.mean += delta / static_cast<double>(m.n);
  m.m2 += delta * (speed_kmh - m.mean);
  ++total_points_;
}

void CellSpeedAccumulator::Merge(const CellSpeedAccumulator& other) {
  // Per-cell-slot writes: each key is combined exactly once, so the
  // result is independent of the other map's iteration order.
  for (const auto& [cell, theirs] : other.cells_) {
    Moments& ours = cells_[cell];
    if (ours.n == 0) {
      ours = theirs;
      continue;
    }
    const int64_t n_total = ours.n + theirs.n;
    const double delta = theirs.mean - ours.mean;
    ours.m2 += theirs.m2 + delta * delta *
                               (static_cast<double>(ours.n) *
                                static_cast<double>(theirs.n) /
                                static_cast<double>(n_total));
    ours.mean += delta * (static_cast<double>(theirs.n) /
                          static_cast<double>(n_total));
    ours.n = n_total;
  }
  total_points_ += other.total_points_;
}

std::unordered_map<CellId, CellFeatureCounts, CellIdHash>
ComputeCellFeatures(const roadnet::RoadNetwork& network, const Grid& grid) {
  std::unordered_map<CellId, CellFeatureCounts, CellIdHash> out;
  for (const roadnet::MapFeature& f : network.features()) {
    CellFeatureCounts& counts = out[grid.CellOf(f.position)];
    switch (f.type) {
      case roadnet::FeatureType::kTrafficLight:
        ++counts.traffic_lights;
        break;
      case roadnet::FeatureType::kBusStop:
        ++counts.bus_stops;
        break;
      case roadnet::FeatureType::kPedestrianCrossing:
        ++counts.pedestrian_crossings;
        break;
    }
  }
  network.ForEachVertex([&](const roadnet::Vertex& v) {
    if (v.is_junction) ++out[grid.CellOf(v.position)].junctions;
  });
  return out;
}

}  // namespace analysis
}  // namespace taxitrace
