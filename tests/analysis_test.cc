#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "taxitrace/analysis/cell_stats.h"
#include "taxitrace/analysis/grid.h"
#include "taxitrace/analysis/route_stats.h"
#include "taxitrace/analysis/seasons.h"
#include "taxitrace/analysis/speed_categories.h"
#include "taxitrace/analysis/summary_stats.h"
#include "taxitrace/common/random.h"
#include "taxitrace/trace/time_util.h"

namespace taxitrace {
namespace analysis {
namespace {

using geo::EnPoint;

// --- Grid ---------------------------------------------------------------------

TEST(GridTest, CellOfFloorsCoordinates) {
  const Grid grid(200.0);
  EXPECT_EQ(grid.CellOf(EnPoint{10, 10}), (CellId{0, 0}));
  EXPECT_EQ(grid.CellOf(EnPoint{-10, 10}), (CellId{-1, 0}));
  EXPECT_EQ(grid.CellOf(EnPoint{399, -1}), (CellId{1, -1}));
  EXPECT_EQ(grid.CellOf(EnPoint{200, 200}), (CellId{1, 1}));  // boundary
}

TEST(GridTest, TryCellOfRefusesCellsBeyondInt32) {
  const Grid grid(1.0);
  EXPECT_EQ(grid.TryCellOf(EnPoint{399, -1}), (CellId{399, -1}));
  // The lattice's last cells on each side are still cells.
  EXPECT_EQ(grid.TryCellOf(EnPoint{2147483647.5, -2147483648.0}),
            (CellId{INT32_MAX, INT32_MIN}));
  const double kNaN = std::nan("");
  const double kInf = HUGE_VAL;
  for (const double bad : {2147483648.0, -2147483648.5, kNaN, kInf, -kInf,
                           1e300, -1e300}) {
    EXPECT_FALSE(grid.TryCellOf(EnPoint{bad, 0.0}).has_value()) << bad;
    EXPECT_FALSE(grid.TryCellOf(EnPoint{0.0, bad}).has_value()) << bad;
  }
}

TEST(GridTest, CenterAndBoundsConsistent) {
  const Grid grid(200.0);
  const CellId c{2, -3};
  const EnPoint center = grid.CellCenter(c);
  EXPECT_EQ(grid.CellOf(center), c);
  const geo::Bbox b = grid.CellBounds(c);
  EXPECT_DOUBLE_EQ(b.max_x - b.min_x, 200.0);
  EXPECT_TRUE(b.Contains(center));
}

TEST(GridTest, CustomCellSize) {
  const Grid grid(50.0);
  EXPECT_EQ(grid.CellOf(EnPoint{49, 0}), (CellId{0, 0}));
  EXPECT_EQ(grid.CellOf(EnPoint{51, 0}), (CellId{1, 0}));
}

// CellOf -> CellBounds must round-trip in every quadrant: each cell's
// min corner and interior belong to the cell (half-open boxes), the max
// corner belongs to the next cell, and CellCenter lands back in the
// cell. Exercises negative coordinates where flooring (not truncation)
// is the difference between a correct grid and an off-by-one around 0.
TEST(GridTest, CellBoundsRoundTripAllQuadrants) {
  const Grid grid(200.0);
  const int32_t coords[] = {-7, -1, 0, 1, 6};
  for (const int32_t cx : coords) {
    for (const int32_t cy : coords) {
      const CellId c{cx, cy};
      const geo::Bbox b = grid.CellBounds(c);
      EXPECT_DOUBLE_EQ(b.max_x - b.min_x, 200.0);
      EXPECT_DOUBLE_EQ(b.max_y - b.min_y, 200.0);
      // Min corner and interior points round-trip to the same cell.
      EXPECT_EQ(grid.CellOf(EnPoint{b.min_x, b.min_y}), c);
      EXPECT_EQ(grid.CellOf(EnPoint{b.min_x + 0.5, b.max_y - 0.5}), c);
      EXPECT_EQ(grid.CellOf(EnPoint{b.max_x - 0.5, b.min_y + 0.5}), c);
      EXPECT_EQ(grid.CellOf(grid.CellCenter(c)), c);
      // The max corner is the min corner of the diagonal neighbour.
      EXPECT_EQ(grid.CellOf(EnPoint{b.max_x, b.max_y}),
                (CellId{cx + 1, cy + 1}));
    }
  }
}

// Regression for the old ad-hoc CellIdHash (cx * phi32 ^ (cy << 16)):
// its low 16 output bits were a function of cx alone, so any power-of-
// two bucket count <= 65536 collapsed whole columns into one bucket.
// The splitmix64-based hash must (a) be injective over a dense signed
// range — splitmix64 is a bijection of the packed (cx, cy) word — and
// (b) spread that range over 1024 buckets with near-uniform load.
TEST(GridTest, CellIdHashInjectiveAndWellDistributed) {
  constexpr int32_t kHalf = 64;  // cx, cy in [-64, 64): 16384 cells
  constexpr size_t kBuckets = 1024;
  const CellIdHash hash;
  std::unordered_set<uint64_t> seen;
  std::vector<int> load(kBuckets, 0);
  for (int32_t cx = -kHalf; cx < kHalf; ++cx) {
    for (int32_t cy = -kHalf; cy < kHalf; ++cy) {
      const uint64_t h = hash(CellId{cx, cy});
      EXPECT_TRUE(seen.insert(h).second)
          << "collision at (" << cx << ", " << cy << ")";
      ++load[h % kBuckets];
    }
  }
  EXPECT_EQ(seen.size(), 4u * kHalf * kHalf);
  // Expected load is 16 per bucket; the old hash packed 128 cells into
  // each used bucket. Allow generous slack over a true uniform draw.
  const int max_load = *std::max_element(load.begin(), load.end());
  EXPECT_LE(max_load, 48) << "bucket distribution is badly skewed";
}

TEST(CellSpeedAccumulatorTest, WelfordMatchesDirectComputation) {
  const Grid grid(200.0);
  CellSpeedAccumulator acc(grid);
  Rng rng(5);
  std::vector<double> values;
  for (int i = 0; i < 500; ++i) {
    const double v = rng.Uniform(0, 60);
    values.push_back(v);
    acc.Add(EnPoint{50, 50}, v);
  }
  ASSERT_EQ(acc.cells().size(), 1u);
  const auto& m = acc.cells().begin()->second;
  EXPECT_EQ(m.n, 500);
  EXPECT_NEAR(m.mean, Mean(values), 1e-9);
  EXPECT_NEAR(m.Variance(), Variance(values), 1e-6);
  EXPECT_EQ(acc.total_points(), 500);
}

TEST(CellSpeedAccumulatorTest, SeparatesCells) {
  CellSpeedAccumulator acc{Grid(200.0)};
  acc.Add(EnPoint{10, 10}, 10.0);
  acc.Add(EnPoint{310, 10}, 50.0);
  EXPECT_EQ(acc.cells().size(), 2u);
}

// Merge() implements the Chan et al. pairwise combine: folding sharded
// accumulators must agree with feeding every point into one
// accumulator, for overlapping and disjoint cells alike.
TEST(CellSpeedAccumulatorTest, MergeMatchesDirectAccumulation) {
  const Grid grid(200.0);
  CellSpeedAccumulator direct(grid);
  CellSpeedAccumulator shard_a(grid);
  CellSpeedAccumulator shard_b(grid);
  Rng rng(17);
  for (int i = 0; i < 400; ++i) {
    // Three cells: one only in shard a, one only in shard b, one shared.
    const EnPoint points[] = {EnPoint{50, 50}, EnPoint{450, 50},
                              EnPoint{50, 450}};
    const EnPoint p = points[i % 3];
    const double v = rng.Uniform(0, 80);
    direct.Add(p, v);
    if (i % 3 == 0) {
      shard_a.Add(p, v);
    } else if (i % 3 == 1) {
      shard_b.Add(p, v);
    } else {
      (i % 2 == 0 ? shard_a : shard_b).Add(p, v);
    }
  }

  shard_a.Merge(shard_b);
  EXPECT_EQ(shard_a.total_points(), direct.total_points());
  ASSERT_EQ(shard_a.cells().size(), direct.cells().size());
  for (const auto& [cell, expected] : direct.cells()) {
    const auto it = shard_a.cells().find(cell);
    ASSERT_NE(it, shard_a.cells().end());
    EXPECT_EQ(it->second.n, expected.n);
    EXPECT_NEAR(it->second.mean, expected.mean, 1e-9);
    EXPECT_NEAR(it->second.Variance(), expected.Variance(), 1e-9);
  }
}

// Merging an identical shard sequence twice must be bit-identical —
// this is what lets the snapshot builder promise byte-identical output
// at any worker count, as long as shard count and fold order are fixed.
TEST(CellSpeedAccumulatorTest, MergeIsBitwiseRepeatable) {
  const Grid grid(200.0);
  auto build_shard = [&grid](uint64_t seed, int points) {
    CellSpeedAccumulator acc(grid);
    Rng rng(seed);
    for (int i = 0; i < points; ++i) {
      acc.Add(EnPoint{rng.Uniform(-400, 400), rng.Uniform(-400, 400)},
              rng.Uniform(0, 80));
    }
    return acc;
  };
  auto fold = [&] {
    // Start from an empty accumulator: the empty-this fast path must
    // also reproduce the first shard's moments bit-for-bit.
    CellSpeedAccumulator total(grid);
    for (uint64_t s = 1; s <= 4; ++s) total.Merge(build_shard(s, 200));
    return total;
  };

  const CellSpeedAccumulator a = fold();
  const CellSpeedAccumulator b = fold();
  ASSERT_EQ(a.cells().size(), b.cells().size());
  EXPECT_EQ(a.total_points(), b.total_points());
  for (const auto& [cell, lhs] : a.cells()) {
    const auto it = b.cells().find(cell);
    ASSERT_NE(it, b.cells().end());
    EXPECT_EQ(lhs.n, it->second.n);
    // Bit-level equality, not tolerance: identical fold order must give
    // identical floating-point state.
    EXPECT_EQ(std::bit_cast<uint64_t>(lhs.mean),
              std::bit_cast<uint64_t>(it->second.mean));
    EXPECT_EQ(std::bit_cast<uint64_t>(lhs.m2),
              std::bit_cast<uint64_t>(it->second.m2));
  }
}

// --- Summary stats ---------------------------------------------------------------

TEST(SummaryTest, KnownQuartiles) {
  const Summary s = Summarize({1, 2, 3, 4, 5});
  EXPECT_EQ(s.n, 5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.q1, 2.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.q3, 4.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
}

TEST(SummaryTest, InterpolatedQuartiles) {
  const Summary s = Summarize({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(s.q1, 1.75);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_DOUBLE_EQ(s.q3, 3.25);
}

TEST(SummaryTest, UnsortedInputHandled) {
  const Summary s = Summarize({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(s.median, 3.0);
}

TEST(SummaryTest, EmptyAndSingleton) {
  EXPECT_EQ(Summarize({}).n, 0);
  const Summary s = Summarize({7.0});
  EXPECT_DOUBLE_EQ(s.min, 7.0);
  EXPECT_DOUBLE_EQ(s.max, 7.0);
  EXPECT_DOUBLE_EQ(s.median, 7.0);
}

TEST(SummaryTest, MeanAndVariance) {
  EXPECT_DOUBLE_EQ(Mean({2, 4, 6}), 4.0);
  EXPECT_DOUBLE_EQ(Variance({2, 4, 6}), 4.0);
  EXPECT_DOUBLE_EQ(Variance({5}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

TEST(SummaryTest, SortedQuantileEdges) {
  const std::vector<double> v = {10, 20, 30};
  EXPECT_DOUBLE_EQ(SortedQuantile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(SortedQuantile(v, 1.0), 30.0);
  EXPECT_DOUBLE_EQ(SortedQuantile(v, 0.5), 20.0);
  EXPECT_DOUBLE_EQ(SortedQuantile({}, 0.5), 0.0);
}

// --- Seasons -----------------------------------------------------------------------

TEST(SeasonsTest, MonthMapping) {
  EXPECT_EQ(SeasonOfMonth(12), Season::kWinter);
  EXPECT_EQ(SeasonOfMonth(1), Season::kWinter);
  EXPECT_EQ(SeasonOfMonth(3), Season::kSpring);
  EXPECT_EQ(SeasonOfMonth(6), Season::kSummer);
  EXPECT_EQ(SeasonOfMonth(9), Season::kAutumn);
  EXPECT_EQ(SeasonOfMonth(11), Season::kAutumn);
}

TEST(SeasonsTest, TimestampMapping) {
  // Study epoch (October 2012) is autumn; +120 days is late January.
  EXPECT_EQ(SeasonOfTimestamp(0.0), Season::kAutumn);
  EXPECT_EQ(SeasonOfTimestamp(120.0 * trace::kSecondsPerDay),
            Season::kWinter);
}

TEST(SeasonsTest, Names) {
  EXPECT_EQ(SeasonName(Season::kWinter), "winter");
  EXPECT_EQ(SeasonName(Season::kAutumn), "autumn");
}

// --- Speed categories ----------------------------------------------------------------

TEST(SpeedCategoriesTest, LowSpeedShare) {
  trace::Trip trip;
  for (int i = 0; i < 10; ++i) {
    trace::RoutePoint p;
    p.speed_kmh = i < 3 ? 5.0 : 30.0;
    trip.points.push_back(p);
  }
  EXPECT_DOUBLE_EQ(LowSpeedShare(trip), 0.3);
  EXPECT_DOUBLE_EQ(LowSpeedShare(trace::Trip{}), 0.0);
  SpeedCategoryOptions options;
  options.low_speed_kmh = 50.0;
  EXPECT_DOUBLE_EQ(LowSpeedShare(trip, options), 1.0);
}

TEST(SpeedCategoriesTest, NormalSpeedShareUsesMatchedLimits) {
  // Network: one 40 km/h edge.
  roadnet::RoadNetwork net(geo::LatLon{65, 25});
  const auto a = net.AddVertex({0, 0}, false);
  const auto b = net.AddVertex({500, 0}, false);
  roadnet::Edge e;
  e.from = a;
  e.to = b;
  e.geometry = geo::Polyline({{0, 0}, {500, 0}});
  e.speed_limit_kmh = 40.0;
  const auto eid = net.AddEdge(std::move(e));

  trace::Trip trip;
  mapmatch::MatchedRoute route;
  const double speeds[] = {45.0, 39.0, 20.0, 38.5};  // tolerance 2 km/h
  for (size_t i = 0; i < 4; ++i) {
    trace::RoutePoint p;
    p.speed_kmh = speeds[i];
    trip.points.push_back(p);
    route.points.push_back(mapmatch::MatchedPoint{
        i, roadnet::EdgePosition{eid, 100.0 * static_cast<double>(i)}, 2.0});
  }
  // 45, 39, 38.5 are all >= 40 - 2; 20 is not.
  EXPECT_DOUBLE_EQ(NormalSpeedShare(trip, route, net), 0.75);
  EXPECT_DOUBLE_EQ(
      NormalSpeedShare(trip, mapmatch::MatchedRoute{}, net), 0.0);
}

// --- Route stats (Table 4) -------------------------------------------------------------

TEST(RouteStatsTest, BuildTable4GroupsByDirection) {
  std::vector<TransitionRecord> records;
  for (int i = 0; i < 4; ++i) {
    TransitionRecord r;
    r.direction = i < 3 ? "T-S" : "S-T";
    r.route_time_h = 0.1 + 0.01 * i;
    r.route_distance_km = 2.0 + 0.1 * i;
    r.low_speed_share = 0.2;
    r.normal_speed_share = 0.1;
    r.fuel_ml = 200.0 + i;
    r.attributes.traffic_lights = 5 + i;
    r.attributes.junctions = 20;
    r.attributes.pedestrian_crossings = 8;
    records.push_back(r);
  }
  const std::vector<Table4Row> rows = BuildTable4(records);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].direction, "T-S");
  EXPECT_EQ(rows[0].route_time_h.n, 3);
  EXPECT_EQ(rows[1].direction, "S-T");
  EXPECT_EQ(rows[1].route_time_h.n, 1);
  EXPECT_EQ(rows[2].route_time_h.n, 0);  // T-L: empty
  EXPECT_NEAR(rows[0].low_speed_pct.mean, 20.0, 1e-9);  // percent
  EXPECT_NEAR(rows[0].traffic_lights.median, 6.0, 1e-9);
}

// --- Cell stats (Table 5) ----------------------------------------------------------------

std::vector<CellRecord> FourCells() {
  // Cells: (lights, bus) = (0,0), (0,1), (2,1), (3,0), with mean speeds
  // 30, 26, 18, 16.
  std::vector<CellRecord> cells(4);
  const int lights[] = {0, 0, 2, 3};
  const int buses[] = {0, 1, 1, 0};
  const double speeds[] = {30, 26, 18, 16};
  for (int i = 0; i < 4; ++i) {
    cells[static_cast<size_t>(i)].cell = CellId{i, 0};
    cells[static_cast<size_t>(i)].num_points = 10;
    cells[static_cast<size_t>(i)].mean_speed_kmh = speeds[i];
    cells[static_cast<size_t>(i)].features.traffic_lights = lights[i];
    cells[static_cast<size_t>(i)].features.bus_stops = buses[i];
  }
  return cells;
}

TEST(CellStatsTest, Table5Strata) {
  const Table5 t = BuildTable5(FourCells());
  EXPECT_EQ(t.no_lights.num_cells, 2);
  EXPECT_NEAR(t.no_lights.mean, 28.0, 1e-9);
  EXPECT_EQ(t.no_lights_no_bus.num_cells, 1);
  EXPECT_NEAR(t.no_lights_no_bus.mean, 30.0, 1e-9);
  EXPECT_EQ(t.lights_and_bus.num_cells, 1);
  EXPECT_NEAR(t.lights_and_bus.mean, 18.0, 1e-9);
  EXPECT_EQ(t.lights.num_cells, 2);
  EXPECT_NEAR(t.lights.min, 16.0, 1e-9);
  EXPECT_NEAR(t.lights.max, 18.0, 1e-9);
}

TEST(CellStatsTest, LightsReduceMeanSpeed) {
  const Table5 t = BuildTable5(FourCells());
  EXPECT_LT(t.lights.mean, t.no_lights.mean);  // the paper's key finding
}

TEST(CellStatsTest, SummarizeCellsEmptyPredicate) {
  const CellStratumStats s = SummarizeCells(
      FourCells(), [](const CellRecord&) { return false; });
  EXPECT_EQ(s.num_cells, 0);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(CellStatsTest, BuildCellRecordsJoinsFeatures) {
  const Grid grid(200.0);
  CellSpeedAccumulator acc(grid);
  acc.Add(EnPoint{50, 50}, 20.0);
  acc.Add(EnPoint{50, 60}, 40.0);
  acc.Add(EnPoint{350, 50}, 10.0);

  std::unordered_map<CellId, CellFeatureCounts, CellIdHash> features;
  features[CellId{0, 0}].traffic_lights = 2;

  const std::vector<CellRecord> records = BuildCellRecords(acc, features);
  ASSERT_EQ(records.size(), 2u);
  // Deterministic row order: by (cy, cx).
  EXPECT_EQ(records[0].cell, (CellId{0, 0}));
  EXPECT_EQ(records[0].features.traffic_lights, 2);
  EXPECT_NEAR(records[0].mean_speed_kmh, 30.0, 1e-9);
  EXPECT_EQ(records[1].cell, (CellId{1, 0}));
  EXPECT_EQ(records[1].features.traffic_lights, 0);
}

TEST(CellStatsTest, ComputeCellFeaturesCountsJunctionsAndFeatures) {
  roadnet::RoadNetwork net(geo::LatLon{65, 25});
  // Junction at (100, 100) with three edges.
  const auto center = net.AddVertex({100, 100}, true);
  const auto a = net.AddVertex({100, 300}, false);
  const auto b = net.AddVertex({300, 100}, false);
  const auto c = net.AddVertex({100, -100}, false);
  const auto add_edge = [&](roadnet::VertexId to, EnPoint far) {
    roadnet::Edge e;
    e.from = center;
    e.to = to;
    e.geometry = geo::Polyline({{100, 100}, far});
    net.AddEdge(std::move(e));
  };
  add_edge(a, {100, 300});
  add_edge(b, {300, 100});
  add_edge(c, {100, -100});
  net.AddFeature(roadnet::FeatureType::kTrafficLight, EnPoint{110, 110});
  net.AddFeature(roadnet::FeatureType::kBusStop, EnPoint{250, 105});

  const Grid grid(200.0);
  const auto cells = ComputeCellFeatures(net, grid);
  const CellId junction_cell = grid.CellOf(EnPoint{100, 100});
  ASSERT_TRUE(cells.contains(junction_cell));
  EXPECT_EQ(cells.at(junction_cell).junctions, 1);
  EXPECT_EQ(cells.at(junction_cell).traffic_lights, 1);
  const CellId bus_cell = grid.CellOf(EnPoint{250, 105});
  EXPECT_EQ(cells.at(bus_cell).bus_stops, 1);
}

}  // namespace
}  // namespace analysis
}  // namespace taxitrace
