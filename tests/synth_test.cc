#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <set>
#include <string>

#include "taxitrace/clean/order_repair.h"
#include "taxitrace/common/executor.h"
#include "taxitrace/common/strings.h"
#include "taxitrace/roadnet/router.h"
#include "taxitrace/roadnet/connectivity.h"
#include "taxitrace/synth/city_map_generator.h"
#include "taxitrace/synth/driver_model.h"
#include "taxitrace/synth/fleet_simulator.h"
#include "taxitrace/synth/sensor_model.h"
#include "taxitrace/synth/weather_model.h"
#include "taxitrace/trace/time_util.h"
#include "taxitrace/trace/trip_sink.h"

namespace taxitrace {
namespace synth {
namespace {

// Shared generated map: generation is deterministic, so one instance
// serves all tests.
const CityMap& TestMap() {
  static const CityMap* map = [] {
    auto result = GenerateCityMap();
    return new CityMap(std::move(result).value());
  }();
  return *map;
}

// --- Weather -----------------------------------------------------------------

TEST(WeatherModelTest, Deterministic) {
  const WeatherModel a(5, 365), b(5, 365);
  for (int d = 0; d < 365; d += 30) {
    EXPECT_EQ(a.TemperatureAt(d * trace::kSecondsPerDay),
              b.TemperatureAt(d * trace::kSecondsPerDay));
  }
}

TEST(WeatherModelTest, WinterColderThanSummer) {
  const WeatherModel w(7, 365);
  // Mean over January (study days ~92..122) vs July (~273..303).
  double january = 0.0, july = 0.0;
  for (int d = 92; d < 122; ++d) {
    january += w.daily_mean_celsius()[static_cast<size_t>(d)];
  }
  for (int d = 273; d < 303; ++d) {
    july += w.daily_mean_celsius()[static_cast<size_t>(d)];
  }
  EXPECT_LT(january / 30.0, -3.0);
  EXPECT_GT(july / 30.0, 10.0);
}

TEST(WeatherModelTest, DiurnalCycleWarmestAfternoon) {
  const WeatherModel w(9, 365);
  const double day = 200.0 * trace::kSecondsPerDay;
  EXPECT_GT(w.TemperatureAt(day + 15.0 * 3600),
            w.TemperatureAt(day + 4.0 * 3600));
}

TEST(WeatherModelTest, SlipperyOnlyWhenFreezing) {
  const WeatherModel w(11, 365);
  int slippery_warm_days = 0;
  for (int d = 0; d < 365; ++d) {
    const double noon = d * trace::kSecondsPerDay + 12 * 3600.0;
    if (w.SlipperyAt(noon) &&
        w.daily_mean_celsius()[static_cast<size_t>(d)] >= 0.0) {
      ++slippery_warm_days;
    }
  }
  EXPECT_EQ(slippery_warm_days, 0);
}

TEST(TemperatureClassTest, Boundaries) {
  EXPECT_EQ(ClassifyTemperature(-20), TemperatureClass::kBelowMinus15);
  EXPECT_EQ(ClassifyTemperature(-15), TemperatureClass::kBelowMinus15);
  EXPECT_EQ(ClassifyTemperature(-10), TemperatureClass::kMinus15ToMinus5);
  EXPECT_EQ(ClassifyTemperature(-1), TemperatureClass::kMinus5To0);
  EXPECT_EQ(ClassifyTemperature(0), TemperatureClass::kMinus5To0);
  EXPECT_EQ(ClassifyTemperature(3), TemperatureClass::k0To5);
  EXPECT_EQ(ClassifyTemperature(10), TemperatureClass::k5To15);
  EXPECT_EQ(ClassifyTemperature(25), TemperatureClass::kAbove15);
}

TEST(TemperatureClassTest, LabelsDistinct) {
  std::set<std::string_view> labels;
  for (int c = 0; c < kNumTemperatureClasses; ++c) {
    labels.insert(TemperatureClassLabel(static_cast<TemperatureClass>(c)));
  }
  EXPECT_EQ(labels.size(), static_cast<size_t>(kNumTemperatureClasses));
}

// --- City map -----------------------------------------------------------------

TEST(CityMapTest, NetworkValidates) {
  EXPECT_TRUE(TestMap().network.Validate().ok());
}

TEST(CityMapTest, FeatureCensusMatchesPaper) {
  const roadnet::RoadNetwork& net = TestMap().network;
  EXPECT_EQ(net.CountFeatures(roadnet::FeatureType::kTrafficLight), 67);
  EXPECT_EQ(net.CountFeatures(roadnet::FeatureType::kBusStop), 48);
  EXPECT_EQ(net.CountFeatures(roadnet::FeatureType::kPedestrianCrossing),
            293);
  int junctions = 0;
  net.ForEachVertex([&](const roadnet::Vertex& v) {
    if (v.is_junction) ++junctions;
  });
  // Paper: 271 non-pedestrian crossings; tolerance for grid randomness.
  EXPECT_GT(junctions, 180);
  EXPECT_LT(junctions, 360);
}

TEST(CityMapTest, HasThreeNamedGates) {
  const CityMap& map = TestMap();
  ASSERT_EQ(map.gates.size(), 3u);
  EXPECT_EQ(map.gates[0].name, "T");
  EXPECT_EQ(map.gates[1].name, "S");
  EXPECT_EQ(map.gates[2].name, "L");
  EXPECT_TRUE(map.FindGate("S").ok());
  EXPECT_TRUE(map.FindGate("X").status().IsNotFound());
}

TEST(CityMapTest, GateTerminalsAreDeadEndsAtGeometryStart) {
  const CityMap& map = TestMap();
  for (const GateRoad& gate : map.gates) {
    const roadnet::Vertex& term =
        map.network.vertex(gate.terminal_vertex);
    EXPECT_FALSE(term.is_junction);
    EXPECT_EQ(map.network.IncidentEdges(term.id).size(), 1u);
    EXPECT_LT(geo::Distance(term.position, gate.geometry.front()), 5.0);
  }
}

TEST(CityMapTest, GatesPointAtTheExpectedCompassSides) {
  const CityMap& map = TestMap();
  EXPECT_GT(map.FindGate("T").value()->geometry.front().y, 900.0);
  EXPECT_LT(map.FindGate("S").value()->geometry.front().y, -900.0);
  EXPECT_GT(map.FindGate("L").value()->geometry.front().x, 900.0);
}

TEST(CityMapTest, GatesMutuallyReachable) {
  const CityMap& map = TestMap();
  const roadnet::Router router(&map.network);
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      if (a == b) continue;
      const auto path = router.ShortestPath(
          map.gates[static_cast<size_t>(a)].terminal_vertex,
          map.gates[static_cast<size_t>(b)].terminal_vertex);
      ASSERT_TRUE(path.ok()) << map.gates[static_cast<size_t>(a)].name
                             << "->"
                             << map.gates[static_cast<size_t>(b)].name;
      EXPECT_GT(path->length_m, 1500.0);
      EXPECT_LT(path->length_m, 4500.0);
    }
  }
}

TEST(CityMapTest, ContainsOneWayEdges) {
  int one_way = 0;
  TestMap().network.ForEachEdge([&](const roadnet::Edge& e) {
    if (e.direction != roadnet::TravelDirection::kBoth) ++one_way;
  });
  EXPECT_GT(one_way, 4);
}

TEST(CityMapTest, ContainsDeadEndAccessRoads) {
  int access = 0;
  TestMap().network.ForEachEdge([&](const roadnet::Edge& e) {
    if (e.functional_class == roadnet::FunctionalClass::kAccessRoad) {
      ++access;
    }
  });
  EXPECT_GE(access, 10);
}

TEST(CityMapTest, ContainsMultiElementEdges) {
  EXPECT_GT(TestMap().preparation_stats.num_multi_element_edges, 50);
}

TEST(CityMapTest, HotspotsInsideCentralArea) {
  const CityMap& map = TestMap();
  ASSERT_FALSE(map.hotspots.empty());
  for (const Hotspot& h : map.hotspots) {
    EXPECT_TRUE(map.central_area.Contains(h.center));
    EXPECT_GT(h.intensity, 0.0);
    EXPECT_LE(h.intensity, 1.0);
  }
}

TEST(CityMapTest, DeterministicInSeed) {
  CityMapOptions options;
  options.seed = 42;
  const CityMap a = GenerateCityMap(options).value();
  const CityMap b = GenerateCityMap(options).value();
  EXPECT_EQ(a.network.num_edges(), b.network.num_edges());
  EXPECT_EQ(a.network.num_vertices(), b.network.num_vertices());
  ASSERT_FALSE(a.network.num_edges() == 0);
  EXPECT_EQ(a.network.edge(7).element_ids, b.network.edge(7).element_ids);
}

TEST(CityMapTest, DifferentSeedsDiffer) {
  CityMapOptions a_options, b_options;
  a_options.seed = 1;
  b_options.seed = 2;
  const CityMap a = GenerateCityMap(a_options).value();
  const CityMap b = GenerateCityMap(b_options).value();
  EXPECT_NE(a.network.num_edges(), b.network.num_edges());
}

TEST(CityMapTest, RejectsBadOptions) {
  CityMapOptions options;
  options.extent_m = -5;
  EXPECT_FALSE(GenerateCityMap(options).ok());
  options = CityMapOptions();
  options.extent_m = 100;  // far too small for a grid
  EXPECT_FALSE(GenerateCityMap(options).ok());
}

TEST(CityMapTest, SpeedLimitsPlausible) {
  TestMap().network.ForEachEdge([&](const roadnet::Edge& e) {
    EXPECT_GE(e.speed_limit_kmh, 30.0);
    EXPECT_LE(e.speed_limit_kmh, 60.0);
  });
}


TEST(CityMapTest, RiverFunnelsThroughBridges) {
  // Count edges crossing the river band: only the bridges remain.
  const CityMapOptions opt;
  int crossings = 0;
  TestMap().network.ForEachEdge([&](const roadnet::Edge& e) {
    const double y0 = e.geometry.front().y;
    const double y1 = e.geometry.back().y;
    if ((y0 - opt.river_y_m) * (y1 - opt.river_y_m) < 0.0 &&
        std::abs(y1 - y0) > 50.0) {
      ++crossings;
    }
  });
  EXPECT_GE(crossings, 2);  // bridges exist (T corridor + others)
  EXPECT_LE(crossings, 6);  // but the bank is not a grid
  // Both banks stay mutually drivable.
  const roadnet::Router router(&TestMap().network);
  const auto north = TestMap().FindGate("T").value()->terminal_vertex;
  const auto south = TestMap().FindGate("S").value()->terminal_vertex;
  EXPECT_TRUE(router.ShortestPath(north, south).ok());
}

TEST(CityMapTest, RiverCanBeDisabled) {
  CityMapOptions options;
  options.include_river = false;
  options.seed = 5;
  const CityMap map = GenerateCityMap(options).value();
  int crossings = 0;
  map.network.ForEachEdge([&](const roadnet::Edge& e) {
    const double y0 = e.geometry.front().y;
    const double y1 = e.geometry.back().y;
    if ((y0 - options.river_y_m) * (y1 - options.river_y_m) < 0.0 &&
        std::abs(y1 - y0) > 50.0) {
      ++crossings;
    }
  });
  EXPECT_GT(crossings, 8);  // a full grid of crossings
}

// --- Driver model -----------------------------------------------------------

class DriverModelTest : public testing::Test {
 protected:
  DriverModelTest()
      : weather_(3, 365),
        driver_(&TestMap(), &weather_),
        router_(&TestMap().network) {}

  roadnet::Path GatePath(const std::string& from,
                         const std::string& to) const {
    return router_
        .ShortestPath(TestMap().FindGate(from).value()->terminal_vertex,
                      TestMap().FindGate(to).value()->terminal_vertex)
        .value();
  }

  WeatherModel weather_;
  DriverModel driver_;
  roadnet::Router router_;
};

TEST_F(DriverModelTest, ProducesMonotoneTimeline) {
  Rng rng(1);
  const auto samples =
      driver_.Drive(GatePath("S", "T"), 1000.0, 1.0, &rng);
  ASSERT_GT(samples.size(), 50u);
  for (size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GT(samples[i].t_s, samples[i - 1].t_s);
  }
  EXPECT_GE(samples.front().t_s, 1000.0);
}

TEST_F(DriverModelTest, SpeedsWithinPhysicalBounds) {
  Rng rng(2);
  const auto samples =
      driver_.Drive(GatePath("T", "L"), 5000.0, 1.0, &rng);
  for (const DriveSample& s : samples) {
    EXPECT_GE(s.speed_kmh, 0.0);
    EXPECT_LE(s.speed_kmh, 75.0);
    EXPECT_GE(s.fuel_delta_ml, 0.0);
  }
}

TEST_F(DriverModelTest, ReachesTheDestination) {
  Rng rng(3);
  const roadnet::Path path = GatePath("S", "L");
  const auto samples = driver_.Drive(path, 0.0, 1.0, &rng);
  ASSERT_FALSE(samples.empty());
  EXPECT_LT(geo::Distance(samples.back().position, path.geometry.back()),
            10.0);
}

TEST_F(DriverModelTest, StopsOccurOnLitRoutes) {
  Rng rng(4);
  int stopped = 0;
  for (int trial = 0; trial < 5; ++trial) {
    for (const DriveSample& s :
         driver_.Drive(GatePath("S", "T"), trial * 7200.0, 1.0, &rng)) {
      if (s.speed_kmh < 1.0) ++stopped;
    }
  }
  EXPECT_GT(stopped, 20);  // red lights / crossings force waits
}

TEST_F(DriverModelTest, FuelScalesWithDistance) {
  Rng rng(5);
  double fuel = 0.0;
  const auto samples = driver_.Drive(GatePath("S", "T"), 0.0, 1.0, &rng);
  for (const DriveSample& s : samples) fuel += s.fuel_delta_ml;
  // A ~2.5 km urban trip burns on the order of 150-450 ml.
  EXPECT_GT(fuel, 100.0);
  EXPECT_LT(fuel, 600.0);
}

TEST_F(DriverModelTest, SeasonFactorOrdering) {
  // January < April < July < October (paper Section VI-A ordering).
  const double january = 100.0 * trace::kSecondsPerDay;   // Jan 2013
  const double april = 190.0 * trace::kSecondsPerDay;     // Apr 2013
  const double july = 280.0 * trace::kSecondsPerDay;      // Jul 2013
  const double october = 10.0 * trace::kSecondsPerDay;    // Oct 2012
  EXPECT_LT(DriverModel::SeasonFactor(january),
            DriverModel::SeasonFactor(april));
  EXPECT_LT(DriverModel::SeasonFactor(april),
            DriverModel::SeasonFactor(july));
  EXPECT_LT(DriverModel::SeasonFactor(july),
            DriverModel::SeasonFactor(october));
}

TEST_F(DriverModelTest, HotspotSlowsTraffic) {
  const Hotspot& h = TestMap().hotspots.front();
  EXPECT_LT(driver_.HotspotFactor(h.center), 1.0);
  EXPECT_DOUBLE_EQ(
      driver_.HotspotFactor(geo::EnPoint{h.center.x + h.radius_m + 50,
                                         h.center.y}),
      1.0);
  EXPECT_GT(driver_.HotspotIntensity(h.center), 0.5 * h.intensity);
}

TEST_F(DriverModelTest, IdleProducesStationarySamples) {
  const auto samples = driver_.Idle(geo::EnPoint{10, 20}, 500.0, 120.0);
  ASSERT_GE(samples.size(), 10u);
  for (const DriveSample& s : samples) {
    EXPECT_EQ(s.speed_kmh, 0.0);
    EXPECT_EQ(s.position, (geo::EnPoint{10, 20}));
    EXPECT_GT(s.fuel_delta_ml, 0.0);
  }
}

TEST_F(DriverModelTest, EmptyPathYieldsNoSamples) {
  Rng rng(6);
  EXPECT_TRUE(driver_.Drive(roadnet::Path{}, 0.0, 1.0, &rng).empty());
}

TEST_F(DriverModelTest, SlowerDriverFactorTakesLonger) {
  Rng rng_a(7), rng_b(7);  // identical randomness
  const roadnet::Path path = GatePath("T", "S");
  const auto fast = driver_.Drive(path, 0.0, 1.1, &rng_a);
  const auto slow = driver_.Drive(path, 0.0, 0.7, &rng_b);
  ASSERT_FALSE(fast.empty());
  ASSERT_FALSE(slow.empty());
  EXPECT_LT(fast.back().t_s, slow.back().t_s);
}

// --- Sensor model ------------------------------------------------------------

class SensorModelTest : public testing::Test {
 protected:
  SensorModelTest()
      : weather_(3, 365),
        driver_(&TestMap(), &weather_),
        router_(&TestMap().network) {}

  std::vector<DriveSample> Samples(uint64_t seed) {
    Rng rng(seed);
    const roadnet::Path path =
        router_
            .ShortestPath(TestMap().gates[0].terminal_vertex,
                          TestMap().gates[1].terminal_vertex)
            .value();
    return driver_.Drive(path, 0.0, 1.0, &rng);
  }

  WeatherModel weather_;
  DriverModel driver_;
  roadnet::Router router_;
};

TEST_F(SensorModelTest, EmitsEventDrivenPoints) {
  SensorOptions options;
  options.timestamp_glitch_prob = 0.0;
  options.id_glitch_prob = 0.0;
  options.drop_prob = 0.0;
  options.dup_prob = 0.0;
  options.outlier_prob = 0.0;
  const SensorModel sensor(options);
  Rng rng(1);
  int64_t next_id = 1;
  const auto samples = Samples(11);
  const auto points = sensor.Observe(samples, 7, &next_id,
                                     TestMap().network.projection(), &rng);
  ASSERT_GT(points.size(), 10u);
  EXPECT_LT(points.size(), samples.size());  // event-driven, not 1 Hz
  for (size_t i = 1; i < points.size(); ++i) {
    EXPECT_GT(points[i].point_id, points[i - 1].point_id);
    EXPECT_GE(points[i].timestamp_s, points[i - 1].timestamp_s);
  }
  for (const auto& p : points) EXPECT_EQ(p.trip_id, 7);
  EXPECT_EQ(next_id, static_cast<int64_t>(points.size()) + 1);
}

TEST_F(SensorModelTest, FuelIsConserved) {
  SensorOptions options;
  options.drop_prob = 0.0;
  options.dup_prob = 0.0;
  options.timestamp_glitch_prob = 0.0;
  options.id_glitch_prob = 0.0;
  const SensorModel sensor(options);
  Rng rng(2);
  int64_t next_id = 1;
  const auto samples = Samples(12);
  double drive_fuel = 0.0;
  for (const DriveSample& s : samples) drive_fuel += s.fuel_delta_ml;
  const auto points = sensor.Observe(samples, 1, &next_id,
                                     TestMap().network.projection(), &rng);
  double point_fuel = 0.0;
  for (const auto& p : points) point_fuel += p.fuel_delta_ml;
  EXPECT_NEAR(point_fuel, drive_fuel, 1e-6);
}

TEST_F(SensorModelTest, GlitchesScrambleExactlyOneField) {
  SensorOptions options;
  options.timestamp_glitch_prob = 1.0;  // force a timestamp glitch
  options.drop_prob = 0.0;
  options.dup_prob = 0.0;
  const SensorModel sensor(options);
  Rng rng(3);
  int64_t next_id = 1;
  const auto points = sensor.Observe(Samples(13), 1, &next_id,
                                     TestMap().network.projection(), &rng);
  bool id_monotone = true, ts_monotone = true;
  for (size_t i = 1; i < points.size(); ++i) {
    if (points[i].point_id < points[i - 1].point_id) id_monotone = false;
    if (points[i].timestamp_s < points[i - 1].timestamp_s) {
      ts_monotone = false;
    }
  }
  EXPECT_TRUE(id_monotone);
  EXPECT_FALSE(ts_monotone);
}

TEST_F(SensorModelTest, DropsReduceAndDupsIncreasePoints) {
  SensorOptions heavy;
  heavy.drop_prob = 0.5;
  heavy.dup_prob = 0.0;
  heavy.timestamp_glitch_prob = 0.0;
  heavy.id_glitch_prob = 0.0;
  SensorOptions none = heavy;
  none.drop_prob = 0.0;
  Rng rng_a(4), rng_b(4);
  int64_t id_a = 1, id_b = 1;
  const auto samples = Samples(14);
  const auto dropped =
      SensorModel(heavy).Observe(samples, 1, &id_a,
                                 TestMap().network.projection(), &rng_a);
  const auto kept =
      SensorModel(none).Observe(samples, 1, &id_b,
                                TestMap().network.projection(), &rng_b);
  EXPECT_LT(dropped.size(), kept.size());
}

TEST_F(SensorModelTest, OrderRepairRecoversGlitchedTrips) {
  // End-to-end property: whatever the sensor scrambles, the cleaning
  // stage's length criterion restores a monotone sequence.
  SensorOptions options;
  options.timestamp_glitch_prob = 0.5;
  options.id_glitch_prob = 0.5;
  const SensorModel sensor(options);
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    int64_t next_id = 1;
    std::vector<trace::RoutePoint> points =
        sensor.Observe(Samples(20 + static_cast<uint64_t>(trial)), 1,
                       &next_id, TestMap().network.projection(), &rng);
    clean::RepairPointOrder(&points);
    for (size_t i = 1; i < points.size(); ++i) {
      EXPECT_LE(points[i - 1].timestamp_s, points[i].timestamp_s);
      EXPECT_LE(points[i - 1].point_id, points[i].point_id);
    }
  }
}

// --- Fleet simulator -----------------------------------------------------------

TEST(FleetSimulatorTest, SmallRunProducesPlausibleTraces) {
  const WeatherModel weather(3, 7);
  FleetOptions options;
  options.num_cars = 2;
  options.num_days = 7;
  const FleetSimulator fleet(&TestMap(), &weather, options);
  const FleetResult result = fleet.Run().value();
  EXPECT_GT(result.store.NumTrips(), 20u);
  EXPECT_GT(result.num_customer_drives, 20);
  EXPECT_EQ(result.store.CarIds(), (std::vector<int>{1, 2}));
  for (const trace::Trip& trip : result.store.trips()) {
    EXPECT_GE(trip.points.size(), 2u);
    EXPECT_GT(trip.total_distance_m, 0.0);
  }
}

TEST(FleetSimulatorTest, Deterministic) {
  const WeatherModel weather(3, 3);
  FleetOptions options;
  options.num_cars = 1;
  options.num_days = 3;
  const FleetSimulator fleet(&TestMap(), &weather, options);
  const FleetResult a = fleet.Run().value();
  const FleetResult b = fleet.Run().value();
  ASSERT_EQ(a.store.NumTrips(), b.store.NumTrips());
  EXPECT_EQ(a.store.NumPoints(), b.store.NumPoints());
  EXPECT_EQ(a.store.trips()[0].points[1].timestamp_s,
            b.store.trips()[0].points[1].timestamp_s);
}

TEST(FleetSimulatorTest, RejectsBadOptions) {
  const WeatherModel weather(3, 3);
  FleetOptions options;
  options.num_cars = 0;
  EXPECT_FALSE(FleetSimulator(&TestMap(), &weather, options).Run().ok());
}

TEST(FleetSimulatorTest, TripIdsUniqueAndPointIdsPerCarMonotone) {
  const WeatherModel weather(3, 4);
  FleetOptions options;
  options.num_cars = 2;
  options.num_days = 4;
  // Disable transport glitches so device order survives verbatim.
  options.sensor.timestamp_glitch_prob = 0.0;
  options.sensor.id_glitch_prob = 0.0;
  options.sensor.dup_prob = 0.0;
  const FleetSimulator fleet(&TestMap(), &weather, options);
  const FleetResult result = fleet.Run().value();
  std::set<int64_t> trip_ids;
  std::map<int, int64_t> last_id_per_car;
  for (const trace::Trip& trip : result.store.trips()) {
    EXPECT_TRUE(trip_ids.insert(trip.trip_id).second);
    for (const trace::RoutePoint& p : trip.points) {
      EXPECT_GT(p.point_id, last_id_per_car[trip.car_id]);
      last_id_per_car[trip.car_id] = p.point_id;
    }
  }
}

// Regression: a (car, day) shard that simulates zero trips must still
// advance the streaming reorder buffer's release index. With a
// near-idle fleet most shards are empty; an 8-worker run has to drain
// every shard (not deadlock or stall on an empty one) and hand the
// sink exactly the serial trip sequence.
TEST(FleetSimulatorTest, EmptyShardsStillAdvanceStreamingReleaseOrder) {
  const WeatherModel weather(3, 10);
  FleetOptions options;
  options.num_cars = 3;
  options.num_days = 10;
  // Near-idle: with the activity floor off, most car-days draw zero
  // customers and their shards emit no trips at all.
  options.mean_customers_per_day = 0.15;
  options.min_customers_per_day = 0;
  const FleetSimulator fleet(&TestMap(), &weather, options);

  class CollectSink final : public trace::TripSink {
   public:
    Status Consume(trace::Trip trip) override {
      trips.push_back(std::move(trip));
      return Status::OK();
    }
    std::vector<trace::Trip> trips;
  };

  const Executor serial(0);
  CollectSink serial_sink;
  const auto serial_stats = fleet.Run(&serial, &serial_sink);
  ASSERT_TRUE(serial_stats.ok()) << serial_stats.status().ToString();

  // The premise of the regression: some shards really were empty.
  ASSERT_LT(serial_stats->trips_simulated,
            static_cast<int64_t>(options.num_cars) * options.num_days);
  ASSERT_GT(serial_stats->trips_simulated, 0);

  const Executor parallel(8);
  CollectSink parallel_sink;
  const auto parallel_stats = fleet.Run(&parallel, &parallel_sink);
  ASSERT_TRUE(parallel_stats.ok()) << parallel_stats.status().ToString();

  EXPECT_EQ(parallel_stats->trips_simulated, serial_stats->trips_simulated);
  EXPECT_EQ(parallel_stats->points_simulated, serial_stats->points_simulated);
  ASSERT_EQ(parallel_sink.trips.size(), serial_sink.trips.size());
  for (size_t i = 0; i < serial_sink.trips.size(); ++i) {
    EXPECT_EQ(parallel_sink.trips[i].trip_id, serial_sink.trips[i].trip_id);
    EXPECT_EQ(parallel_sink.trips[i].car_id, serial_sink.trips[i].car_id);
    EXPECT_EQ(parallel_sink.trips[i].points.size(),
              serial_sink.trips[i].points.size());
  }
}

// A car-day numbers its trips and points from fixed budgets; running
// past one returns a Status naming it instead of aborting the process.
TEST(FleetSimulatorTest, ShardIdBudgetBoundary) {
  EXPECT_TRUE(CheckShardIdBudget(kTripIdStride, kPointIdStride).ok());
  EXPECT_TRUE(CheckShardIdBudget(0, 0).ok());
  const Status trips = CheckShardIdBudget(kTripIdStride + 1, 0);
  EXPECT_EQ(trips.code(), StatusCode::kOutOfRange);
  EXPECT_NE(trips.message().find("trips"), std::string::npos);
  const Status points = CheckShardIdBudget(0, kPointIdStride + 1);
  EXPECT_EQ(points.code(), StatusCode::kOutOfRange);
  EXPECT_NE(points.message().find("point ids"), std::string::npos);
}

// RunShards hands every shard to the callback exactly once, and a
// callback error surfaces as the lowest failing shard's, whatever the
// worker count.
TEST(FleetSimulatorTest, RunShardsVisitsEveryShardAndReportsLowestError) {
  const WeatherModel weather(3, 4);
  FleetOptions options;
  options.num_cars = 2;
  options.num_days = 4;
  const FleetSimulator fleet(&TestMap(), &weather, options);
  for (const int workers : {0, 8}) {
    const Executor executor(workers);
    std::vector<std::atomic<int>> seen(8);
    const Status ok = fleet.RunShards(&executor, [&](FleetShard shard) {
      seen.at(static_cast<size_t>(shard.index)).fetch_add(1);
      return Status::OK();
    });
    ASSERT_TRUE(ok.ok()) << ok.ToString();
    for (const std::atomic<int>& n : seen) EXPECT_EQ(n.load(), 1);

    const Status failed = fleet.RunShards(&executor, [](FleetShard shard) {
      return shard.index >= 5
                 ? Status::Internal(StrFormat("shard %lld",
                                              static_cast<long long>(
                                                  shard.index)))
                 : Status::OK();
    });
    EXPECT_EQ(failed, Status::Internal("shard 5")) << workers << " workers";
  }
}

}  // namespace
}  // namespace synth
}  // namespace taxitrace
