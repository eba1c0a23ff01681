// taxitrace_cli: a file-based command-line front end to the library,
// composing the pipeline stages over CSV/GeoJSON artefacts so each step
// can be inspected or swapped:
//
//   taxitrace_cli generate-map <elements.csv> <features.csv> [seed]
//   taxitrace_cli simulate <elements.csv> <features.csv> <trips.csv>
//                 [cars] [days] [seed]
//   taxitrace_cli clean <trips.csv> <segments.csv>
//   taxitrace_cli match <elements.csv> <features.csv> <segments.csv>
//                 <routes.geojson> [max_trips]
//   taxitrace_cli analyze <segments.csv>
//   taxitrace_cli study [--metrics-json <out.json>] [--stream-ingest]
//                 [--ingest-lag <slots>] [--ingest-shuffle <slots>]
//                 [cars] [days]
//   taxitrace_cli serve [--bench] [--queries <n>] [--full]
//                 [--bench-json <out.json>] [cars] [days]
//
// Numeric arguments are whole decimal integers in range (cars, days,
// queries >= 1; lags and shuffle windows >= 0); anything else is a
// usage error, exit code 2.
//
// `study` runs the end-to-end synthetic study (SmallStudy scale unless
// cars/days are given) with observability enabled and prints the stage
// funnel and span tree; --metrics-json additionally writes the full
// metrics snapshot (funnel, counters, gauges, histograms, spans).
// --stream-ingest replays every car's trace through the online
// ingestion path (bounded-lag order repair, per-window clean + match)
// instead of the batch stages and prints the ingest latency summary;
// --ingest-lag and --ingest-shuffle set the watermark lag and the
// adversarial arrival shuffle, both in arrival slots.
//
// `serve` runs a study, freezes it into a taxitrace-snapshot/1 buffer,
// and answers demonstration point/bbox/scenario-slice queries over it.
// --bench replays a hot-cell Zipf workload (1M queries unless
// --queries overrides it) through the executor and writes QPS and
// latency percentiles to BENCH_serve.json (--full benches the
// paper-scale study; TAXITRACE_BENCH_SMOKE=1 tags the JSON so smoke
// runs never pass for full numbers).

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "parse_arg.h"
#include "taxitrace/analysis/grid.h"
#include "taxitrace/analysis/od_matrix.h"
#include "taxitrace/analysis/temporal.h"
#include "taxitrace/clean/cleaning_pipeline.h"
#include "taxitrace/common/histogram.h"
#include "taxitrace/common/strings.h"
#include "taxitrace/core/figures.h"
#include "taxitrace/core/pipeline.h"
#include "taxitrace/core/reports.h"
#include "taxitrace/obs/observability.h"
#include "taxitrace/geo/simplify.h"
#include "taxitrace/mapmatch/incremental_matcher.h"
#include "taxitrace/model/significance.h"
#include "taxitrace/roadnet/map_io.h"
#include "taxitrace/serve/query_engine.h"
#include "taxitrace/serve/replay.h"
#include "taxitrace/serve/snapshot.h"
#include "taxitrace/stream/ingest_session.h"
#include "taxitrace/synth/city_map_generator.h"
#include "taxitrace/synth/fleet_simulator.h"
#include "taxitrace/trace/trace_io.h"

namespace {

using namespace taxitrace;

const geo::LatLon kOrigin{65.0121, 25.4682};

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int GenerateMap(int argc, char** argv) {
  if (argc < 4) return 2;
  synth::CityMapOptions options;
  if (argc > 4 && !ParseArg(argv[4], &options.seed)) return 2;
  const Result<synth::CityMap> map = synth::GenerateCityMap(options);
  if (!map.ok()) return Fail(map.status());
  Status st = roadnet::WriteElementsFile(argv[2], map->source_elements);
  if (!st.ok()) return Fail(st);
  st = roadnet::WriteFeaturesFile(argv[3], map->source_features);
  if (!st.ok()) return Fail(st);
  std::printf("map: %zu traffic elements, %zu features -> %s, %s\n",
              map->source_elements.size(), map->source_features.size(),
              argv[2], argv[3]);
  return 0;
}

Result<synth::CityMap> LoadMap(const char* elements_path,
                               const char* features_path) {
  TAXITRACE_ASSIGN_OR_RETURN(const auto elements,
                             roadnet::ReadElementsFile(elements_path));
  TAXITRACE_ASSIGN_OR_RETURN(const auto features,
                             roadnet::ReadFeaturesFile(features_path));
  // Rebuild a CityMap-shaped world around the loaded inputs. Gates and
  // hotspots are generator artefacts; for CLI matching/analysis only the
  // network matters, so regenerate them from the default seed.
  TAXITRACE_ASSIGN_OR_RETURN(synth::CityMap map, synth::GenerateCityMap());
  TAXITRACE_ASSIGN_OR_RETURN(
      map.network,
      roadnet::PrepareRoadNetwork(elements, features, kOrigin));
  map.source_elements = elements;
  map.source_features = features;
  return map;
}

int Simulate(int argc, char** argv) {
  if (argc < 5) return 2;
  const Result<synth::CityMap> map = LoadMap(argv[2], argv[3]);
  if (!map.ok()) return Fail(map.status());
  synth::FleetOptions options;
  if ((argc > 5 && !ParseArg(argv[5], &options.num_cars, 1)) ||
      (argc > 6 && !ParseArg(argv[6], &options.num_days, 1)) ||
      (argc > 7 && !ParseArg(argv[7], &options.seed))) {
    return 2;
  }
  const synth::WeatherModel weather(options.seed + 1, options.num_days);
  const synth::FleetSimulator fleet(&*map, &weather, options);
  const Result<synth::FleetResult> result = fleet.Run();
  if (!result.ok()) return Fail(result.status());
  const Status st =
      trace::WriteTripsFile(argv[4], result->store.trips());
  if (!st.ok()) return Fail(st);
  std::printf("simulated %zu raw trips (%zu points) -> %s\n",
              result->store.NumTrips(), result->store.NumPoints(),
              argv[4]);
  return 0;
}

int Clean(int argc, char** argv) {
  if (argc < 4) return 2;
  const Result<std::vector<trace::Trip>> trips =
      trace::ReadTripsFile(argv[2]);
  if (!trips.ok()) return Fail(trips.status());
  trace::TraceStore store;
  for (const trace::Trip& t : *trips) {
    const Status st = store.AddTrip(t);
    if (!st.ok()) return Fail(st);
  }
  clean::CleaningReport report;
  const Result<std::vector<trace::Trip>> cleaned =
      clean::CleanTrips(store, {}, &report);
  if (!cleaned.ok()) return Fail(cleaned.status());
  const std::vector<trace::Trip>& segments = *cleaned;
  const Status st = trace::WriteTripsFile(argv[3], segments);
  if (!st.ok()) return Fail(st);
  std::printf("%s", core::FormatTable2Report(report).c_str());
  std::printf("cleaned segments -> %s\n", argv[3]);
  return 0;
}

int Match(int argc, char** argv) {
  if (argc < 6) return 2;
  const Result<synth::CityMap> map = LoadMap(argv[2], argv[3]);
  if (!map.ok()) return Fail(map.status());
  const Result<std::vector<trace::Trip>> segments =
      trace::ReadTripsFile(argv[4]);
  if (!segments.ok()) return Fail(segments.status());
  size_t max_trips = 200;
  if (argc > 6 && !ParseArg(argv[6], &max_trips)) return 2;

  const roadnet::SpatialIndex index(&map->network);
  const mapmatch::IncrementalMatcher matcher(&map->network, &index);
  const geo::LocalProjection& proj = map->network.projection();
  std::string json = "{\"type\":\"FeatureCollection\",\"features\":[";
  size_t matched_count = 0;
  for (const trace::Trip& segment : *segments) {
    if (matched_count >= max_trips) break;
    const Result<mapmatch::MatchedRoute> matched = matcher.Match(segment);
    if (!matched.ok()) continue;
    const geo::Polyline line = geo::Simplify(matched->geometry, 3.0);
    if (matched_count > 0) json += ",";
    json +=
        "{\"type\":\"Feature\",\"geometry\":{\"type\":\"LineString\","
        "\"coordinates\":[";
    for (size_t i = 0; i < line.points().size(); ++i) {
      if (i > 0) json += ",";
      const geo::LatLon ll = proj.Inverse(line.points()[i]);
      json += StrFormat("[%.6f,%.6f]", ll.lon_deg, ll.lat_deg);
    }
    json += StrFormat(
        "]},\"properties\":{\"trip_id\":%lld,\"length_m\":%.0f,"
        "\"gaps\":%d}}",
        static_cast<long long>(segment.trip_id), matched->length_m,
        matched->gaps_filled);
    ++matched_count;
  }
  json += "]}";
  const Status st = core::WriteTextFile(argv[5], json);
  if (!st.ok()) return Fail(st);
  std::printf("matched %zu segments -> %s\n", matched_count, argv[5]);
  return 0;
}

int Analyze(int argc, char** argv) {
  if (argc < 3) return 2;
  const Result<std::vector<trace::Trip>> segments =
      trace::ReadTripsFile(argv[2]);
  if (!segments.ok()) return Fail(segments.status());

  const geo::LocalProjection proj(kOrigin);
  const analysis::Grid grid(200.0);
  model::OneWayReml reml;
  std::unordered_map<analysis::CellId, size_t, analysis::CellIdHash>
      groups;
  Histogram speeds(0.0, 80.0, 16);
  std::vector<const trace::Trip*> trip_ptrs;
  for (const trace::Trip& t : *segments) trip_ptrs.push_back(&t);
  for (const trace::Trip& t : *segments) {
    for (const trace::RoutePoint& p : t.points) {
      const analysis::CellId cell =
          grid.CellOf(proj.Forward(p.position));
      const auto [it, inserted] = groups.emplace(cell, groups.size());
      reml.Add(it->second, p.speed_kmh);
      speeds.Add(p.speed_kmh);
    }
  }
  std::printf("%zu segments, %lld point speeds in %zu cells\n\n",
              segments->size(),
              static_cast<long long>(reml.num_observations()),
              groups.size());
  std::printf("Point speed distribution (km/h):\n%s\n",
              speeds.Render(40).c_str());

  const auto hourly = analysis::HourlySpeedSeries(trip_ptrs);
  std::printf("Rush-hour slowdown vs off-peak: %.1f km/h\n",
              analysis::RushHourSlowdownKmh(hourly));

  const auto flows = analysis::BuildOdMatrix(trip_ptrs, proj);
  std::printf("\nTop origin-destination flows (600 m zones):\n");
  for (size_t i = 0; i < flows.size() && i < 5; ++i) {
    std::printf(
        "  (%2d,%2d) -> (%2d,%2d): %lld trips, %.1f km, %.1f min mean\n",
        flows[i].origin.cx, flows[i].origin.cy, flows[i].destination.cx,
        flows[i].destination.cy, static_cast<long long>(flows[i].trips),
        flows[i].mean_distance_km, flows[i].mean_duration_min);
  }
  std::printf("  intra-zone share: %.0f%% of %lld trips\n",
              100.0 * analysis::IntraZoneShare(flows),
              static_cast<long long>(analysis::TotalFlows(flows)));

  const Result<model::OneWayRemlFit> fit = reml.Fit();
  if (fit.ok()) {
    const Result<model::RandomEffectLrt> lrt =
        model::TestRandomEffect(reml);
    std::printf(
        "Mixed model: mu %.1f km/h, cell sd %.1f, residual sd %.1f",
        fit->mu, std::sqrt(fit->sigma2_group),
        std::sqrt(fit->sigma2_residual));
    if (lrt.ok()) {
      std::printf(", geography LRT %.1f (p %s)", lrt->statistic,
                  lrt->p_value < 1e-12 ? "< 1e-12" : "small");
    }
    std::printf("\n");
  }
  return 0;
}

// The optional [cars] [days] positionals of `study` and `serve`, each at
// least 1; at most two positionals.
bool ParseStudySize(const std::vector<const char*>& positional,
                    core::StudyConfig* config) {
  return positional.size() <= 2 &&
         (positional.empty() ||
          ParseArg(positional[0], &config->fleet.num_cars, 1)) &&
         (positional.size() < 2 ||
          ParseArg(positional[1], &config->fleet.num_days, 1));
}

int Study(int argc, char** argv) {
  const char* metrics_path = nullptr;
  bool stream_ingest = false;
  int64_t ingest_lag = -1;
  int64_t ingest_shuffle = -1;
  std::vector<const char*> positional;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics-json") == 0) {
      if (i + 1 >= argc) return 2;
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--stream-ingest") == 0) {
      stream_ingest = true;
    } else if (std::strcmp(argv[i], "--ingest-lag") == 0) {
      if (i + 1 >= argc || !ParseArg(argv[++i], &ingest_lag, int64_t{0})) {
        return 2;
      }
    } else if (std::strcmp(argv[i], "--ingest-shuffle") == 0) {
      if (i + 1 >= argc ||
          !ParseArg(argv[++i], &ingest_shuffle, int64_t{0})) {
        return 2;
      }
    } else {
      positional.push_back(argv[i]);
    }
  }
  core::StudyConfig config = core::StudyConfig::SmallStudy();
  config.observability.enabled = true;
  config.stream_ingestion = stream_ingest;
  if (ingest_lag >= 0) config.ingest.reorder_lag = ingest_lag;
  if (ingest_shuffle >= 0) {
    config.ingest.arrival_shuffle_window = ingest_shuffle;
  }
  if (!ParseStudySize(positional, &config)) return 2;

  const core::Pipeline pipeline(config);
  const Result<core::StudyResults> results = pipeline.Run();
  if (!results.ok()) return Fail(results.status());

  std::printf("study: %d cars x %d days, %lld raw trips, "
              "%zu matched transitions, mean speed %.1f km/h\n\n",
              config.fleet.num_cars, config.fleet.num_days,
              static_cast<long long>(results->raw_trips),
              results->transitions.size(),
              results->overall_mean_speed_kmh);
  if (stream_ingest) {
    const stream::IngestStats& ing = results->ingest_stats;
    std::printf(
        "online ingestion: lag %lld slots, shuffle window %lld, "
        "%lld points released / %lld offered (%lld late), "
        "%lld windows closed, latency p50/p90/p99/max = "
        "%lld/%lld/%lld/%lld slots, peak buffer %lld\n\n",
        static_cast<long long>(config.ingest.reorder_lag),
        static_cast<long long>(config.ingest.arrival_shuffle_window),
        static_cast<long long>(ing.points_released),
        static_cast<long long>(ing.points_offered),
        static_cast<long long>(ing.points_dropped_late),
        static_cast<long long>(ing.windows_closed),
        static_cast<long long>(stream::IngestLatencyQuantile(ing, 0.5)),
        static_cast<long long>(stream::IngestLatencyQuantile(ing, 0.9)),
        static_cast<long long>(stream::IngestLatencyQuantile(ing, 0.99)),
        static_cast<long long>(stream::IngestLatencyMax(ing)),
        static_cast<long long>(ing.peak_buffered_records));
  }
  std::printf("%s", obs::SnapshotText(results->observability).c_str());
  if (metrics_path != nullptr) {
    const Status st = core::WriteTextFile(
        metrics_path, obs::SnapshotJson(results->observability));
    if (!st.ok()) return Fail(st);
    std::printf("metrics snapshot -> %s\n", metrics_path);
  }
  return 0;
}

int Serve(int argc, char** argv) {
  bool bench = false;
  bool full = false;
  int64_t queries = 1'000'000;
  const char* bench_json = "BENCH_serve.json";
  std::vector<const char*> positional;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--bench") == 0) {
      bench = true;
    } else if (std::strcmp(argv[i], "--full") == 0) {
      full = true;
    } else if (std::strcmp(argv[i], "--queries") == 0) {
      if (i + 1 >= argc || !ParseArg(argv[++i], &queries, int64_t{1})) {
        return 2;
      }
    } else if (std::strcmp(argv[i], "--bench-json") == 0) {
      if (i + 1 >= argc) return 2;
      bench_json = argv[++i];
    } else {
      positional.push_back(argv[i]);
    }
  }
  core::StudyConfig config = full ? core::StudyConfig::FullStudy()
                                  : core::StudyConfig::SmallStudy();
  if (!ParseStudySize(positional, &config)) return 2;
  const char* smoke_env = std::getenv("TAXITRACE_BENCH_SMOKE");
  const bool smoke =
      smoke_env != nullptr && smoke_env[0] != '\0' && smoke_env[0] != '0';

  const core::Pipeline pipeline(config);
  const Result<core::StudyResults> results = pipeline.Run();
  if (!results.ok()) return Fail(results.status());

  const Executor executor(Executor::ResolveThreadCount(config.num_threads));
  using Clock = std::chrono::steady_clock;
  const Clock::time_point build_begin = Clock::now();
  const Result<std::string> bytes =
      serve::SnapshotBuilder().Build(*results, &executor);
  if (!bytes.ok()) return Fail(bytes.status());
  const double build_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - build_begin)
          .count();
  const Result<serve::Snapshot> snapshot = serve::Snapshot::FromBytes(*bytes);
  if (!snapshot.ok()) return Fail(snapshot.status());
  const serve::SnapshotMeta& meta = snapshot->meta();
  std::printf(
      "serve: %d cars x %d days -> taxitrace-snapshot/1, %zu bytes\n"
      "  %lld cells in [%d,%d]x[%d,%d], %lld slices, %lld points, "
      "built in %.1f ms\n\n",
      config.fleet.num_cars, config.fleet.num_days, snapshot->bytes().size(),
      static_cast<long long>(meta.num_cells), meta.min_cx, meta.max_cx,
      meta.min_cy, meta.max_cy, static_cast<long long>(meta.num_slices),
      static_cast<long long>(meta.total_points), build_ms);

  // Demonstration queries: the busiest cell as a point lookup, its
  // weekend slice, and a 3x3 bbox around it.
  int64_t hottest = -1;
  int64_t hottest_n = 0;
  for (int64_t i = 0; i < snapshot->num_cells(); ++i) {
    const int64_t n = snapshot->moments(0, i).n;
    if (n > hottest_n) {
      hottest_n = n;
      hottest = i;
    }
  }
  if (hottest >= 0) {
    serve::QueryEngine engine(&*snapshot);
    const analysis::Grid grid(meta.cell_size_m);
    const analysis::CellId cell = snapshot->cell(hottest);
    const geo::EnPoint center = grid.CellCenter(cell);
    serve::CellStats stats;
    if (engine.PointQuery(center, 0, &stats) ==
        serve::QueryOutcome::kAnswered) {
      std::printf(
          "  point (%.0f, %.0f) -> cell (%d,%d): n %lld, "
          "%.1f +/- %.1f km/h, blup %+.2f (model n %lld)\n",
          center.x, center.y, stats.cell.cx, stats.cell.cy,
          static_cast<long long>(stats.n), stats.mean_speed_kmh,
          std::sqrt(stats.speed_variance), stats.model.blup,
          static_cast<long long>(stats.model.n));
    }
    if (engine.SliceQuery(center, serve::SliceKind::kDayType, 1, &stats) ==
        serve::QueryOutcome::kAnswered) {
      std::printf("  weekend slice          -> n %lld, %.1f km/h\n",
                  static_cast<long long>(stats.n), stats.mean_speed_kmh);
    }
    const geo::Bbox cell_bounds = grid.CellBounds(cell);
    const geo::Bbox box{cell_bounds.min_x - meta.cell_size_m,
                        cell_bounds.min_y - meta.cell_size_m,
                        cell_bounds.max_x + meta.cell_size_m,
                        cell_bounds.max_y + meta.cell_size_m};
    std::vector<serve::CellStats> box_stats;
    if (engine.BboxQuery(box, 0, &box_stats) ==
        serve::QueryOutcome::kAnswered) {
      int64_t box_n = 0;
      for (const serve::CellStats& s : box_stats) box_n += s.n;
      std::printf("  3x3 bbox               -> %zu cells, %lld points\n\n",
                  box_stats.size(), static_cast<long long>(box_n));
    }
  }
  if (!bench) return 0;

  serve::WorkloadOptions workload;
  workload.num_queries = queries;
  obs::MetricsRegistry metrics;
  obs::FunnelLedger funnel;
  const Result<serve::ReplayResult> replay = serve::ReplayWorkload(
      *snapshot, workload, &executor, &metrics, &funnel);
  if (!replay.ok()) return Fail(replay.status());
  std::printf("%s\n", funnel.Table().c_str());
  std::printf(
      "replay: %lld queries (%d workers), %.1f ms wall -> %.0f qps\n"
      "  latency p50/p90/p99/max = %.2f/%.2f/%.2f/%.2f us, "
      "digest 0x%016llx\n",
      static_cast<long long>(replay->num_queries), executor.num_threads(),
      replay->wall_ms, replay->qps, replay->p50_us, replay->p90_us,
      replay->p99_us, replay->max_us,
      static_cast<unsigned long long>(replay->digest));

  std::string json;
  char line[512];
  json += "{\n";
  json += "  \"schema\": \"taxitrace-bench-serve/1\",\n";
  std::snprintf(line, sizeof line, "  \"smoke\": %s,\n",
                smoke ? "true" : "false");
  json += line;
  std::snprintf(line, sizeof line,
                "  \"study\": {\"cars\": %d, \"days\": %d},\n",
                config.fleet.num_cars, config.fleet.num_days);
  json += line;
  std::snprintf(line, sizeof line,
                "  \"snapshot\": {\"bytes\": %zu, \"cells\": %lld, "
                "\"slices\": %lld, \"build_ms\": %.2f},\n",
                snapshot->bytes().size(),
                static_cast<long long>(meta.num_cells),
                static_cast<long long>(meta.num_slices), build_ms);
  json += line;
  std::snprintf(
      line, sizeof line,
      "  \"workload\": {\"queries\": %lld, \"zipf_exponent\": %.2f,\n"
      "    \"point_share\": %.2f, \"bbox_share\": %.2f, "
      "\"slice_share\": %.2f, \"shards\": %d},\n",
      static_cast<long long>(workload.num_queries), workload.zipf_exponent,
      workload.point_share, workload.bbox_share, workload.slice_share,
      workload.num_shards);
  json += line;
  std::snprintf(
      line, sizeof line,
      "  \"funnel\": {\"offered\": %lld, \"answered\": %lld,\n"
      "    \"out_of_bounds\": %lld, \"empty_cell\": %lld},\n",
      static_cast<long long>(replay->stats.offered),
      static_cast<long long>(replay->stats.answered),
      static_cast<long long>(replay->stats.out_of_bounds),
      static_cast<long long>(replay->stats.empty_cell));
  json += line;
  std::snprintf(line, sizeof line,
                "  \"latency_us\": {\"p50\": %.2f, \"p90\": %.2f, "
                "\"p99\": %.2f, \"max\": %.2f},\n",
                replay->p50_us, replay->p90_us, replay->p99_us,
                replay->max_us);
  json += line;
  std::snprintf(line, sizeof line,
                "  \"throughput\": {\"wall_ms\": %.2f, \"qps\": %.0f, "
                "\"workers\": %d},\n",
                replay->wall_ms, replay->qps, executor.num_threads());
  json += line;
  std::snprintf(line, sizeof line, "  \"digest\": \"0x%016llx\"\n",
                static_cast<unsigned long long>(replay->digest));
  json += line;
  json += "}\n";
  const Status st = core::WriteTextFile(bench_json, json);
  if (!st.ok()) return Fail(st);
  std::printf("bench data -> %s\n", bench_json);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(
        stderr,
        "usage: taxitrace_cli "
        "generate-map|simulate|clean|match|analyze|study|serve ...\n");
    return 2;
  }
  int rc = 2;
  if (std::strcmp(argv[1], "generate-map") == 0) {
    rc = GenerateMap(argc, argv);
  } else if (std::strcmp(argv[1], "simulate") == 0) {
    rc = Simulate(argc, argv);
  } else if (std::strcmp(argv[1], "clean") == 0) {
    rc = Clean(argc, argv);
  } else if (std::strcmp(argv[1], "match") == 0) {
    rc = Match(argc, argv);
  } else if (std::strcmp(argv[1], "analyze") == 0) {
    rc = Analyze(argc, argv);
  } else if (std::strcmp(argv[1], "study") == 0) {
    rc = Study(argc, argv);
  } else if (std::strcmp(argv[1], "serve") == 0) {
    rc = Serve(argc, argv);
  }
  if (rc == 2) {
    std::fprintf(stderr, "bad arguments; see the header comment\n");
  }
  return rc;
}
