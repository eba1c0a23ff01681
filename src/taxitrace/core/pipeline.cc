#include "taxitrace/core/pipeline.h"

#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "taxitrace/analysis/grid.h"
#include "taxitrace/clean/cleaning_pipeline.h"
#include "taxitrace/common/executor.h"
#include "taxitrace/common/reorder_buffer.h"
#include "taxitrace/common/strings.h"
#include "taxitrace/core/segment_match.h"
#include "taxitrace/fault/fault_injector.h"
#include "taxitrace/odselect/transition_extractor.h"
#include "taxitrace/stream/ingest_session.h"
#include "taxitrace/trace/trip_sink.h"

namespace taxitrace {
namespace core {

std::vector<analysis::TransitionRecord> StudyResults::Records() const {
  std::vector<analysis::TransitionRecord> out;
  out.reserve(transitions.size());
  for (const MatchedTransition& mt : transitions) out.push_back(mt.record);
  return out;
}

Pipeline::Pipeline(StudyConfig config) : config_(std::move(config)) {}

namespace {

// Runs the fused unit on each window an IngestSession closes, keeping
// the outputs in release order, which is the car's store order.
struct WindowSink final : public trace::TripSink {
  const clean::CleaningOptions* options = nullptr;
  const SegmentMatchContext* context = nullptr;
  std::vector<TripMatchOutput>* out = nullptr;
  Status Consume(trace::Trip trip) override {
    out->push_back(CleanAndMatchTrip(std::move(trip), *options, *context));
    return Status::OK();
  }
};

}  // namespace

Result<StudyResults> Pipeline::Run() const {
  if (config_.num_threads > kMaxExecutorWorkers) {
    return Status::InvalidArgument(
        StrFormat("num_threads must be <= %d, got %d", kMaxExecutorWorkers,
                  config_.num_threads));
  }
  if (config_.stream_ingestion && config_.ingest.reorder_lag < 0) {
    return Status::InvalidArgument(
        StrFormat("ingest.reorder_lag must be >= 0, got %lld",
                  static_cast<long long>(config_.ingest.reorder_lag)));
  }
  if (!(std::isfinite(config_.grid_cell_m) && config_.grid_cell_m > 0.0)) {
    return Status::InvalidArgument(StrFormat(
        "grid_cell_m must be finite and > 0, got %g", config_.grid_cell_m));
  }
  const bool collect = config_.observability.enabled;
  // The span trace is always kept: StageTimings is derived from it. The
  // registry and the funnel ledger, which each stage appends its rows
  // to, only come to life on an observability run; with `collect` false
  // no metric is touched and StudyResults::observability stays empty.
  obs::Trace trace;
  obs::MetricsRegistry registry;
  obs::MetricsRegistry* metrics = collect ? &registry : nullptr;
  obs::FunnelLedger funnel_ledger;
  obs::FunnelLedger* funnel = collect ? &funnel_ledger : nullptr;

  // One worker pool for every parallel stage. 0 threads = serial
  // inline execution; either way the merged outputs are byte-identical.
  const Executor executor(Executor::ResolveThreadCount(config_.num_threads));

  // 1. Substrates: city map and weather. The results own them from here
  // on: the simulator and the matching machinery hold pointers into them.
  obs::StageSpan map_span(&trace, "map_generation");
  TAXITRACE_ASSIGN_OR_RETURN(synth::CityMap map,
                             synth::GenerateCityMap(config_.map));
  synth::WeatherModel weather(config_.weather_seed, config_.fleet.num_days);
  map_span.AddItems(static_cast<int64_t>(map.network.num_edges()));
  map_span.Finish();
  synth::PedestrianModel pedestrians(config_.fleet.seed + 17, map.hotspots,
                                     config_.fleet.num_days);
  StudyResults results(std::move(map), std::move(weather),
                       std::move(pedestrians));

  // OD gates, transition extraction and matching machinery: the shared
  // read-only state the fused clean + match unit (CleanAndMatchTrip)
  // runs against on every source's workers.
  std::vector<odselect::OdGate> gates;
  for (const synth::GateRoad& g : results.map.gates) {
    gates.emplace_back(g.name, g.geometry, config_.gate);
  }
  const geo::LocalProjection& proj = results.map.network.projection();
  const odselect::TransitionExtractor extractor(gates, proj);
  const roadnet::SpatialIndex index(&results.map.network);
  const mapmatch::IncrementalMatcher matcher(&results.map.network, &index,
                                             config_.matcher);
  const mapattr::AttributeFetcher fetcher(&results.map.network,
                                          config_.attributes);
  // Gate lookup by name, built once (the per-transition linear scan over
  // gates was O(gates x transitions)).
  std::unordered_map<std::string, const odselect::OdGate*> gate_by_name;
  for (const odselect::OdGate& g : gates) gate_by_name.emplace(g.name(), &g);
  SegmentMatchContext match_context;
  match_context.extractor = &extractor;
  match_context.gate_by_name = &gate_by_name;
  match_context.matcher = &matcher;
  match_context.fetcher = &fetcher;
  match_context.network = &results.map.network;
  match_context.central_area = &results.map.central_area;
  match_context.projection = &proj;
  match_context.region = results.map.network.Bounds().Inflated(300.0);
  match_context.transition_filter = &config_.transition_filter;
  match_context.speed = &config_.speed;
  match_context.route_cache_capacity =
      config_.matcher.gap.route_cache_capacity;

  // The one fold over the fused unit's outputs. Every source hands it
  // each raw trip's TripMatchOutput in store order, so every counter and
  // the transition list fold in one order at any worker count. It builds
  // the whole cleaning report, raw counts included. The cleaned segments
  // were freed on the workers; the fold keeps counts and matched
  // transitions only.
  clean::CleaningReport& report = results.cleaning_report;
  obs::HistogramMetric* points_per_segment =
      metrics != nullptr ? clean::PointsPerSegmentHistogram(metrics)
                         : nullptr;
  std::unordered_map<int, odselect::Table3Row> rows_by_car;
  SegmentMatchOutput match_totals;  // Counters only, no transitions.
  const auto fold = [&](TripMatchOutput& trip) {
    ++report.raw_trips;
    report.raw_points += trip.raw_points;
    clean::FoldTripCleanOutput(trip.clean, &report);
    odselect::Table3Row& row = rows_by_car[trip.car_id];
    for (SegmentMatchOutput& segment : trip.matches) {
      ++report.clean_segments;
      report.clean_points += segment.segment_points;
      if (points_per_segment != nullptr) {
        points_per_segment->Record(static_cast<double>(segment.segment_points));
      }
      ++row.segments_total;
      row.filtered_cleaned += segment.filtered_cleaned;
      row.transitions_total += segment.transitions_total;
      row.transitions_central += segment.transitions_central;
      row.post_filtered += segment.post_filtered;
      AddMatchCounts(segment, &match_totals);
      for (MatchedTransition& mt : segment.transitions) {
        results.match_report.Add(mt.route);
        results.transitions.push_back(std::move(mt));
      }
    }
  };

  // 2. Raw traces. A study runs the fused unit on each (car, day) shard
  // on the worker that simulated it, so raw points never all exist at
  // once. Only the two whole-campaign consumers build the raw trace
  // store: a fault plan (file-level faults corrupt one CSV view of all
  // trips; the fused unit then runs per store trip in stage 4) and
  // online ingestion (per window of each car's arrival stream, stage 3).
  obs::StageSpan sim_span(&trace, "simulation");
  const synth::FleetSimulator fleet(&results.map, &results.weather,
                                    config_.fleet, &results.pedestrians);
  const bool stream_ingest = config_.stream_ingestion;
  const bool faulted = config_.faults.Any();
  const bool build_store = faulted || stream_ingest;
  clean::CleaningOptions cleaning_options = config_.cleaning;

  synth::FleetResult raw;
  int64_t trips_simulated = 0;
  int64_t points_simulated = 0;
  int64_t peak_buffered_shards = 0;
  if (!build_store) {
    ReorderBuffer<std::vector<TripMatchOutput>> merge(
        [&](std::vector<TripMatchOutput> shard) -> Status {
          for (TripMatchOutput& trip : shard) fold(trip);
          return Status::OK();
        });
    TAXITRACE_RETURN_IF_ERROR(fleet.RunShards(
        &executor, [&](synth::FleetShard shard) -> Status {
          std::vector<TripMatchOutput> out;
          out.reserve(shard.trips.size());
          for (trace::Trip& trip : shard.trips) {
            out.push_back(CleanAndMatchTrip(std::move(trip), cleaning_options,
                                            match_context));
          }
          return merge.Deposit(shard.index, std::move(out));
        }));
    peak_buffered_shards = merge.peak_buffered();
    trips_simulated = report.raw_trips;
    points_simulated = report.raw_points;
  } else {
    TAXITRACE_ASSIGN_OR_RETURN(raw, fleet.Run(&executor));
    trips_simulated = static_cast<int64_t>(raw.store.NumTrips());
    points_simulated = static_cast<int64_t>(raw.store.NumPoints());
  }
  if (collect) {
    // Identity source stages: the raw volume entering the pipeline,
    // counted before any fault injection.
    funnel_ledger.AddStage("trips.simulated", "trips", trips_simulated,
                           trips_simulated);
    funnel_ledger.AddStage("points.simulated", "points", points_simulated,
                           points_simulated);
  }

  // 2.5. Fault injection, skipped entirely on a fault-free plan. The
  // corrupted input calls for the sanitiser, gated to the study region.
  fault::FaultReport injected;
  if (faulted) {
    obs::StageSpan fault_span(&trace, "fault_injection");
    TAXITRACE_ASSIGN_OR_RETURN(
        const fault::RegionGate gate,
        fault::ApplyFaultPlan(config_.faults, results.map.network.Bounds(),
                              proj, &raw.store, &injected, funnel));
    clean::SanitizeOptions& sanitize = cleaning_options.sanitize;
    sanitize.enabled = true;
    sanitize.has_region = true;
    sanitize.lat_min_deg = gate.lat_min_deg;
    sanitize.lat_max_deg = gate.lat_max_deg;
    sanitize.lon_min_deg = gate.lon_min_deg;
    sanitize.lon_max_deg = gate.lon_max_deg;
    fault_span.AddItems(injected.TotalInjected());
  }
  results.raw_trips = build_store ? static_cast<int64_t>(raw.store.NumTrips())
                                 : trips_simulated;
  sim_span.AddItems(trips_simulated);
  sim_span.Finish();

  // 3. Online ingestion: one IngestSession per car, one car per work
  // item, undoing the arrival shuffle under the watermark and running
  // the fused unit on each window the moment it closes. Sessions share
  // no state; their outputs are merged in store order below, so the
  // results equal the same study's without ingestion at any worker
  // count whenever the displacement fits the lossless bound.
  struct CarIngestOutput {
    int car_id = 0;
    std::vector<TripMatchOutput> trips;
    stream::IngestStats stats;
    size_t next = 0;  ///< Merge cursor for the store-order fold.
  };
  std::vector<CarIngestOutput> car_ingest;
  if (stream_ingest) {
    obs::StageSpan ingest_span(&trace, "stream_ingestion");
    const std::vector<int> car_ids = raw.store.CarIds();
    car_ingest.resize(car_ids.size());
    TAXITRACE_RETURN_IF_ERROR(executor.ParallelFor(
        0, static_cast<int64_t>(car_ids.size()), [&](int64_t ci) -> Status {
          CarIngestOutput& out = car_ingest[static_cast<size_t>(ci)];
          out.car_id = car_ids[static_cast<size_t>(ci)];
          WindowSink sink;
          sink.options = &cleaning_options;
          sink.context = &match_context;
          sink.out = &out.trips;
          TAXITRACE_ASSIGN_OR_RETURN(
              out.stats, stream::ReplayCarStream(raw.store, out.car_id,
                                                 config_.ingest, &sink));
          return Status::OK();
        }));
    for (const CarIngestOutput& c : car_ingest) {
      results.ingest_stats.Add(c.stats);
    }
    if (collect) {
      stream::PublishIngestMetrics(results.ingest_stats, &funnel_ledger,
                                   &registry);
    }
    ingest_span.AddItems(results.ingest_stats.points_offered +
                         results.ingest_stats.trip_markers_offered);
  }

  // 4. Cleaning: a faulted study runs the fused unit over the store's
  // trips and a reorder buffer releases each output to the fold in store
  // order; the ingest source folds its per-car windows in store order.
  // A shard-sourced study has nothing left to do here.
  obs::StageSpan clean_span(&trace, "cleaning");
  if (stream_ingest) {
    // Walk the store's trips and pull the matching window from its car's
    // queue (each queue is in per-car store order). A store trip lost
    // wholesale in ingestion is skipped; its records are accounted in
    // the funnel's ingest drops.
    std::unordered_map<int, CarIngestOutput*> outputs_by_car;
    for (CarIngestOutput& c : car_ingest) outputs_by_car.emplace(c.car_id, &c);
    for (const trace::Trip& store_trip : raw.store.trips()) {
      CarIngestOutput& c = *outputs_by_car.at(store_trip.car_id);
      if (c.next < c.trips.size() &&
          c.trips[c.next].trip_id == store_trip.trip_id) {
        fold(c.trips[c.next++]);
      }
    }
    // Windows whose container id matches no store trip cannot arise
    // from the canonical source, but work is never dropped silently:
    // fold any leftovers in car order.
    for (CarIngestOutput& c : car_ingest) {
      for (; c.next < c.trips.size(); ++c.next) fold(c.trips[c.next]);
    }
  } else if (faulted) {
    // Nothing reads the store after this point: each worker takes its
    // trip out of the vector instead of copying it.
    std::vector<trace::Trip> trips = std::move(raw.store).TakeTrips();
    ReorderBuffer<TripMatchOutput> merge([&](TripMatchOutput trip) {
      fold(trip);
      return Status::OK();
    });
    TAXITRACE_RETURN_IF_ERROR(executor.ParallelFor(
        0, static_cast<int64_t>(trips.size()), [&](int64_t i) -> Status {
          return merge.Deposit(
              i, CleanAndMatchTrip(std::move(trips[static_cast<size_t>(i)]),
                                   cleaning_options, match_context));
        }));
  }
  if (collect) {
    clean::PublishCleaningMetrics(report, metrics);
    clean::AddCleaningFunnelRows(report, funnel);
  }
  report.faults.Add(injected);
  clean_span.AddItems(report.raw_trips);
  clean_span.Finish();

  // 5. Selection + matching already ran inside the fused unit; what is
  // left is the Table 3 rows, one per car.
  obs::StageSpan match_span(&trace, "selection_matching");
  for (int car = 1; car <= config_.fleet.num_cars; ++car) {
    odselect::Table3Row row = rows_by_car[car];
    row.car_id = car;
    results.table3.push_back(row);
  }
  if (collect) {
    if (stream_ingest) {
      // Every segment surviving the cleaning filters inside a window
      // flush went straight to the matcher, hence in == out.
      funnel_ledger.AddStage("segments.emitted_online", "segments",
                             report.clean_segments, report.clean_segments);
    }
    AddSelectionFunnelRows(match_totals, report.clean_segments, funnel);
  }
  match_span.AddItems(report.clean_segments);
  match_span.Finish();

  // 6. Grid statistics over all transition point speeds.
  obs::StageSpan analysis_span(&trace, "analysis");
  results.grid_cell_m = config_.grid_cell_m;
  const analysis::Grid grid(config_.grid_cell_m);
  analysis::CellSpeedAccumulator all_speeds(grid);
  std::unordered_map<std::string, analysis::CellSpeedAccumulator>
      by_direction;
  model::OneWayReml cell_model;
  std::unordered_map<analysis::CellId, size_t, analysis::CellIdHash>
      cell_group;
  double speed_sum = 0.0;
  double season_sum[analysis::kNumSeasons] = {};
  int64_t season_n[analysis::kNumSeasons] = {};
  obs::HistogramMetric* speed_hist =
      metrics != nullptr
          ? metrics->histogram("analysis.point_speed_kmh", 0.0, 120.0, 60)
          : nullptr;

  for (const MatchedTransition& mt : results.transitions) {
    auto dir_it = by_direction.find(mt.record.direction);
    if (dir_it == by_direction.end()) {
      dir_it = by_direction
                   .emplace(mt.record.direction,
                            analysis::CellSpeedAccumulator(grid))
                   .first;
    }
    for (const trace::RoutePoint& p : mt.transition.segment.points) {
      const geo::EnPoint local = proj.Forward(p.position);
      all_speeds.Add(local, p.speed_kmh);
      dir_it->second.Add(local, p.speed_kmh);

      const analysis::CellId cell = grid.CellOf(local);
      auto [group_it, inserted] =
          cell_group.emplace(cell, results.model_cells.size());
      if (inserted) results.model_cells.push_back(cell);
      cell_model.Add(group_it->second, p.speed_kmh);

      ++results.total_point_speeds;
      speed_sum += p.speed_kmh;
      if (speed_hist != nullptr) speed_hist->Record(p.speed_kmh);
      const int season =
          static_cast<int>(analysis::SeasonOfTimestamp(p.timestamp_s));
      season_sum[season] += p.speed_kmh;
      ++season_n[season];
    }
  }
  results.overall_mean_speed_kmh =
      results.total_point_speeds > 0
          ? speed_sum / static_cast<double>(results.total_point_speeds)
          : 0.0;
  for (int s = 0; s < analysis::kNumSeasons; ++s) {
    results.seasonal[s].n = season_n[s];
    results.seasonal[s].mean_kmh =
        season_n[s] > 0 ? season_sum[s] / static_cast<double>(season_n[s])
                        : 0.0;
    results.seasonal[s].delta_kmh =
        season_n[s] > 0
            ? results.seasonal[s].mean_kmh - results.overall_mean_speed_kmh
            : 0.0;
  }

  // 7. Cell joins and the mixed model.
  results.cell_features = ComputeCellFeatures(results.map.network, grid);
  results.cells = BuildCellRecords(all_speeds, results.cell_features);
  for (const auto& [direction, acc] : by_direction) {
    results.cells_by_direction[direction] =
        BuildCellRecords(acc, results.cell_features);
  }
  if (cell_model.num_observations() > 3 && cell_model.num_groups() >= 2) {
    TAXITRACE_ASSIGN_OR_RETURN(results.cell_model, cell_model.Fit());
    TAXITRACE_ASSIGN_OR_RETURN(results.geography_lrt,
                               model::TestRandomEffect(cell_model));
  }
  analysis_span.AddItems(results.total_point_speeds);
  analysis_span.Finish();

  if (collect) {
    TAXITRACE_RETURN_IF_ERROR(funnel_ledger.CheckReconciles());

    // Deterministic work counters from the matching machinery and the
    // funnel endpoints. These feed the determinism tests; gauges below
    // do not.
    const auto count = [&registry](const char* name, int64_t n) {
      registry.counter(name)->Add(n);
    };
    const roadnet::SpatialIndexStats idx = index.stats();
    count("roadnet.spatial_index.queries", idx.queries);
    count("roadnet.spatial_index.cells_probed", idx.cells_probed);
    count("roadnet.spatial_index.candidates", idx.candidates);
    count("roadnet.spatial_index.hits", idx.hits);
    count("roadnet.spatial_index.empty_geometry_edges",
          idx.empty_geometry_edges);
    const roadnet::RouterStats rt = matcher.gap_filler().router().stats();
    count("roadnet.router.searches", rt.searches);
    count("roadnet.router.direct_connections", rt.direct_connections);
    count("roadnet.router.heap_pops", rt.heap_pops);
    count("roadnet.router.settled_vertices", rt.settled_vertices);
    count("roadnet.router.goal_directed_searches", rt.goal_directed_searches);
    count("mapmatch.route_cache.hits", match_totals.cache_hits);
    count("mapmatch.route_cache.misses", match_totals.cache_misses);
    count("mapmatch.route_cache.evictions", match_totals.cache_evictions);
    count("pipeline.trips_simulated", trips_simulated);
    count("pipeline.segments_selected", match_totals.filtered_cleaned);
    count("pipeline.transitions_matched", match_totals.post_filtered);
    count("pipeline.point_speeds", results.total_point_speeds);
    if (faulted) {
      count("fault.injected_total", injected.TotalInjected());
      count("fault.dropped_total", report.faults.TotalDropped());
    }
    if (!build_store) {
      // How many shards finished ahead of a slower predecessor: set by
      // scheduling, not by the data, hence a gauge.
      registry.gauge("synth.peak_buffered_shards")
          ->Set(static_cast<double>(peak_buffered_shards));
    }

    // Executor load: scheduling-dependent by nature, hence gauges.
    const ExecutorStats ex = executor.stats();
    registry.gauge("executor.batches")->Set(static_cast<double>(ex.batches));
    registry.gauge("executor.serial_items")
        ->Set(static_cast<double>(ex.serial_items));
    registry.gauge("executor.queue_wait_ms")->Set(ex.queue_wait_ms);
    for (size_t w = 0; w < ex.items_per_worker.size(); ++w) {
      registry.gauge(StrFormat("executor.worker%02d.items",
                               static_cast<int>(w)))
          ->Set(static_cast<double>(ex.items_per_worker[w]));
    }

    results.observability.enabled = true;
    results.observability.funnel = funnel_ledger;
    results.observability.counters = registry.Counters();
    results.observability.gauges = registry.Gauges();
    results.observability.histograms = registry.Histograms();
    results.observability.spans = trace.records();
  }

  // Back-compat StageTimings, derived from the top-level stage spans.
  StageTimings timings;
  timings.workers = executor.num_threads();
  for (const obs::SpanRecord& r : trace.records()) {
    if (r.name == "map_generation") {
      timings.map_generation_ms = r.duration_ms;
    } else if (r.name == "simulation") {
      timings.simulation_ms = r.duration_ms;
    } else if (r.name == "cleaning") {
      timings.cleaning_ms = r.duration_ms;
    } else if (r.name == "selection_matching") {
      timings.selection_matching_ms = r.duration_ms;
    } else if (r.name == "stream_ingestion") {
      timings.stream_ingest_ms = r.duration_ms;
    } else if (r.name == "analysis") {
      timings.analysis_ms = r.duration_ms;
    }
  }
  results.timings = timings;
  return results;
}

}  // namespace core
}  // namespace taxitrace
