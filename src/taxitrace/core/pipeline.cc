#include "taxitrace/core/pipeline.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "taxitrace/analysis/grid.h"
#include "taxitrace/clean/cleaning_pipeline.h"
#include "taxitrace/clean/sanitize.h"
#include "taxitrace/common/executor.h"
#include "taxitrace/common/reorder_buffer.h"
#include "taxitrace/common/strings.h"
#include "taxitrace/core/segment_match.h"
#include "taxitrace/core/shard_ingest.h"
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

// Runs the fused unit on each window an IngestSession closes. The
// output's counters fold at once, under `fold_mu`, since they add up in
// any order; its matched transitions wait in `transitions`, in release
// order, which is the car's store order, for the ordered fold. So each
// car holds its few transitions, not a TripMatchOutput per window.
struct WindowSink final : public trace::TripSink {
  const clean::CleaningOptions* options = nullptr;
  const SegmentMatchContext* context = nullptr;
  std::mutex* fold_mu = nullptr;
  std::function<void(const TripMatchOutput&)> fold_counts;
  std::vector<MatchedTransition>* transitions = nullptr;
  Status Consume(trace::Trip trip) override {
    TripMatchOutput out =
        CleanAndMatchTrip(std::move(trip), *options, *context);
    {
      const std::lock_guard<std::mutex> lock(*fold_mu);
      fold_counts(out);
    }
    for (SegmentMatchOutput& segment : out.matches) {
      for (MatchedTransition& mt : segment.transitions) {
        transitions->push_back(std::move(mt));
      }
    }
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
  TAXITRACE_RETURN_IF_ERROR(config_.faults.Validate());
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

  // The one fold over the fused unit's outputs. It builds the whole
  // cleaning report, raw counts included, the Table 3 rows, the funnel
  // totals and the transition list. The cleaned segments were freed on
  // the workers; the fold keeps counts and matched transitions only.
  // Its counters are integers (and histogram counts), so they add up to
  // the same totals in any order; the transition list and the match
  // report's running mean do not, so every source hands the fold each
  // raw trip's transitions in store order.
  clean::CleaningReport& report = results.cleaning_report;
  obs::HistogramMetric* points_per_segment =
      metrics != nullptr ? clean::PointsPerSegmentHistogram(metrics)
                         : nullptr;
  std::unordered_map<int, odselect::Table3Row> rows_by_car;
  SegmentMatchOutput match_totals;  // Counters only, no transitions.
  const auto fold_counts = [&](const TripMatchOutput& trip) {
    ++report.raw_trips;
    report.raw_points += trip.raw_points;
    clean::FoldTripCleanOutput(trip.clean, &report);
    odselect::Table3Row& row = rows_by_car[trip.car_id];
    for (const SegmentMatchOutput& segment : trip.matches) {
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
    }
  };
  const auto fold_transition = [&](MatchedTransition& mt) {
    results.match_report.Add(mt.route);
    results.transitions.push_back(std::move(mt));
  };
  const auto fold = [&](TripMatchOutput& trip) {
    fold_counts(trip);
    for (SegmentMatchOutput& segment : trip.matches) {
      for (MatchedTransition& mt : segment.transitions) fold_transition(mt);
    }
  };

  // 2. Raw traces. Every study runs the fused unit on each (car, day)
  // shard as it is simulated, so raw points never all exist at once:
  // batch on the worker that simulated the shard, online ingestion in
  // each car's session (ShardIngest), which the car's day buffer feeds.
  // A fault plan first corrupts each shard on that worker; the corrupted
  // input calls for the sanitiser, gated to the study region.
  obs::StageSpan sim_span(&trace, "simulation");
  const synth::FleetSimulator fleet(&results.map, &results.weather,
                                    config_.fleet, &results.pedestrians);
  const bool stream_ingest = config_.stream_ingestion;
  const bool faulted = config_.faults.Any();
  clean::CleaningOptions cleaning_options = config_.cleaning;
  const fault::FaultInjector injector(config_.faults);
  std::mutex faults_mu;
  fault::FaultTally faults;  // Guarded by faults_mu.
  std::function<Status(synth::FleetShard&)> corrupt_shard;
  if (faulted) {
    clean::GateToStudyRegion(results.map.network.Bounds(), proj,
                             &cleaning_options.sanitize);
    corrupt_shard = [&](synth::FleetShard& shard) -> Status {
      fault::FaultTally tally;
      TAXITRACE_RETURN_IF_ERROR(
          injector.CorruptShard(shard.index, &shard.trips, &tally));
      const std::lock_guard<std::mutex> lock(faults_mu);
      faults.Add(tally);
      return Status::OK();
    };
  }

  // Online ingestion's per-car matched transitions, folded in car order
  // in stage 4, and the sinks that run the fused unit on each window.
  std::mutex fold_mu;
  std::vector<std::vector<MatchedTransition>> car_transitions;
  std::vector<WindowSink> window_sinks;
  std::optional<ShardIngest> shard_ingest;

  int64_t points_delivered = 0;
  int64_t peak_buffered_shards = 0;
  if (stream_ingest) {
    // A fleet without cars gets no sinks; Simulate then reports it.
    const auto num_cars =
        static_cast<size_t>(std::max(config_.fleet.num_cars, 0));
    car_transitions.resize(num_cars);
    window_sinks.resize(num_cars);
    std::vector<trace::TripSink*> sinks;
    for (size_t c = 0; c < num_cars; ++c) {
      window_sinks[c].options = &cleaning_options;
      window_sinks[c].context = &match_context;
      window_sinks[c].fold_mu = &fold_mu;
      window_sinks[c].fold_counts = fold_counts;
      window_sinks[c].transitions = &car_transitions[c];
      sinks.push_back(&window_sinks[c]);
    }
    shard_ingest.emplace(&fleet, config_.ingest, sinks);
    TAXITRACE_RETURN_IF_ERROR(shard_ingest->Simulate(executor, corrupt_shard));
    results.raw_trips = shard_ingest->trips_simulated();
    points_delivered = shard_ingest->points_simulated();
    peak_buffered_shards = shard_ingest->peak_buffered_shards();
  } else {
    ReorderBuffer<std::vector<TripMatchOutput>> merge(
        [&](std::vector<TripMatchOutput> shard) -> Status {
          for (TripMatchOutput& trip : shard) fold(trip);
          return Status::OK();
        });
    const auto clean_shard = [&](synth::FleetShard shard) -> Status {
      if (corrupt_shard) TAXITRACE_RETURN_IF_ERROR(corrupt_shard(shard));
      std::vector<TripMatchOutput> out;
      out.reserve(shard.trips.size());
      for (trace::Trip& trip : shard.trips) {
        out.push_back(
            CleanAndMatchTrip(std::move(trip), cleaning_options, match_context));
      }
      return merge.Deposit(shard.index, std::move(out));
    };
    TAXITRACE_RETURN_IF_ERROR(fleet.RunShards(&executor, clean_shard));
    peak_buffered_shards = merge.peak_buffered();
    results.raw_trips = report.raw_trips;
    points_delivered = report.raw_points;
  }
  // The identity source stages count the raw volume entering the
  // pipeline, before any fault injection.
  const int64_t trips_simulated =
      faulted ? faults.trips_in : results.raw_trips;
  const int64_t points_simulated =
      faulted ? faults.points_in : points_delivered;
  if (collect) {
    funnel_ledger.AddStage("trips.simulated", "trips", trips_simulated,
                           trips_simulated);
    funnel_ledger.AddStage("points.simulated", "points", points_simulated,
                           points_simulated);
    if (faulted) faults.AddFunnelRows(config_.faults.AnyFileFaults(), funnel);
  }
  sim_span.AddItems(trips_simulated);
  sim_span.Finish();

  // 3. Online ingestion: one session per car, undoing the arrival
  // shuffle under the watermark and running the fused unit on each
  // window the moment it closes. The sessions already took every
  // simulated trip; what is left is to end each car's stream, one car
  // per work item. Sessions share no state and their stats fold in car
  // order, so the results equal the same study's without ingestion at
  // any worker count whenever the displacement fits the lossless bound.
  if (stream_ingest) {
    obs::StageSpan ingest_span(&trace, "stream_ingestion");
    TAXITRACE_RETURN_IF_ERROR(shard_ingest->FinishStreams(executor));
    for (size_t c = 0; c < shard_ingest->num_cars(); ++c) {
      results.ingest_stats.Add(shard_ingest->car_stats(c));
    }
    if (collect) {
      stream::PublishIngestMetrics(results.ingest_stats, &funnel_ledger,
                                   &registry);
    }
    ingest_span.AddItems(results.ingest_stats.points_offered +
                         results.ingest_stats.trip_markers_offered);
  }

  // 4. Cleaning: the ingest source folds its per-car transitions in car
  // order. A batch study has nothing left to do here.
  obs::StageSpan clean_span(&trace, "cleaning");
  if (stream_ingest) {
    // Car order, each car's windows in release order, is the batch
    // fold's (car, day, trip) order: each session releases its windows
    // in its car's (day, trip) order. A trip lost wholesale in ingestion
    // has no window; its records are accounted in the funnel's ingest
    // drops.
    for (std::vector<MatchedTransition>& transitions : car_transitions) {
      for (MatchedTransition& mt : transitions) fold_transition(mt);
    }
  }
  if (collect) {
    clean::PublishCleaningMetrics(report, metrics);
    clean::AddCleaningFunnelRows(report, funnel);
  }
  report.faults.Add(faults.report);
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
      count("fault.injected_total", faults.report.TotalInjected());
      count("fault.dropped_total", report.faults.TotalDropped());
    }
    // How many shards finished ahead of a slower predecessor (of the
    // same car, on the ingest source): set by scheduling, not by the
    // data, hence a gauge.
    registry.gauge("synth.peak_buffered_shards")
        ->Set(static_cast<double>(peak_buffered_shards));

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
