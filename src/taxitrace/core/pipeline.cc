#include "taxitrace/core/pipeline.h"

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "taxitrace/analysis/grid.h"
#include "taxitrace/clean/cleaning_pipeline.h"
#include "taxitrace/common/executor.h"
#include "taxitrace/common/random.h"
#include "taxitrace/common/reorder_buffer.h"
#include "taxitrace/common/strings.h"
#include "taxitrace/core/segment_match.h"
#include "taxitrace/fault/fault_injector.h"
#include "taxitrace/odselect/transition_extractor.h"
#include "taxitrace/stream/ingest_session.h"
#include "taxitrace/stream/stream_source.h"
#include "taxitrace/trace/trace_io.h"
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

Result<StudyResults> Pipeline::Run() const {
  const bool collect = config_.observability.enabled;
  // The span trace is always kept — it is a handful of records per run
  // and is what StageTimings is derived from now. The registry and the
  // funnel ledger only come to life on an observability run; with
  // `collect` false no metric is ever touched and
  // StudyResults::observability stays default-empty.
  obs::Trace trace;
  obs::MetricsRegistry registry;
  obs::MetricsRegistry* metrics = collect ? &registry : nullptr;
  obs::FunnelLedger funnel_ledger;

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

  // OD gates, transition extraction and matching machinery — built
  // before the simulation because the streamed and online-ingestion
  // paths run the fused clean + match unit (CleanAndMatchTrip) on their
  // workers. Everything here is shared read-only state for MatchSegment.
  std::vector<odselect::OdGate> gates;
  for (const synth::GateRoad& g : results.map.gates) {
    gates.emplace_back(g.name, g.geometry, config_.gate);
  }
  const geo::LocalProjection& proj = results.map.network.projection();
  const odselect::TransitionExtractor extractor(gates, proj);
  const geo::Bbox region =
      results.map.network.Bounds().Inflated(300.0);
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
  match_context.region = region;
  match_context.transition_filter = &config_.transition_filter;
  match_context.speed = &config_.speed;
  match_context.route_cache_capacity =
      config_.matcher.gap.route_cache_capacity;

  // Cleaned segments and their match outputs in canonical (cleaned)
  // order. The batch path fills them stage by stage; the streamed and
  // online-ingestion paths clean and match each raw trip on a worker
  // and fold the finished unit here, in raw-trip order, so every counter
  // folds in the batch order and the results are byte-identical.
  std::vector<trace::Trip> cleaned;
  std::vector<SegmentMatchOutput> match_outputs;
  const auto fold_matched = [&](TripMatchOutput& trip) {
    clean::FoldTripCleanOutput(trip.clean, &results.cleaning_report);
    for (size_t k = 0; k < trip.clean.segments.size(); ++k) {
      cleaned.push_back(std::move(trip.clean.segments[k]));
      match_outputs.push_back(std::move(trip.matches[k]));
    }
  };

  // 2. Raw traces. Two shapes of the same computation: the in-memory
  // path materialises every raw trip in a store and cleans and matches
  // the store as stages of their own; the streamed path runs the fused
  // unit on each (car, day) shard on the worker that simulated it, and a
  // reorder buffer releases the finished shards to fold_matched in
  // (car, day, trip) order, so raw points never all exist at once.
  // Fault plans force the in-memory path: file-level faults corrupt a
  // CSV view of the whole store, which has no per-trip equivalent.
  // Online ingestion consumes the materialised store (it rebuilds each
  // car's arrival stream from it), so it forces the in-memory simulation
  // path too.
  obs::StageSpan sim_span(&trace, "simulation");
  const synth::FleetSimulator fleet(&results.map, &results.weather,
                                    config_.fleet, &results.pedestrians);
  const bool stream_ingest = config_.stream_ingestion;
  const bool streaming =
      config_.stream_simulation && !config_.faults.Any() && !stream_ingest;
  clean::CleaningOptions cleaning_options = config_.cleaning;

  synth::FleetResult raw;
  int64_t trips_simulated = 0;
  int64_t points_simulated = 0;
  int64_t peak_buffered_shards = 0;
  if (streaming) {
    struct MatchedShard {
      std::vector<TripMatchOutput> trips;
      int64_t raw_points = 0;
      int64_t customer_drives = 0;
      int64_t reposition_drives = 0;
    };
    ReorderBuffer<MatchedShard> merge([&](MatchedShard shard) -> Status {
      raw.num_customer_drives += shard.customer_drives;
      raw.num_reposition_drives += shard.reposition_drives;
      trips_simulated += static_cast<int64_t>(shard.trips.size());
      points_simulated += shard.raw_points;
      for (TripMatchOutput& trip : shard.trips) fold_matched(trip);
      return Status::OK();
    });
    TAXITRACE_RETURN_IF_ERROR(fleet.RunShards(
        &executor, [&](synth::FleetShard shard) -> Status {
          MatchedShard out;
          out.customer_drives = shard.num_customer_drives;
          out.reposition_drives = shard.num_reposition_drives;
          out.trips.reserve(shard.trips.size());
          for (trace::Trip& trip : shard.trips) {
            out.raw_points += static_cast<int64_t>(trip.points.size());
            out.trips.push_back(CleanAndMatchTrip(
                std::move(trip), cleaning_options, match_context));
          }
          return merge.Deposit(shard.index, std::move(out));
        }));
    peak_buffered_shards = merge.peak_buffered();
  } else {
    TAXITRACE_ASSIGN_OR_RETURN(raw, fleet.Run(&executor));
    trips_simulated = static_cast<int64_t>(raw.store.NumTrips());
    points_simulated = static_cast<int64_t>(raw.store.NumPoints());
  }

  // 2.5. Fault injection (skipped entirely on a fault-free plan, so the
  // default configuration runs the exact pre-harness pipeline). The
  // injection itself is serial and draws per trip id / per CSV row, so
  // the corrupted store is identical at any thread count.
  fault::FaultReport injected;
  trace::TraceIoStats io_stats;
  int64_t trips_before_rebuild = trips_simulated;
  if (config_.faults.Any()) {
    obs::StageSpan fault_span(&trace, "fault_injection");
    const fault::FaultInjector injector(config_.faults);
    std::vector<trace::Trip> trips = raw.store.trips();
    injector.CorruptTrips(&trips, &injected);
    if (config_.faults.AnyFileFaults()) {
      // Route the traces through their file format: serialise, corrupt
      // rows, and read back with the lenient parser that drops what it
      // cannot understand.
      const std::string csv =
          injector.CorruptCsv(trace::TripsToCsv(trips), &injected);
      TAXITRACE_ASSIGN_OR_RETURN(trips,
                                 trace::TripsFromCsvLenient(csv, &io_stats));
      injected.rows_dropped_malformed += io_stats.rows_dropped_malformed;
      injected.rows_dropped_non_utf8 += io_stats.rows_dropped_non_utf8;
    }
    trips_before_rebuild = static_cast<int64_t>(trips.size());
    TAXITRACE_ASSIGN_OR_RETURN(
        raw.store,
        fault::RebuildStoreDroppingDuplicates(std::move(trips), &injected));

    // Corrupted input calls for the sanitiser, including a geographic
    // gate built from the road network's bounds. The 5 km inflation
    // dwarfs legitimate GPS scatter (sensor outliers jump ~450 m), so
    // only truly wild fixes — swapped coordinates, garbage parses —
    // fall outside.
    clean::SanitizeOptions& sanitize = cleaning_options.sanitize;
    sanitize.enabled = true;
    sanitize.has_region = true;
    const geo::Bbox gate_box =
        results.map.network.Bounds().Inflated(5000.0);
    const geo::LocalProjection& net_proj =
        results.map.network.projection();
    const geo::LatLon lo =
        net_proj.Inverse(geo::EnPoint{gate_box.min_x, gate_box.min_y});
    const geo::LatLon hi =
        net_proj.Inverse(geo::EnPoint{gate_box.max_x, gate_box.max_y});
    sanitize.lat_min_deg = std::min(lo.lat_deg, hi.lat_deg);
    sanitize.lat_max_deg = std::max(lo.lat_deg, hi.lat_deg);
    sanitize.lon_min_deg = std::min(lo.lon_deg, hi.lon_deg);
    sanitize.lon_max_deg = std::max(lo.lon_deg, hi.lon_deg);
    fault_span.AddItems(injected.TotalInjected());
  }

  results.raw_trips =
      streaming ? trips_simulated : static_cast<int64_t>(raw.store.NumTrips());
  sim_span.AddItems(trips_simulated);
  sim_span.Finish();

  // 3. Online ingestion (stream_ingestion): every car's raw trace is
  // replayed as an arrival stream — optionally shuffled by a bounded
  // displacement — through an IngestSession that undoes the reordering
  // under the watermark and flushes each window (container trip) into
  // the fused clean + match chain the moment it is complete. One
  // session per car, one car per work item: sessions share no state,
  // and the per-car outputs are merged below in store order, so the
  // results are byte-identical to batch at any worker count whenever
  // the displacement fits the lossless bound.
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
    const Status ingest_status = executor.ParallelFor(
        0, static_cast<int64_t>(car_ids.size()),
        [&](int64_t ci) -> Status {
          const int car_id = car_ids[static_cast<size_t>(ci)];
          CarIngestOutput& out = car_ingest[static_cast<size_t>(ci)];
          out.car_id = car_id;
          stream::CarStream arrivals =
              stream::BuildCarStream(raw.store, car_id);
          if (config_.ingest.arrival_shuffle_window > 0) {
            stream::ShuffleArrivals(
                &arrivals.records,
                MixSeed(config_.ingest.arrival_shuffle_seed,
                        static_cast<uint64_t>(car_id), 0),
                config_.ingest.arrival_shuffle_window);
          }
          // Each closed window runs the fused per-trip unit, in the
          // same per-car order as the batch stages.
          struct WindowSink final : public trace::TripSink {
            const clean::CleaningOptions* options = nullptr;
            const SegmentMatchContext* context = nullptr;
            std::vector<TripMatchOutput>* out = nullptr;
            Status Consume(trace::Trip trip) override {
              out->push_back(
                  CleanAndMatchTrip(std::move(trip), *options, *context));
              return Status::OK();
            }
          };
          WindowSink sink;
          sink.options = &cleaning_options;
          sink.context = &match_context;
          sink.out = &out.trips;
          stream::IngestSession session(car_id, config_.ingest, &sink);
          for (const stream::StreamRecord& rec : arrivals.records) {
            TAXITRACE_RETURN_IF_ERROR(session.Ingest(rec));
          }
          TAXITRACE_RETURN_IF_ERROR(session.FinishStream());
          out.stats = session.stats();
          return Status::OK();
        });
    if (!ingest_status.ok()) return ingest_status;
    for (const CarIngestOutput& c : car_ingest) {
      results.ingest_stats.Add(c.stats);
    }
    ingest_span.AddItems(results.ingest_stats.points_offered +
                         results.ingest_stats.trip_markers_offered);
    ingest_span.Finish();
  }

  // 4. Cleaning: sanitiser (when faulted), order repair, error filters,
  // segmentation, filters. On a streamed run the per-trip work already
  // happened on the simulation workers, and on an online-ingestion run
  // inside the window flushes; what remains here is the ordered fold's
  // totals, so the cleaning span is (by design) near-empty on both.
  obs::StageSpan clean_span(&trace, "cleaning");
  const bool batch = !streaming && !stream_ingest;
  if (stream_ingest) {
    // Merge the per-car window outputs in store order: walk the store's
    // trips and pull the matching window from its car's queue (each
    // queue is already in per-car store order — release order equals
    // canonical order). A store trip lost wholesale in ingestion is
    // skipped; its records are accounted in the funnel's ingest drops.
    std::unordered_map<int, CarIngestOutput*> outputs_by_car;
    for (CarIngestOutput& c : car_ingest) {
      outputs_by_car.emplace(c.car_id, &c);
    }
    for (const trace::Trip& store_trip : raw.store.trips()) {
      const auto it = outputs_by_car.find(store_trip.car_id);
      if (it == outputs_by_car.end()) continue;
      CarIngestOutput& c = *it->second;
      if (c.next < c.trips.size() &&
          c.trips[c.next].trip_id == store_trip.trip_id) {
        fold_matched(c.trips[c.next]);
        ++c.next;
      }
    }
    // Windows whose container id matches no store trip cannot arise
    // from the canonical source, but work is never dropped silently:
    // fold any leftovers in car order.
    for (CarIngestOutput& c : car_ingest) {
      for (; c.next < c.trips.size(); ++c.next) {
        fold_matched(c.trips[c.next]);
      }
    }
  }
  if (batch) {
    TAXITRACE_ASSIGN_OR_RETURN(
        cleaned, clean::CleanTrips(raw.store, cleaning_options,
                                   &results.cleaning_report, &executor,
                                   metrics));
  } else {
    clean::CleaningReport& report = results.cleaning_report;
    report.raw_trips =
        streaming ? trips_simulated : results.ingest_stats.windows_closed;
    report.raw_points =
        streaming ? points_simulated : results.ingest_stats.points_released;
    report.clean_segments = static_cast<int64_t>(cleaned.size());
    for (const trace::Trip& t : cleaned) {
      report.clean_points += static_cast<int64_t>(t.points.size());
    }
    if (metrics != nullptr) {
      clean::PublishCleaningMetrics(report, cleaned, metrics);
    }
  }
  // The cleaning stage's own drop counters, before the injection
  // report is merged in — the funnel below needs the unmixed values.
  const fault::FaultReport clean_faults = results.cleaning_report.faults;
  results.cleaning_report.faults.Add(injected);
  clean_span.AddItems(results.cleaning_report.raw_trips);
  clean_span.Finish();

  // 5. Selection + matching fans out over the cleaned trips: every
  // segment is independent given the shared read-only machinery built
  // above. Each worker fills its segment's slot (MatchSegment) with
  // ordered matched transitions plus Table 3 funnel deltas; the slots
  // are then merged in cleaned order (== trip id order), so the funnel,
  // the match report's running mean, and the transition list are
  // byte-identical at any thread count. On a streamed or
  // online-ingestion run the slots were already produced by the fused
  // per-trip unit and folded into cleaned order; only the fold below
  // runs.
  obs::StageSpan match_span(&trace, "selection_matching");
  if (batch) {
    match_outputs.resize(cleaned.size());
    TAXITRACE_RETURN_IF_ERROR(executor.ParallelFor(
        0, static_cast<int64_t>(cleaned.size()), [&](int64_t i) -> Status {
          match_outputs[static_cast<size_t>(i)] =
              MatchSegment(cleaned[static_cast<size_t>(i)], match_context);
          return Status::OK();
        }));
  }

  // Per-car funnel rows (Table 3), folded in cleaned order, plus the
  // fleet-wide totals for the study funnel ledger.
  int64_t segments_selected = 0;
  int64_t transitions_examined = 0;
  int64_t transitions_post_filtered = 0;
  int64_t dropped_direction = 0;
  int64_t dropped_outside_central = 0;
  int64_t dropped_match_failed = 0;
  int64_t dropped_unknown_gate = 0;
  int64_t dropped_endpoint_filter = 0;
  int64_t route_cache_hits = 0;
  int64_t route_cache_misses = 0;
  int64_t route_cache_evictions = 0;
  std::unordered_map<int, odselect::Table3Row> funnel;
  for (size_t i = 0; i < cleaned.size(); ++i) {
    odselect::Table3Row& row = funnel[cleaned[i].car_id];
    row.car_id = cleaned[i].car_id;
    ++row.segments_total;
    SegmentMatchOutput& out = match_outputs[i];
    row.filtered_cleaned += out.filtered_cleaned;
    row.transitions_total += out.transitions_total;
    row.transitions_central += out.transitions_central;
    row.post_filtered += out.post_filtered;
    segments_selected += out.filtered_cleaned;
    transitions_examined += out.transitions_examined;
    transitions_post_filtered += out.post_filtered;
    dropped_direction += out.dropped_direction;
    dropped_outside_central += out.dropped_outside_central;
    dropped_match_failed += out.dropped_match_failed;
    dropped_unknown_gate += out.dropped_unknown_gate;
    dropped_endpoint_filter += out.dropped_endpoint_filter;
    route_cache_hits += out.cache_hits;
    route_cache_misses += out.cache_misses;
    route_cache_evictions += out.cache_evictions;
    for (MatchedTransition& mt : out.transitions) {
      results.match_report.Add(mt.route);
      results.transitions.push_back(std::move(mt));
    }
  }

  for (int car = 1; car <= config_.fleet.num_cars; ++car) {
    odselect::Table3Row row = funnel[car];
    row.car_id = car;
    results.table3.push_back(row);
  }

  match_span.AddItems(static_cast<int64_t>(cleaned.size()));
  match_span.Finish();

  // 7. Grid statistics over all transition point speeds.
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

  // 8. Cell joins and the mixed model.
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
    // Funnel ledger: one reconciled row per stage, every drop named.
    // Every value is a deterministic data count merged in index order,
    // so the ledger is byte-identical at any worker count.
    const clean::CleaningReport& cr = results.cleaning_report;
    {
      obs::FunnelStage& s =
          funnel_ledger.AddStage("trips.simulated", "trips");
      s.in = trips_simulated;
      s.out = trips_simulated;
    }
    {
      // Identity source stage: the raw point volume entering the
      // pipeline (counted before any fault injection), so the point
      // funnel has an upstream anchor like the trip funnel does. The
      // count comes from the store in memory or from FleetRunStats on
      // a streaming run — identical by construction.
      obs::FunnelStage& s =
          funnel_ledger.AddStage("points.simulated", "points");
      s.in = points_simulated;
      s.out = points_simulated;
    }
    if (config_.faults.Any()) {
      if (config_.faults.AnyFileFaults()) {
        obs::FunnelStage& s =
            funnel_ledger.AddStage("rows.csv_lenient_parse", "rows");
        s.in = io_stats.rows_total;
        s.Drop("malformed", io_stats.rows_dropped_malformed);
        s.Drop("non_utf8", io_stats.rows_dropped_non_utf8);
        s.out = s.in - s.TotalDropped();
      }
      obs::FunnelStage& s =
          funnel_ledger.AddStage("trips.store_rebuild", "trips");
      s.in = trips_before_rebuild;
      s.Drop("duplicate_id", injected.trips_dropped_duplicate_id);
      s.out = results.raw_trips;
    }
    if (stream_ingest) {
      const stream::IngestStats& ing = results.ingest_stats;
      {
        // in == out + drops exactly: every point record the source
        // offered is either released into a window or dropped as a
        // counted late arrival — nothing is silently lost.
        obs::FunnelStage& s =
            funnel_ledger.AddStage("points.ingested", "points");
        s.in = ing.points_offered;
        s.Drop("late_arrival", ing.points_dropped_late);
        s.out = ing.points_released;
      }
      {
        // Window lifecycle: markers offered plus implicitly opened
        // containers, minus late markers, equals windows closed (every
        // opened window closes by end of stream).
        obs::FunnelStage& s =
            funnel_ledger.AddStage("windows.closed", "windows");
        s.in = ing.trip_markers_offered + ing.windows_opened_implicit;
        s.Drop("marker_late_arrival", ing.trip_markers_dropped_late);
        s.out = ing.windows_closed;
      }
    }
    {
      obs::FunnelStage& s =
          funnel_ledger.AddStage("trips.cleaning", "trips");
      s.in = cr.raw_trips;
      s.Drop("empty", clean_faults.trips_dropped_empty);
      s.out = cr.segmentation.trips_in;
    }
    {
      obs::FunnelStage& s =
          funnel_ledger.AddStage("points.sanitize", "points");
      s.in = cr.raw_points;
      s.Drop("nonfinite", clean_faults.points_dropped_nonfinite);
      s.Drop("foreign_trip", clean_faults.points_dropped_foreign);
      s.Drop("negative_speed", clean_faults.points_dropped_negative_speed);
      s.Drop("out_of_region", clean_faults.points_dropped_out_of_region);
      s.Drop("clock_jump", clean_faults.points_dropped_clock_jump);
      s.out = cr.points_after_sanitize;
    }
    {
      obs::FunnelStage& s =
          funnel_ledger.AddStage("points.outlier_filter", "points");
      s.in = cr.points_after_sanitize;
      s.Drop("duplicate", cr.outliers.duplicates_removed);
      s.Drop("spike", cr.outliers.spikes_removed);
      s.Drop("implied_speed", cr.outliers.implied_speed_removed);
      s.out = cr.points_after_outliers;
    }
    {
      obs::FunnelStage& s =
          funnel_ledger.AddStage("segments.filter", "segments");
      s.in = cr.segmentation.segments_out;
      s.Drop("too_few_points", cr.filter.removed_too_few_points);
      s.Drop("too_long", cr.filter.removed_too_long);
      s.out = cr.filter.kept;
    }
    if (stream_ingest) {
      // The online path's emission point: every segment surviving the
      // cleaning filters inside a window flush was handed straight to
      // the matcher (no buffering between), hence in == out.
      obs::FunnelStage& s =
          funnel_ledger.AddStage("segments.emitted_online", "segments");
      s.in = cr.clean_segments;
      s.out = cr.clean_segments;
    }
    {
      obs::FunnelStage& s =
          funnel_ledger.AddStage("segments.gate_selection", "segments");
      s.in = static_cast<int64_t>(cleaned.size());
      s.Drop("no_gate_crossing",
             static_cast<int64_t>(cleaned.size()) - segments_selected);
      s.out = segments_selected;
    }
    {
      obs::FunnelStage& s =
          funnel_ledger.AddStage("transitions.selection", "transitions");
      s.in = transitions_examined;
      s.Drop("direction_not_selected", dropped_direction);
      s.Drop("outside_central_area", dropped_outside_central);
      s.Drop("match_failed", dropped_match_failed);
      s.Drop("unknown_gate", dropped_unknown_gate);
      s.Drop("endpoint_filter", dropped_endpoint_filter);
      s.out = transitions_post_filtered;
    }
    TAXITRACE_RETURN_IF_ERROR(funnel_ledger.CheckReconciles());

    // Deterministic work counters from the matching machinery and the
    // funnel endpoints. These feed the determinism tests; gauges below
    // do not.
    const roadnet::SpatialIndexStats idx = index.stats();
    registry.counter("roadnet.spatial_index.queries")->Add(idx.queries);
    registry.counter("roadnet.spatial_index.cells_probed")
        ->Add(idx.cells_probed);
    registry.counter("roadnet.spatial_index.candidates")
        ->Add(idx.candidates);
    registry.counter("roadnet.spatial_index.hits")->Add(idx.hits);
    registry.counter("roadnet.spatial_index.empty_geometry_edges")
        ->Add(idx.empty_geometry_edges);
    const roadnet::RouterStats rt = matcher.gap_filler().router().stats();
    registry.counter("roadnet.router.searches")->Add(rt.searches);
    registry.counter("roadnet.router.heap_pops")->Add(rt.heap_pops);
    registry.counter("roadnet.router.settled_vertices")
        ->Add(rt.settled_vertices);
    registry.counter("roadnet.router.goal_directed_searches")
        ->Add(rt.goal_directed_searches);
    registry.counter("mapmatch.route_cache.hits")->Add(route_cache_hits);
    registry.counter("mapmatch.route_cache.misses")
        ->Add(route_cache_misses);
    registry.counter("mapmatch.route_cache.evictions")
        ->Add(route_cache_evictions);
    registry.counter("pipeline.trips_simulated")->Add(trips_simulated);
    registry.counter("pipeline.segments_selected")->Add(segments_selected);
    registry.counter("pipeline.transitions_matched")
        ->Add(transitions_post_filtered);
    registry.counter("pipeline.point_speeds")
        ->Add(results.total_point_speeds);
    if (config_.faults.Any()) {
      registry.counter("fault.injected_total")
          ->Add(injected.TotalInjected());
      registry.counter("fault.dropped_total")
          ->Add(results.cleaning_report.faults.TotalDropped());
    }
    if (stream_ingest) {
      const stream::IngestStats& ing = results.ingest_stats;
      registry.counter("stream.points_ingested")->Add(ing.points_released);
      registry.counter("stream.points_dropped_late")
          ->Add(ing.points_dropped_late);
      registry.counter("stream.windows_closed")->Add(ing.windows_closed);
      registry.counter("stream.windows_opened_implicit")
          ->Add(ing.windows_opened_implicit);
      registry.counter("stream.slots_declared_lost")
          ->Add(ing.slots_declared_lost);
      // Deterministic too (a max of per-car deterministic values), but
      // a high-water mark is a level, not a flow — hence a gauge.
      registry.gauge("stream.peak_buffered_records")
          ->Set(static_cast<double>(ing.peak_buffered_records));
    }
    if (streaming) {
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
  timings.simulation_threads = executor.num_threads();
  timings.cleaning_threads = executor.num_threads();
  timings.selection_matching_threads = executor.num_threads();
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
