// perfbench: runs one benchmark workload of the taxitrace system and
// prints its raw measurements as one JSON line prefixed "PERFBENCH ".
// perfbench/run.py builds this binary, runs it, checks the digests and
// turns the samples into the reported metrics (see README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Every workload runs on one Executor of kWorkers threads. With
// --trace 0 the job runs with observability off, repeated until
// --seconds have passed; each set-up and each job is bracketed by runs
// of a calibration kernel, by which run.py normalizes the times for
// the shared host's speed. With --trace 1 the job runs twice untraced and
// twice traced (observability on), then a layer pass times each layer's
// public functions from outside, recording spans in memory that are
// written out once at the end.

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "taxitrace/analysis/grid.h"
#include "taxitrace/analysis/speed_categories.h"
#include "taxitrace/clean/cleaning_pipeline.h"
#include "taxitrace/common/executor.h"
#include "taxitrace/common/hash.h"
#include "taxitrace/common/random.h"
#include "taxitrace/core/pipeline.h"
#include "taxitrace/core/reports.h"
#include "taxitrace/core/segment_match.h"
#include "taxitrace/core/study_config.h"
#include "taxitrace/mapattr/attribute_fetcher.h"
#include "taxitrace/mapmatch/candidates.h"
#include "taxitrace/mapmatch/incremental_matcher.h"
#include "taxitrace/mapmatch/route_cache.h"
#include "taxitrace/model/one_way_reml.h"
#include "taxitrace/obs/funnel.h"
#include "taxitrace/obs/metrics.h"
#include "taxitrace/odselect/transition_extractor.h"
#include "taxitrace/odselect/transition_filter.h"
#include "taxitrace/roadnet/spatial_index.h"
#include "taxitrace/serve/query_engine.h"
#include "taxitrace/serve/replay.h"
#include "taxitrace/serve/snapshot.h"
#include "taxitrace/stream/ingest_session.h"
#include "taxitrace/stream/stream_source.h"
#include "taxitrace/synth/city_map_generator.h"
#include "taxitrace/synth/fleet_simulator.h"
#include "taxitrace/trace/trip_sink.h"

namespace {

namespace tt = taxitrace;
using Clock = std::chrono::steady_clock;

constexpr int kWorkers = 4;
// --seed n selects weather seed kWeatherSeedBase + n, replay seed
// kReplaySeedBase + n and arrival-shuffle seed kShuffleSeedBase + n;
// seed 0 is the paper-scale study's own defaults. The weather changes
// the speed and timing of every drive. The fleet seed stays the
// study's: on 7 cars it draws each car's activity factor, which swings
// the raw point count by up to ~30% between seeds and would make wall
// times of different seeds incomparable.
constexpr uint64_t kWeatherSeedBase = 19121;
constexpr uint64_t kReplaySeedBase = 20121;
constexpr uint64_t kShuffleSeedBase = 0x5EEDA11CULL;
// 1M queries last ~0.1 s at 4 workers, too short to be steady.
constexpr int64_t kReplayQueries = 16'000'000;
constexpr int64_t kLayerReplayQueries = 4'000'000;
constexpr int64_t kLayerQueriesPerType = 400'000;
// The layer pass matches every kMatchSubsetStride-th cleaned segment
// serially; matching all of them serially would take ~10 s.
constexpr size_t kMatchSubsetStride = 4;
constexpr size_t kMaxGapFillCalls = 40'000;

enum class Workload { kStudyBatch, kStudyStreamed, kStudyIngest, kMatchAll,
                      kServeReplay };

std::optional<Workload> ParseWorkload(const std::string& name) {
  if (name == "study_batch") return Workload::kStudyBatch;
  if (name == "study_streamed") return Workload::kStudyStreamed;
  if (name == "study_ingest") return Workload::kStudyIngest;
  if (name == "match_all") return Workload::kMatchAll;
  if (name == "serve_replay") return Workload::kServeReplay;
  return std::nullopt;
}

bool IsStudy(Workload w) {
  return w == Workload::kStudyBatch || w == Workload::kStudyStreamed ||
         w == Workload::kStudyIngest;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

std::string Hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string JsonDoubles(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonNumber(values[i]);
  }
  return out + "]";
}

// ---------------------------------------------------------------------
// Spans: kept in memory, written out once at the end. An interval span
// covers [start, start + dur). An aggregate span sums the busy time of
// many short calls under one parent; it has no interval of its own.
// Self time (span minus children) is computed by run.py.

struct Span {
  std::string name;
  int parent = -1;
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  int64_t items = 0;
  bool aggregate = false;
};

class SpanLog {
 public:
  SpanLog() : origin_ns_(NowNs()) {}

  int Open(const std::string& name, int parent) {
    spans_.push_back(Span{name, parent, NowNs() - origin_ns_, 0, 0, false});
    return static_cast<int>(spans_.size()) - 1;
  }

  void Close(int id, int64_t items) {
    Span& s = spans_[static_cast<size_t>(id)];
    s.dur_ns = NowNs() - origin_ns_ - s.start_ns;
    s.items = items;
  }

  void Aggregate(const std::string& name, int parent, int64_t busy_ns,
                 int64_t items) {
    const int64_t start =
        parent >= 0 ? spans_[static_cast<size_t>(parent)].start_ns : 0;
    spans_.push_back(Span{name, parent, start, busy_ns, items, true});
  }

  [[nodiscard]] std::string Json() const {
    std::string out = "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i > 0) out += ",";
      out += "{\"name\":" + JsonString(s.name) +
             ",\"parent\":" + std::to_string(s.parent) +
             ",\"start_ns\":" + std::to_string(s.start_ns) +
             ",\"dur_ns\":" + std::to_string(s.dur_ns) +
             ",\"items\":" + std::to_string(s.items) +
             ",\"aggregate\":" + (s.aggregate ? "true" : "false") + "}";
    }
    return out + "]";
  }

 private:
  int64_t origin_ns_;
  std::vector<Span> spans_;
};

// Busy-time accumulator for the calls behind one aggregate span.
struct Busy {
  int64_t ns = 0;
  int64_t items = 0;
  void Add(int64_t start_ns, int64_t n) {
    ns += NowNs() - start_ns;
    items += n;
  }
};

using Counts = std::map<std::string, double>;

// ---------------------------------------------------------------------
// Workload inputs and jobs.

tt::core::StudyConfig MakeStudyConfig(Workload w, uint64_t seed) {
  tt::core::StudyConfig c = tt::core::StudyConfig::FullStudy();
  c.weather_seed = kWeatherSeedBase + seed;
  c.num_threads = kWorkers;
  if (w == Workload::kStudyStreamed) c.stream_simulation = true;
  if (w == Workload::kStudyIngest) {
    c.stream_ingestion = true;
    c.ingest.reorder_lag = 64;
    // Within the lossless bound reorder_lag / 2.
    c.ingest.arrival_shuffle_window = 32;
    c.ingest.arrival_shuffle_seed = kShuffleSeedBase + seed;
  }
  return c;
}

struct JobRun {
  double wall_s = 0.0;
  std::string digest;
  int64_t units = 1;           ///< Operations the digest covers.
  int64_t unit_mismatches = 0; ///< Units whose own hash differs from check.
};

tt::Result<tt::core::StudyResults> RunPipeline(tt::core::StudyConfig config,
                                               bool observe) {
  config.observability.enabled = observe;
  return tt::core::Pipeline(std::move(config)).Run();
}

// Map, simulation and cleaning: the inputs match_all matches. Built
// exactly as core::Pipeline builds them.
struct MatchInputs {
  std::unique_ptr<tt::synth::CityMap> map;
  std::vector<tt::trace::Trip> segments;
  std::unique_ptr<tt::roadnet::SpatialIndex> index;
  std::unique_ptr<tt::mapmatch::IncrementalMatcher> matcher;
};

tt::Result<MatchInputs> BuildMatchInputs(const tt::core::StudyConfig& cfg,
                                         const tt::Executor& ex) {
  MatchInputs in;
  TAXITRACE_ASSIGN_OR_RETURN(tt::synth::CityMap map,
                             tt::synth::GenerateCityMap(cfg.map));
  in.map = std::make_unique<tt::synth::CityMap>(std::move(map));
  const tt::synth::WeatherModel weather(cfg.weather_seed, cfg.fleet.num_days);
  const tt::synth::PedestrianModel pedestrians(
      cfg.fleet.seed + 17, in.map->hotspots, cfg.fleet.num_days);
  const tt::synth::FleetSimulator fleet(in.map.get(), &weather, cfg.fleet,
                                        &pedestrians);
  TAXITRACE_ASSIGN_OR_RETURN(const tt::synth::FleetResult raw,
                             fleet.Run(&ex));
  TAXITRACE_ASSIGN_OR_RETURN(
      in.segments,
      tt::clean::CleanTrips(raw.store, cfg.cleaning, nullptr, &ex));
  in.index = std::make_unique<tt::roadnet::SpatialIndex>(&in.map->network);
  in.matcher = std::make_unique<tt::mapmatch::IncrementalMatcher>(
      &in.map->network, in.index.get(), cfg.matcher);
  return in;
}

uint64_t HashMatch(const tt::Result<tt::mapmatch::MatchedRoute>& r) {
  if (!r.ok()) {
    return tt::SplitMix64(0xBADull ^
                          static_cast<uint64_t>(r.status().code()));
  }
  uint64_t h = tt::SplitMix64(r->points.size());
  for (const tt::roadnet::PathStep& s : r->steps) {
    h = tt::SplitMix64(h ^ ((static_cast<uint64_t>(s.edge) << 1) |
                            (s.forward ? 1u : 0u)));
  }
  return tt::SplitMix64(h ^ std::bit_cast<uint64_t>(r->length_m));
}

// One match_all pass: every segment matched with its own RouteCache.
// `trace_busy`, when set, times each Match call from outside.
struct MatchPass {
  std::vector<uint64_t> hashes;
  int64_t rejected = 0;
  double wall_s = 0.0;
};

tt::Result<MatchPass> RunMatchPass(const MatchInputs& in,
                                   const tt::Executor& ex,
                                   std::vector<int64_t>* trace_busy) {
  MatchPass pass;
  const size_t n = in.segments.size();
  pass.hashes.assign(n, 0);
  std::vector<char> rejected(n, 0);
  if (trace_busy != nullptr) trace_busy->assign(n, 0);
  const size_t capacity = in.matcher->options().gap.route_cache_capacity;
  const int64_t t0 = NowNs();
  TAXITRACE_RETURN_IF_ERROR(ex.ParallelFor(
      0, static_cast<int64_t>(n), [&](int64_t i) -> tt::Status {
        const size_t k = static_cast<size_t>(i);
        tt::mapmatch::RouteCache cache(capacity);
        const int64_t s0 = trace_busy != nullptr ? NowNs() : 0;
        const tt::Result<tt::mapmatch::MatchedRoute> r =
            in.matcher->Match(in.segments[k], &cache);
        if (trace_busy != nullptr) (*trace_busy)[k] = NowNs() - s0;
        pass.hashes[k] = HashMatch(r);
        rejected[k] = r.ok() ? 0 : 1;
        return tt::Status::OK();
      }));
  pass.wall_s = SecondsSince(t0);
  for (const char r : rejected) pass.rejected += r;
  return pass;
}

uint64_t FoldHashes(const std::vector<uint64_t>& hashes, int64_t rejected) {
  uint64_t h = tt::SplitMix64(static_cast<uint64_t>(rejected));
  for (const uint64_t x : hashes) h = tt::SplitMix64(h ^ x);
  return h;
}

struct ServeInputs {
  std::optional<tt::core::StudyResults> study;
  std::optional<tt::serve::Snapshot> snapshot;
};

tt::Result<ServeInputs> BuildServeInputs(const tt::core::StudyConfig& cfg,
                                         const tt::Executor& ex,
                                         bool observe) {
  ServeInputs in;
  TAXITRACE_ASSIGN_OR_RETURN(tt::core::StudyResults study,
                             RunPipeline(cfg, observe));
  in.study.emplace(std::move(study));
  TAXITRACE_ASSIGN_OR_RETURN(std::string bytes,
                             tt::serve::SnapshotBuilder().Build(*in.study, &ex));
  TAXITRACE_ASSIGN_OR_RETURN(tt::serve::Snapshot snapshot,
                             tt::serve::Snapshot::FromBytes(std::move(bytes)));
  in.snapshot.emplace(std::move(snapshot));
  return in;
}

// Runs the serve replay's default mix; with `observe` the metrics
// registry and the serve.queries funnel are attached and the funnel
// must reconcile.
tt::Result<tt::serve::ReplayResult> RunReplay(const tt::serve::Snapshot& snap,
                                              uint64_t replay_seed,
                                              int64_t queries,
                                              const tt::Executor& ex,
                                              bool observe) {
  tt::serve::WorkloadOptions options;
  options.num_queries = queries;
  options.seed = replay_seed;
  tt::obs::MetricsRegistry metrics;
  tt::obs::FunnelLedger funnel;
  TAXITRACE_ASSIGN_OR_RETURN(
      tt::serve::ReplayResult r,
      tt::serve::ReplayWorkload(snap, options, &ex,
                                observe ? &metrics : nullptr,
                                observe ? &funnel : nullptr));
  if (r.stats.offered != queries ||
      r.stats.offered != r.stats.answered + r.stats.out_of_bounds +
                             r.stats.empty_cell) {
    return tt::Status::Internal("serve.queries funnel does not reconcile");
  }
  return r;
}

// The serve_replay job: kWorkers closed-loop clients, each replaying
// its own query stream through ReplayWorkload on its own worker.
// ReplayWorkload's internal fan-out over workers is not used here: its
// per-shard results share cache lines between workers, so its wall time
// depends on where the heap placed them, fixed per process (16M queries
// in ~1.5 s or ~2.2 s). The layer pass still times that path
// (serve.replay.*).
tt::Result<uint64_t> RunReplayClients(const tt::serve::Snapshot& snap,
                                      uint64_t seed, const tt::Executor& ex,
                                      bool observe) {
  std::vector<uint64_t> digests(kWorkers, 0);
  TAXITRACE_RETURN_IF_ERROR(ex.ParallelFor(
      0, kWorkers, [&](int64_t client) -> tt::Status {
        TAXITRACE_ASSIGN_OR_RETURN(
            const tt::serve::ReplayResult r,
            RunReplay(snap,
                      tt::MixSeed(kReplaySeedBase + seed,
                                  static_cast<uint64_t>(client), 0),
                      kReplayQueries / kWorkers, tt::Executor::Serial(),
                      observe));
        digests[static_cast<size_t>(client)] = r.digest;
        return tt::Status::OK();
      }));
  uint64_t digest = 0;
  for (const uint64_t d : digests) digest = tt::SplitMix64(digest ^ d);
  return digest;
}

// ---------------------------------------------------------------------
// The layer pass (traced runs only).

// The shared read-only selection + matching machinery, built exactly as
// core::Pipeline builds it.
struct Machinery {
  Machinery(const tt::synth::CityMap& map, const tt::core::StudyConfig& cfg)
      : gates(MakeGates(map, cfg)),
        extractor(gates, map.network.projection()),
        index(&map.network),
        matcher(&map.network, &index, cfg.matcher),
        fetcher(&map.network, cfg.attributes) {
    for (const tt::odselect::OdGate& g : gates) {
      gate_by_name.emplace(g.name(), &g);
    }
    ctx.extractor = &extractor;
    ctx.gate_by_name = &gate_by_name;
    ctx.matcher = &matcher;
    ctx.fetcher = &fetcher;
    ctx.network = &map.network;
    ctx.central_area = &map.central_area;
    ctx.projection = &map.network.projection();
    ctx.region = map.network.Bounds().Inflated(300.0);
    ctx.transition_filter = &cfg.transition_filter;
    ctx.speed = &cfg.speed;
    ctx.route_cache_capacity = cfg.matcher.gap.route_cache_capacity;
  }
  Machinery(const Machinery&) = delete;
  Machinery& operator=(const Machinery&) = delete;

  static std::vector<tt::odselect::OdGate> MakeGates(
      const tt::synth::CityMap& map, const tt::core::StudyConfig& cfg) {
    std::vector<tt::odselect::OdGate> out;
    for (const tt::synth::GateRoad& g : map.gates) {
      out.emplace_back(g.name, g.geometry, cfg.gate);
    }
    return out;
  }

  std::vector<tt::odselect::OdGate> gates;
  tt::odselect::TransitionExtractor extractor;
  tt::roadnet::SpatialIndex index;
  tt::mapmatch::IncrementalMatcher matcher;
  tt::mapattr::AttributeFetcher fetcher;
  std::unordered_map<std::string, const tt::odselect::OdGate*> gate_by_name;
  tt::core::SegmentMatchContext ctx;
};

// Streamed-simulation sink that cleans each trip like core::Pipeline's
// streaming sink does, timing the time spent inside Consume.
class TimedCleaningSink final : public tt::trace::TripSink {
 public:
  explicit TimedCleaningSink(const tt::clean::CleaningOptions* options)
      : options_(options) {}
  tt::Status Consume(tt::trace::Trip trip) override {
    const int64_t t0 = NowNs();
    tt::clean::TripCleanOutput out =
        tt::clean::CleanOneTrip(std::move(trip), *options_);
    tt::clean::FoldTripCleanOutput(out, &report_);
    busy.Add(t0, 1);
    return tt::Status::OK();
  }
  Busy busy;

 private:
  const tt::clean::CleaningOptions* options_;
  tt::clean::CleaningReport report_;
};

class CountingSink final : public tt::trace::TripSink {
 public:
  tt::Status Consume(tt::trace::Trip trip) override {
    points += static_cast<int64_t>(trip.points.size());
    ++windows;
    return tt::Status::OK();
  }
  int64_t points = 0;
  int64_t windows = 0;
};

// The online path's per-window unit: CleanOneTrip, then MatchSegment on
// every surviving segment, as core::Pipeline's window sink runs it.
class TimedWindowSink final : public tt::trace::TripSink {
 public:
  TimedWindowSink(const tt::clean::CleaningOptions* options,
                  const tt::core::SegmentMatchContext* ctx)
      : options_(options), ctx_(ctx) {}
  tt::Status Consume(tt::trace::Trip trip) override {
    const int64_t t0 = NowNs();
    tt::clean::TripCleanOutput out =
        tt::clean::CleanOneTrip(std::move(trip), *options_);
    for (const tt::trace::Trip& seg : out.segments) {
      transitions += static_cast<int64_t>(
          tt::core::MatchSegment(seg, *ctx_).transitions.size());
    }
    busy.Add(t0, 1);
    return tt::Status::OK();
  }
  Busy busy;
  int64_t transitions = 0;

 private:
  const tt::clean::CleaningOptions* options_;
  const tt::core::SegmentMatchContext* ctx_;
};

// Movement headings as IncrementalMatcher derives them, so candidate
// search is timed on the inputs Match gives it.
void Headings(const std::vector<tt::geo::EnPoint>& pts,
              std::vector<double>* heading, std::vector<char>* valid) {
  heading->assign(pts.size(), 0.0);
  valid->assign(pts.size(), 0);
  constexpr double kMinMove = 12.0;
  for (size_t i = 0; i < pts.size(); ++i) {
    const tt::geo::EnPoint& prev = pts[i == 0 ? 0 : i - 1];
    const tt::geo::EnPoint& next = pts[i + 1 < pts.size() ? i + 1 : i];
    const tt::geo::Segment move{prev, next};
    if (move.Length() >= kMinMove) {
      (*heading)[i] = move.Heading();
      (*valid)[i] = 1;
    } else if (i > 0) {
      (*heading)[i] = (*heading)[i - 1];
      (*valid)[i] = (*valid)[i - 1];
    }
  }
}

tt::Status LayerPass(uint64_t seed,
                     const tt::core::StudyConfig& cfg,
                     const tt::core::StudyResults& study,
                     const tt::Executor& ex, SpanLog* log, Counts* counts) {
  const int root = log->Open("layers", -1);
  const tt::clean::CleaningOptions& copts = cfg.cleaning;

  // synth: the fleet simulator, batch and streamed into a cleaning sink.
  TAXITRACE_ASSIGN_OR_RETURN(tt::synth::CityMap map,
                             tt::synth::GenerateCityMap(cfg.map));
  const tt::synth::WeatherModel weather(cfg.weather_seed, cfg.fleet.num_days);
  const tt::synth::PedestrianModel pedestrians(cfg.fleet.seed + 17,
                                               map.hotspots,
                                               cfg.fleet.num_days);
  const tt::synth::FleetSimulator fleet(&map, &weather, cfg.fleet,
                                        &pedestrians);
  int s = log->Open("synth.fleet", root);
  TAXITRACE_ASSIGN_OR_RETURN(tt::synth::FleetResult raw, fleet.Run(&ex));
  log->Close(s, static_cast<int64_t>(raw.store.NumPoints()));
  const tt::trace::TraceStore& store = raw.store;
  {
    TimedCleaningSink sink(&copts);
    s = log->Open("synth.sink_run", root);
    TAXITRACE_ASSIGN_OR_RETURN(const tt::synth::FleetRunStats st,
                               fleet.Run(&ex, &sink));
    log->Close(s, st.trips_simulated);
    log->Aggregate("synth.sink.consume", s, sink.busy.ns, sink.busy.items);
  }

  // clean: each public stage function called per raw trip, serially,
  // beside CleanTrips itself serially and on the workers.
  {
    Busy order, outlier, segment, filter;
    tt::clean::CleaningReport st;
    s = log->Open("clean.serial_pass", root);
    for (const tt::trace::Trip& raw_trip : store.trips()) {
      tt::trace::Trip trip = raw_trip;
      const int64_t n_in = static_cast<int64_t>(trip.points.size());
      int64_t t0 = NowNs();
      tt::clean::RepairTripOrder(&trip, &st.order);
      order.Add(t0, n_in);
      t0 = NowNs();
      tt::clean::FilterTripOutliers(&trip, copts.outliers, &st.outliers);
      outlier.Add(t0, n_in);
      const int64_t n_kept = static_cast<int64_t>(trip.points.size());
      t0 = NowNs();
      std::vector<tt::trace::Trip> segs =
          tt::clean::SegmentTrip(trip, copts.segmentation, &st.segmentation);
      segment.Add(t0, n_kept);
      int64_t n_seg = 0;
      for (const tt::trace::Trip& g : segs) {
        n_seg += static_cast<int64_t>(g.points.size());
      }
      t0 = NowNs();
      const std::vector<tt::trace::Trip> kept =
          tt::clean::FilterTrips(std::move(segs), copts.filter, &st.filter);
      filter.Add(t0, n_seg);
    }
    log->Close(s, static_cast<int64_t>(store.NumTrips()));
    log->Aggregate("clean.order_repair", s, order.ns, order.items);
    log->Aggregate("clean.outlier_filter", s, outlier.ns, outlier.items);
    log->Aggregate("clean.segmentation", s, segment.ns, segment.items);
    log->Aggregate("clean.trip_filter", s, filter.ns, filter.items);
  }
  s = log->Open("clean.trips_serial", root);
  TAXITRACE_ASSIGN_OR_RETURN(
      const std::vector<tt::trace::Trip> serial_cleaned,
      tt::clean::CleanTrips(store, copts, nullptr, &tt::Executor::Serial()));
  log->Close(s, static_cast<int64_t>(store.NumTrips()));
  tt::clean::CleaningReport report;
  s = log->Open("clean.trips_parallel", root);
  TAXITRACE_ASSIGN_OR_RETURN(
      const std::vector<tt::trace::Trip> cleaned,
      tt::clean::CleanTrips(store, copts, &report, &ex));
  log->Close(s, static_cast<int64_t>(store.NumTrips()));
  if (serial_cleaned.size() != cleaned.size()) {
    return tt::Status::Internal("serial and parallel cleaning disagree");
  }
  (*counts)["clean.raw_points"] = static_cast<double>(report.raw_points);
  (*counts)["clean.clean_points"] = static_cast<double>(report.clean_points);

  // odselect + mapmatch + mapattr: MatchSegment's chain with a span
  // around each layer call, beside MatchSegment itself, serially.
  const Machinery m(map, cfg);
  s = log->Open("select.match_segment_serial", root);
  int64_t chained_transitions = 0;
  for (const tt::trace::Trip& seg : cleaned) {
    chained_transitions += static_cast<int64_t>(
        tt::core::MatchSegment(seg, m.ctx).transitions.size());
  }
  log->Close(s, static_cast<int64_t>(cleaned.size()));
  {
    Busy gate, match, fetch;
    int64_t transitions = 0;
    s = log->Open("select.serial_pass", root);
    for (const tt::trace::Trip& seg : cleaned) {
      tt::mapmatch::RouteCache cache(m.ctx.route_cache_capacity);
      int64_t t0 = NowNs();
      const tt::odselect::TripGateAnalysis analysis = m.extractor.Analyze(seg);
      gate.Add(t0, 1);
      if (!analysis.crosses_gate_at_angle ||
          analysis.distinct_gates_crossed < 2) {
        continue;
      }
      for (const tt::odselect::Transition& tr : analysis.transitions) {
        if (!tt::odselect::IsSelectedDirection(tr, cfg.transition_filter) ||
            !tt::odselect::IsWithinCentralArea(
                tr, map.central_area, m.ctx.region,
                map.network.projection(), cfg.transition_filter)) {
          continue;
        }
        t0 = NowNs();
        tt::Result<tt::mapmatch::MatchedRoute> route =
            m.matcher.Match(tr.segment, &cache);
        match.Add(t0, static_cast<int64_t>(tr.segment.points.size()));
        if (!route.ok()) continue;
        const auto o = m.gate_by_name.find(tr.origin);
        const auto d = m.gate_by_name.find(tr.destination);
        if (o == m.gate_by_name.end() || d == m.gate_by_name.end() ||
            !tt::odselect::PassesEndpointPostFilter(
                route->geometry, *o->second, *d->second,
                cfg.transition_filter)) {
          continue;
        }
        const double low = tt::analysis::LowSpeedShare(tr.segment, cfg.speed);
        const double normal = tt::analysis::NormalSpeedShare(
            tr.segment, *route, map.network, cfg.speed);
        t0 = NowNs();
        const tt::mapattr::RouteAttributes attrs = m.fetcher.Fetch(*route);
        fetch.Add(t0, 1);
        (void)low;
        (void)normal;
        (void)attrs;
        ++transitions;
      }
    }
    log->Close(s, static_cast<int64_t>(cleaned.size()));
    log->Aggregate("odselect.gate_crossing", s, gate.ns, gate.items);
    log->Aggregate("mapmatch.match_transitions", s, match.ns, match.items);
    log->Aggregate("mapattr.fetch", s, fetch.ns, fetch.items);
    if (transitions != chained_transitions) {
      return tt::Status::Internal("outside chain disagrees with MatchSegment");
    }
  }

  // mapmatch on whole segments (the match_all unit), on a subset.
  std::vector<const tt::trace::Trip*> subset;
  for (size_t i = 0; i < cleaned.size(); i += kMatchSubsetStride) {
    subset.push_back(&cleaned[i]);
  }
  std::vector<std::pair<tt::roadnet::EdgePosition, tt::roadnet::EdgePosition>>
      pairs;
  {
    const tt::roadnet::RouterStats r0 = m.matcher.gap_filler().router().stats();
    const tt::roadnet::SpatialIndexStats i0 = m.index.stats();
    Busy match;
    int64_t hits = 0, misses = 0, points = 0;
    s = log->Open("mapmatch.subset_serial", root);
    for (const tt::trace::Trip* seg : subset) {
      tt::mapmatch::RouteCache cache(m.ctx.route_cache_capacity);
      const int64_t t0 = NowNs();
      const tt::Result<tt::mapmatch::MatchedRoute> r =
          m.matcher.Match(*seg, &cache);
      match.Add(t0, static_cast<int64_t>(seg->points.size()));
      points += static_cast<int64_t>(seg->points.size());
      hits += cache.stats().hits;
      misses += cache.stats().misses;
      if (!r.ok()) continue;
      for (size_t k = 1; k < r->points.size() && pairs.size() < kMaxGapFillCalls;
           ++k) {
        pairs.emplace_back(r->points[k - 1].position, r->points[k].position);
      }
    }
    log->Close(s, static_cast<int64_t>(subset.size()));
    log->Aggregate("mapmatch.match", s, match.ns, match.items);
    const tt::roadnet::RouterStats r1 = m.matcher.gap_filler().router().stats();
    const tt::roadnet::SpatialIndexStats i1 = m.index.stats();
    (*counts)["mapmatch.route_cache.hits"] = static_cast<double>(hits);
    (*counts)["mapmatch.route_cache.misses"] = static_cast<double>(misses);
    (*counts)["roadnet.router.searches"] =
        static_cast<double>(r1.searches - r0.searches);
    (*counts)["roadnet.router.settled_vertices"] =
        static_cast<double>(r1.settled_vertices - r0.settled_vertices);
    (*counts)["roadnet.spatial_index.candidates"] =
        static_cast<double>(i1.candidates - i0.candidates);
    (*counts)["roadnet.spatial_index.hits"] =
        static_cast<double>(i1.hits - i0.hits);
  }
  s = log->Open("mapmatch.subset_parallel", root);
  TAXITRACE_RETURN_IF_ERROR(ex.ParallelFor(
      0, static_cast<int64_t>(subset.size()), [&](int64_t i) -> tt::Status {
        tt::mapmatch::RouteCache cache(m.ctx.route_cache_capacity);
        const tt::Result<tt::mapmatch::MatchedRoute> r =
            m.matcher.Match(*subset[static_cast<size_t>(i)], &cache);
        (void)r;
        return tt::Status::OK();
      }));
  log->Close(s, static_cast<int64_t>(subset.size()));
  {
    Busy cand;
    int64_t found = 0;
    std::vector<tt::geo::EnPoint> pts;
    std::vector<double> heading;
    std::vector<char> valid;
    const tt::geo::LocalProjection& proj = map.network.projection();
    s = log->Open("mapmatch.candidates_pass", root);
    for (const tt::trace::Trip* seg : subset) {
      pts.resize(seg->points.size());
      for (size_t i = 0; i < pts.size(); ++i) {
        pts[i] = proj.Forward(seg->points[i].position);
      }
      Headings(pts, &heading, &valid);
      const int64_t t0 = NowNs();
      for (size_t i = 0; i < pts.size(); ++i) {
        found += static_cast<int64_t>(
            tt::mapmatch::FindCandidates(m.index, pts[i], heading[i],
                                         valid[i] != 0, cfg.matcher.score)
                .size());
      }
      cand.Add(t0, static_cast<int64_t>(pts.size()));
    }
    log->Close(s, static_cast<int64_t>(subset.size()));
    log->Aggregate("mapmatch.candidates", s, cand.ns, cand.items);
    (void)found;
  }
  {
    Busy gap;
    s = log->Open("mapmatch.gap_fill_pass", root);
    for (const auto& [from, to] : pairs) {
      const int64_t t0 = NowNs();
      const tt::Result<tt::roadnet::Path> p =
          m.matcher.gap_filler().Connect(from, to);
      gap.Add(t0, 1);
      (void)p;
    }
    log->Close(s, static_cast<int64_t>(pairs.size()));
    log->Aggregate("mapmatch.gap_fill", s, gap.ns, gap.items);
  }

  // analysis + model over the study's transition points.
  {
    const tt::geo::LocalProjection& proj = study.map.network.projection();
    std::vector<std::pair<tt::geo::EnPoint, double>> samples;
    for (const tt::core::MatchedTransition& mt : study.transitions) {
      for (const tt::trace::RoutePoint& p : mt.transition.segment.points) {
        samples.emplace_back(proj.Forward(p.position), p.speed_kmh);
      }
    }
    const tt::analysis::Grid grid(study.grid_cell_m);
    tt::analysis::CellSpeedAccumulator acc(grid);
    s = log->Open("analysis.grid", root);
    for (const auto& [pt, v] : samples) acc.Add(pt, v);
    log->Close(s, static_cast<int64_t>(samples.size()));
    tt::model::OneWayReml reml;
    std::unordered_map<tt::analysis::CellId, size_t, tt::analysis::CellIdHash>
        group;
    for (const auto& [pt, v] : samples) {
      const auto [it, inserted] = group.emplace(grid.CellOf(pt), group.size());
      (void)inserted;
      reml.Add(it->second, v);
    }
    s = log->Open("model.reml.fit", root);
    TAXITRACE_ASSIGN_OR_RETURN(const tt::model::OneWayRemlFit fit, reml.Fit());
    log->Close(s, static_cast<int64_t>(reml.num_groups()));
    (void)fit;
  }

  // stream: one IngestSession per car over the shuffled arrival stream,
  // first into a sink that only counts, then into the clean + match
  // window unit.
  {
    const tt::core::StudyConfig icfg =
        MakeStudyConfig(Workload::kStudyIngest, seed);
    const tt::stream::IngestOptions& iopts = icfg.ingest;
    const std::vector<int> cars = store.CarIds();
    std::vector<tt::stream::CarStream> streams;
    for (const int car : cars) {
      tt::stream::CarStream cs = tt::stream::BuildCarStream(store, car);
      tt::stream::ShuffleArrivals(
          &cs.records,
          tt::MixSeed(iopts.arrival_shuffle_seed, static_cast<uint64_t>(car),
                      0),
          iopts.arrival_shuffle_window);
      streams.push_back(std::move(cs));
    }
    Busy reorder;
    tt::stream::IngestStats total;
    s = log->Open("stream.count_pass", root);
    for (const tt::stream::CarStream& cs : streams) {
      CountingSink sink;
      tt::stream::IngestSession session(cs.car_id, iopts, &sink);
      const int64_t t0 = NowNs();
      for (const tt::stream::StreamRecord& rec : cs.records) {
        TAXITRACE_RETURN_IF_ERROR(session.Ingest(rec));
      }
      TAXITRACE_RETURN_IF_ERROR(session.FinishStream());
      reorder.Add(t0, static_cast<int64_t>(cs.records.size()));
      total.Add(session.stats());
    }
    log->Close(s, static_cast<int64_t>(streams.size()));
    log->Aggregate("stream.reorder", s, reorder.ns, reorder.items);
    (*counts)["stream.peak_buffered_records"] =
        static_cast<double>(total.peak_buffered_records);
    (*counts)["stream.latency_p99_slots"] = static_cast<double>(
        tt::stream::IngestLatencyQuantile(total, 0.99));

    s = log->Open("stream.flush_pass", root);
    for (const tt::stream::CarStream& cs : streams) {
      const int car_span = log->Open("stream.car", s);
      TimedWindowSink sink(&copts, &m.ctx);
      tt::stream::IngestSession session(cs.car_id, iopts, &sink);
      for (const tt::stream::StreamRecord& rec : cs.records) {
        TAXITRACE_RETURN_IF_ERROR(session.Ingest(rec));
      }
      TAXITRACE_RETURN_IF_ERROR(session.FinishStream());
      log->Close(car_span, static_cast<int64_t>(cs.records.size()));
      log->Aggregate("stream.flush", car_span, sink.busy.ns, sink.busy.items);
    }
    log->Close(s, static_cast<int64_t>(streams.size()));

    // The online shape's own top-level stage span.
    TAXITRACE_ASSIGN_OR_RETURN(const tt::core::StudyResults ingest,
                               RunPipeline(icfg, true));
    (*counts)["core.stage.stream_ingestion_ms"] =
        ingest.timings.stream_ingest_ms;
  }

  // serve: snapshot build and load, then QueryEngine calls in batches.
  {
    s = log->Open("serve.snapshot.build", root);
    TAXITRACE_ASSIGN_OR_RETURN(const std::string bytes,
                               tt::serve::SnapshotBuilder().Build(study, &ex));
    log->Close(s, static_cast<int64_t>(bytes.size()));
    std::optional<tt::serve::Snapshot> snap;
    for (int rep = 0; rep < 5; ++rep) {
      std::string copy = bytes;
      s = log->Open("serve.snapshot.load", root);
      TAXITRACE_ASSIGN_OR_RETURN(tt::serve::Snapshot loaded,
                                 tt::serve::Snapshot::FromBytes(std::move(copy)));
      log->Close(s, loaded.num_cells());
      snap.emplace(std::move(loaded));
    }
    const tt::analysis::Grid grid(snap->meta().cell_size_m);
    const int64_t cells = snap->num_cells();
    std::vector<tt::geo::EnPoint> points;
    std::vector<tt::geo::Bbox> boxes;
    tt::Rng rng(tt::MixSeed(kReplaySeedBase + seed, 7, 0));
    for (int64_t q = 0; q < kLayerQueriesPerType && cells > 0; ++q) {
      const tt::geo::Bbox b =
          grid.CellBounds(snap->cell(rng.UniformInt(0, cells - 1)));
      points.push_back({rng.Uniform(b.min_x, b.max_x),
                        rng.Uniform(b.min_y, b.max_y)});
      const double span = static_cast<double>(rng.UniformInt(0, 2)) *
                          snap->meta().cell_size_m;
      boxes.push_back({b.min_x - span, b.min_y - span, b.max_x + span,
                       b.max_y + span});
    }
    tt::serve::QueryEngine engine(&*snap);
    tt::serve::CellStats out;
    std::vector<tt::serve::CellStats> box_out;
    int64_t answered = 0;
    s = log->Open("serve.point", root);
    for (const tt::geo::EnPoint& p : points) {
      answered += engine.PointQuery(p, 0, &out) ==
                  tt::serve::QueryOutcome::kAnswered;
    }
    log->Close(s, static_cast<int64_t>(points.size()));
    s = log->Open("serve.bbox", root);
    for (const tt::geo::Bbox& b : boxes) {
      box_out.clear();
      answered += engine.BboxQuery(b, 0, &box_out) ==
                  tt::serve::QueryOutcome::kAnswered;
    }
    log->Close(s, static_cast<int64_t>(boxes.size()));
    s = log->Open("serve.slice", root);
    for (size_t q = 0; q < points.size(); ++q) {
      const bool day = q % 2 == 0;
      answered += engine.SliceQuery(
                      points[q],
                      day ? tt::serve::SliceKind::kDayType
                          : tt::serve::SliceKind::kCrowd,
                      static_cast<int32_t>(q % (day ? 2 : 3)), &out) ==
                  tt::serve::QueryOutcome::kAnswered;
    }
    log->Close(s, static_cast<int64_t>(points.size()));
    if (answered == 0) return tt::Status::Internal("no query answered");
    s = log->Open("serve.replay", root);
    TAXITRACE_ASSIGN_OR_RETURN(
        const tt::serve::ReplayResult r,
        RunReplay(*snap, kReplaySeedBase + seed, kLayerReplayQueries, ex,
                  false));
    log->Close(s, r.num_queries);
    (*counts)["serve.replay.qps"] = r.qps;
    (*counts)["serve.replay.p50_us"] = r.p50_us;
    (*counts)["serve.replay.p99_us"] = r.p99_us;
  }

  log->Close(root, 0);
  return tt::Status::OK();
}

void StageCounts(const tt::core::StudyResults& r, Counts* counts) {
  const tt::core::StageTimings& t = r.timings;
  (*counts)["core.stage.map_generation_ms"] = t.map_generation_ms;
  (*counts)["core.stage.simulation_ms"] = t.simulation_ms;
  (*counts)["core.stage.cleaning_ms"] = t.cleaning_ms;
  (*counts)["core.stage.selection_matching_ms"] = t.selection_matching_ms;
  (*counts)["core.stage.analysis_ms"] = t.analysis_ms;
}

// Fixed work on the job's workers — fill, sort and sweep 256 KB per
// task — whose duration tracks how fast the shared host runs right now.
double CalibrationSeconds(const tt::Executor& ex) {
  constexpr int64_t kTasks = 128;
  constexpr size_t kValues = size_t{1} << 15;
  std::vector<double> sums(kTasks, 0.0);
  const int64_t t0 = NowNs();
  const tt::Status st = ex.ParallelFor(0, kTasks, [&](int64_t task) {
    std::vector<double> v(kValues);
    uint64_t x = static_cast<uint64_t>(task) + 1;
    for (double& d : v) {
      x = tt::SplitMix64(x);
      d = static_cast<double>(x >> 11) * 0x1.0p-53 * 1000.0;
    }
    std::sort(v.begin(), v.end());
    double acc = 0.0;
    for (size_t i = 1; i < v.size(); ++i) {
      acc += std::sqrt(v[i] * v[i] + v[i - 1] * v[i - 1]);
    }
    sums[static_cast<size_t>(task)] = acc;
    return tt::Status::OK();
  });
  const double seconds = SecondsSince(t0);
  return st.ok() && sums[0] > 0.0 ? seconds : -1.0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = v;
    } else if (key == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (*end != '\0' || a->seconds <= 0) return false;
    } else if (key == "--trace") {
      a->trace = std::atoi(v);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty();
}

int Fail(const tt::Status& st) {
  std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  const std::optional<Workload> parsed = ParseWorkload(args.workload);
  if (!parsed) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const Workload w = *parsed;
  const uint64_t seed = args.seed;
  const bool traced = args.trace != 0;
  const tt::core::StudyConfig cfg = MakeStudyConfig(w, seed);
  const tt::Executor ex(kWorkers);

  std::vector<double> setup_s;
  // Calibration runs bracketing each set-up and each timed job:
  // entry k is taken just before set-up (job) k and just after k - 1.
  std::vector<double> setup_calib_s;
  std::vector<double> calib_s;
  std::string check_digest;
  bool warmups_agree = true;
  std::vector<JobRun> runs;
  std::vector<double> untraced_s, traced_s;
  std::optional<tt::core::StudyResults> traced_study;
  SpanLog log;
  Counts counts;
  std::optional<MatchInputs> match_in;
  std::optional<ServeInputs> serve_in;
  std::vector<uint64_t> check_hashes;

  // Set-up, several times; the median is reported. On a study the
  // set-up is an untimed warm-up run of the job with observability on,
  // which fills lazy state and checks the funnel reconciles
  // (Pipeline::Run fails otherwise); its digest is the in-run check.
  const int setup_reps = IsStudy(w) ? 2 : 3;
  for (int rep = 0; rep < setup_reps; ++rep) {
    setup_calib_s.push_back(CalibrationSeconds(ex));
    const int64_t t0 = NowNs();
    if (IsStudy(w)) {
      const tt::Result<tt::core::StudyResults> r = RunPipeline(cfg, true);
      if (!r.ok()) return Fail(r.status());
      setup_s.push_back(SecondsSince(t0));
      const std::string d = Hex(Fnv1a(tt::core::StudyDigestJson(*r)));
      if (!check_digest.empty() && d != check_digest) warmups_agree = false;
      check_digest = d;
    } else if (w == Workload::kMatchAll) {
      match_in.reset();
      tt::Result<MatchInputs> r = BuildMatchInputs(cfg, ex);
      if (!r.ok()) return Fail(r.status());
      setup_s.push_back(SecondsSince(t0));
      match_in.emplace(std::move(*r));
    } else {
      serve_in.reset();
      tt::Result<ServeInputs> r = BuildServeInputs(cfg, ex, traced);
      if (!r.ok()) return Fail(r.status());
      setup_s.push_back(SecondsSince(t0));
      serve_in.emplace(std::move(*r));
    }
  }
  setup_calib_s.push_back(CalibrationSeconds(ex));
  if (w == Workload::kMatchAll) {
    // Warm-up pass: its per-segment hashes are the in-run check.
    tt::Result<MatchPass> p = RunMatchPass(*match_in, ex, nullptr);
    if (!p.ok()) return Fail(p.status());
    check_hashes = p->hashes;
    check_digest = Hex(FoldHashes(p->hashes, p->rejected));
  } else if (w == Workload::kServeReplay) {
    // Warm-up replay with the metrics registry and the funnel attached.
    const tt::Result<uint64_t> r =
        RunReplayClients(*serve_in->snapshot, seed, ex, true);
    if (!r.ok()) return Fail(r.status());
    check_digest = Hex(*r);
  }

  // One job: a study run, a match_all pass, or one replay.
  const auto run_job = [&](bool observe) -> tt::Result<JobRun> {
    JobRun job;
    if (IsStudy(w)) {
      const int64_t t0 = NowNs();
      tt::Result<tt::core::StudyResults> r = RunPipeline(cfg, observe);
      job.wall_s = SecondsSince(t0);
      if (!r.ok()) return r.status();
      job.digest = Hex(Fnv1a(tt::core::StudyDigestJson(*r)));
      if (observe) traced_study.emplace(std::move(*r));
    } else if (w == Workload::kMatchAll) {
      std::vector<int64_t> busy;
      TAXITRACE_ASSIGN_OR_RETURN(
          const MatchPass p,
          RunMatchPass(*match_in, ex, observe ? &busy : nullptr));
      job.wall_s = p.wall_s;
      job.digest = Hex(FoldHashes(p.hashes, p.rejected));
      job.units = static_cast<int64_t>(p.hashes.size());
      for (size_t i = 0; i < p.hashes.size(); ++i) {
        job.unit_mismatches += p.hashes[i] != check_hashes[i];
      }
    } else {
      const int64_t t0 = NowNs();
      TAXITRACE_ASSIGN_OR_RETURN(
          const uint64_t digest,
          RunReplayClients(*serve_in->snapshot, seed, ex, observe));
      job.wall_s = SecondsSince(t0);
      job.digest = Hex(digest);
      job.units = kReplayQueries;
    }
    return job;
  };

  if (!traced) {
    calib_s.push_back(CalibrationSeconds(ex));
    const int64_t start = NowNs();
    while (runs.size() < 3 || SecondsSince(start) < args.seconds) {
      tt::Result<JobRun> job = run_job(false);
      if (!job.ok()) return Fail(job.status());
      runs.push_back(*job);
      calib_s.push_back(CalibrationSeconds(ex));
    }
  } else {
    for (int rep = 0; rep < 2; ++rep) {
      for (const bool observe : {false, true}) {
        tt::Result<JobRun> job = run_job(observe);
        if (!job.ok()) return Fail(job.status());
        (observe ? traced_s : untraced_s).push_back(job->wall_s);
        runs.push_back(*job);
      }
    }
  }
  const double peak_rss_mb = PeakRssMb();

  // The equivalence contract: streamed and online-ingest studies equal
  // the batch study byte for byte.
  std::string batch_digest;
  if (w == Workload::kStudyStreamed || w == Workload::kStudyIngest) {
    const tt::Result<tt::core::StudyResults> r =
        RunPipeline(MakeStudyConfig(Workload::kStudyBatch, seed), false);
    if (!r.ok()) return Fail(r.status());
    batch_digest = Hex(Fnv1a(tt::core::StudyDigestJson(*r)));
  }

  if (traced) {
    const tt::core::StudyResults* study = nullptr;
    std::optional<tt::core::StudyResults> own;
    if (IsStudy(w)) {
      study = &*traced_study;
    } else if (w == Workload::kServeReplay) {
      study = &*serve_in->study;
    } else {
      tt::Result<tt::core::StudyResults> r = RunPipeline(cfg, true);
      if (!r.ok()) return Fail(r.status());
      own.emplace(std::move(*r));
      study = &*own;
    }
    StageCounts(*study, &counts);
    const tt::core::StudyConfig layer_cfg =
        MakeStudyConfig(Workload::kStudyBatch, seed);
    const tt::Status st = LayerPass(seed, layer_cfg, *study, ex, &log,
                                    &counts);
    if (!st.ok()) return Fail(st);
  }

  std::string out = "{";
  out += "\"workload\":" + JsonString(args.workload);
  out += ",\"seed\":" + std::to_string(seed);
  out += ",\"env\":{\"compiler\":" + JsonString(__VERSION__) +
         ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
#ifdef NDEBUG
         ",\"ndebug\":true" +
#else
         ",\"ndebug\":false" +
#endif
         ",\"nproc\":" +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"workers\":" + std::to_string(kWorkers) + "}";
  out += ",\"setup_s\":" + JsonDoubles(setup_s);
  out += ",\"setup_calib_s\":" + JsonDoubles(setup_calib_s);
  out += ",\"calib_s\":" + JsonDoubles(calib_s);
  out += ",\"check_digest\":" + JsonString(check_digest);
  out += ",\"batch_digest\":" + JsonString(batch_digest);
  out += ",\"check_ok\":" + std::string(warmups_agree ? "true" : "false");
  out += ",\"peak_rss_mb\":" + JsonNumber(peak_rss_mb);
  out += ",\"runs\":[";
  for (size_t i = 0; i < runs.size(); ++i) {
    if (i > 0) out += ",";
    out += "{\"wall_s\":" + JsonNumber(runs[i].wall_s) +
           ",\"digest\":" + JsonString(runs[i].digest) +
           ",\"units\":" + std::to_string(runs[i].units) +
           ",\"unit_mismatches\":" + std::to_string(runs[i].unit_mismatches) +
           "}";
  }
  out += "]";
  out += ",\"untraced_s\":" + JsonDoubles(untraced_s);
  out += ",\"traced_s\":" + JsonDoubles(traced_s);
  out += ",\"counts\":{";
  bool first = true;
  for (const auto& [k, v] : counts) {
    if (!first) out += ",";
    first = false;
    out += JsonString(k) + ":" + JsonNumber(v);
  }
  out += "}";
  out += ",\"spans\":" + log.Json();
  out += "}";
  std::printf("PERFBENCH %s\n", out.c_str());
  return 0;
}
