#include "taxitrace/stream/ingest_session.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "taxitrace/common/check.h"
#include "taxitrace/common/random.h"
#include "taxitrace/common/strings.h"

namespace taxitrace {
namespace stream {

void IngestStats::Add(const IngestStats& other) {
  points_offered += other.points_offered;
  trip_markers_offered += other.trip_markers_offered;
  points_released += other.points_released;
  trip_markers_released += other.trip_markers_released;
  points_dropped_late += other.points_dropped_late;
  trip_markers_dropped_late += other.trip_markers_dropped_late;
  slots_declared_lost += other.slots_declared_lost;
  windows_opened += other.windows_opened;
  windows_opened_implicit += other.windows_opened_implicit;
  windows_closed += other.windows_closed;
  peak_buffered_records =
      std::max(peak_buffered_records, other.peak_buffered_records);
  if (latency_hist.size() < other.latency_hist.size()) {
    latency_hist.resize(other.latency_hist.size(), 0);
  }
  for (size_t i = 0; i < other.latency_hist.size(); ++i) {
    latency_hist[i] += other.latency_hist[i];
  }
}

int64_t IngestLatencyQuantile(const IngestStats& stats, double q) {
  int64_t total = 0;
  for (const int64_t n : stats.latency_hist) total += n;
  if (total == 0) return 0;
  const double rank = q * static_cast<double>(total);
  int64_t cumulative = 0;
  for (size_t b = 0; b < stats.latency_hist.size(); ++b) {
    cumulative += stats.latency_hist[b];
    if (static_cast<double>(cumulative) >= rank) {
      return static_cast<int64_t>(b);
    }
  }
  return static_cast<int64_t>(stats.latency_hist.size()) - 1;
}

int64_t IngestLatencyMax(const IngestStats& stats) {
  for (size_t b = stats.latency_hist.size(); b > 0; --b) {
    if (stats.latency_hist[b - 1] > 0) return static_cast<int64_t>(b - 1);
  }
  return 0;
}

IngestSession::IngestSession(int car_id, const IngestOptions& options,
                             trace::TripSink* sink)
    : car_id_(car_id), options_(options), sink_(sink) {
  TT_CHECK(options_.reorder_lag >= 0);
  // One bucket per latency value the lossless contract allows, plus an
  // overflow bucket for anything beyond the lag (late floods can stall
  // a buffered record past the bound; the overflow keeps that visible).
  stats_.latency_hist.assign(
      static_cast<size_t>(
          std::min(options_.reorder_lag, IngestStats::kMaxLatencyBucket)) +
          2,
      0);
}

void IngestSession::RecordLatency(int64_t latency_slots) {
  const auto last = stats_.latency_hist.size() - 1;
  const size_t bucket =
      std::min(static_cast<size_t>(std::max<int64_t>(latency_slots, 0)),
               last);
  ++stats_.latency_hist[bucket];
}

Status IngestSession::CloseWindow() {
  if (!window_open_) return Status::OK();
  window_open_ = false;
  ++stats_.windows_closed;
  trace::Trip finished = std::move(window_);
  window_ = trace::Trip{};
  if (sink_ != nullptr) {
    return sink_->Consume(std::move(finished));
  }
  return Status::OK();
}

Status IngestSession::Release(const StreamRecord& rec, int64_t arrived_at) {
  RecordLatency(arrivals_ - arrived_at);
  if (rec.kind == StreamRecord::Kind::kTripBegin) {
    ++stats_.trip_markers_released;
    TAXITRACE_RETURN_IF_ERROR(CloseWindow());
    window_open_ = true;
    ++stats_.windows_opened;
    window_.trip_id = rec.trip_id;
    window_.car_id = rec.car_id;
    window_.total_time_s = rec.total_time_s;
    window_.total_distance_m = rec.total_distance_m;
    window_.total_fuel_ml = rec.total_fuel_ml;
    return Status::OK();
  }
  ++stats_.points_released;
  if (!window_open_ || window_.trip_id != rec.trip_id) {
    // The container's marker was lost or is still late: open the window
    // implicitly so its points survive (with zeroed device totals — the
    // marker carried them and it is gone).
    TAXITRACE_RETURN_IF_ERROR(CloseWindow());
    window_open_ = true;
    ++stats_.windows_opened;
    ++stats_.windows_opened_implicit;
    window_.trip_id = rec.trip_id;
    window_.car_id = rec.car_id;
  }
  window_.points.push_back(rec.point);
  return Status::OK();
}

void IngestSession::Reserve(int64_t seq) {
  const auto span = static_cast<size_t>(seq - next_expected_) + 1;
  if (span <= ring_.size()) return;
  std::vector<BufferedRecord> grown(std::bit_ceil(span));
  for (size_t i = 0; i < ring_.size(); ++i) {
    const int64_t s = next_expected_ + static_cast<int64_t>(i);
    BufferedRecord& old = Slot(s);
    if (old.arrived_at != 0) {
      grown[static_cast<size_t>(s) & (grown.size() - 1)] = std::move(old);
    }
  }
  ring_ = std::move(grown);
}

Status IngestSession::Step() {
  if (buffered_ > 0) {
    BufferedRecord& slot = Slot(next_expected_);
    if (slot.arrived_at != 0) {
      const int64_t arrived_at = slot.arrived_at;
      slot.arrived_at = 0;
      --buffered_;
      ++next_expected_;
      return Release(slot.record, arrived_at);
    }
  }
  ++stats_.slots_declared_lost;
  ++next_expected_;
  return Status::OK();
}

Status IngestSession::AdvanceTo(int64_t end) {
  while (next_expected_ < end) {
    if (buffered_ == 0) {
      // Nothing left to release below `end`: the rest are lost slots.
      stats_.slots_declared_lost += end - next_expected_;
      next_expected_ = end;
      break;
    }
    TAXITRACE_RETURN_IF_ERROR(Step());
  }
  return Status::OK();
}

Status IngestSession::DrainReady() {
  while (buffered_ > 0 && Slot(next_expected_).arrived_at != 0) {
    TAXITRACE_RETURN_IF_ERROR(Step());
  }
  stats_.peak_buffered_records =
      std::max(stats_.peak_buffered_records, buffered_);
  return Status::OK();
}

Status IngestSession::Ingest(const StreamRecord& record) {
  if (finished_) {
    return Status::FailedPrecondition(
        "IngestSession::Ingest after FinishStream");
  }
  if (record.car_id != car_id_) {
    return Status::InvalidArgument(
        StrFormat("record for car %d ingested into session of car %d",
                  record.car_id, car_id_));
  }
  ++arrivals_;
  const bool is_point = record.kind == StreamRecord::Kind::kPoint;
  if (is_point) {
    ++stats_.points_offered;
  } else {
    ++stats_.trip_markers_offered;
  }
  const int64_t seq = record.seq;
  // Behind the watermark (slot already released or declared lost), or a
  // duplicate of a buffered slot: an explicit, counted drop.
  if (seq < next_expected_ ||
      (buffered_ > 0 && seq <= max_seq_ && Slot(seq).arrived_at != 0)) {
    if (is_point) {
      ++stats_.points_dropped_late;
    } else {
      ++stats_.trip_markers_dropped_late;
    }
    return Status::OK();
  }
  // Watermark close: once this arrival is the stream head, every slot
  // more than `reorder_lag` behind it stops waiting. Closing them first
  // lands the arrival within reorder_lag of the release point.
  if (seq - next_expected_ > options_.reorder_lag) {
    TAXITRACE_RETURN_IF_ERROR(AdvanceTo(seq - options_.reorder_lag));
  }
  max_seq_ = std::max(max_seq_, seq);
  if (seq == next_expected_) {
    ++next_expected_;
    TAXITRACE_RETURN_IF_ERROR(Release(record, arrivals_));
  } else {
    Reserve(seq);
    Slot(seq) = BufferedRecord{record, arrivals_};
    ++buffered_;
  }
  return DrainReady();
}

Status IngestSession::FinishStream() {
  if (finished_) return Status::OK();
  finished_ = true;
  // End of stream: every remaining gap is a loss, everything buffered
  // beyond it is released in seq order.
  while (buffered_ > 0) {
    TAXITRACE_RETURN_IF_ERROR(Step());
  }
  return CloseWindow();
}

CarIngest::CarIngest(int car_id, const IngestOptions& options,
                     trace::TripSink* sink)
    : car_id_(car_id),
      session_(car_id, options, sink),
      shuffle_(MixSeed(options.arrival_shuffle_seed,
                       static_cast<uint64_t>(car_id), 0),
               options.arrival_shuffle_window,
               [this](const StreamRecord& record) {
                 return session_.Ingest(record);
               }) {}

Status CarIngest::AddTrip(const trace::Trip& trip) {
  return ForEachTripRecord(trip, car_id_, &next_seq_,
                           [this](StreamRecord record) {
                             return shuffle_.Push(std::move(record));
                           });
}

Status CarIngest::FinishStream() {
  TAXITRACE_RETURN_IF_ERROR(shuffle_.Flush());
  return session_.FinishStream();
}

void PublishIngestMetrics(const IngestStats& stats, obs::FunnelLedger* funnel,
                          obs::MetricsRegistry* metrics) {
  funnel
      ->AddStage("points.ingested", "points", stats.points_offered,
                 stats.points_released)
      .Drop("late_arrival", stats.points_dropped_late);
  funnel
      ->AddStage("windows.closed", "windows",
                 stats.trip_markers_offered + stats.windows_opened_implicit,
                 stats.windows_closed)
      .Drop("marker_late_arrival", stats.trip_markers_dropped_late);
  metrics->counter("stream.points_ingested")->Add(stats.points_released);
  metrics->counter("stream.points_dropped_late")
      ->Add(stats.points_dropped_late);
  metrics->counter("stream.windows_closed")->Add(stats.windows_closed);
  metrics->counter("stream.windows_opened_implicit")
      ->Add(stats.windows_opened_implicit);
  metrics->counter("stream.slots_declared_lost")
      ->Add(stats.slots_declared_lost);
  // Deterministic too (a max of per-car deterministic values), but a
  // high-water mark is a level, not a flow — hence a gauge.
  metrics->gauge("stream.peak_buffered_records")
      ->Set(static_cast<double>(stats.peak_buffered_records));
}

}  // namespace stream
}  // namespace taxitrace
