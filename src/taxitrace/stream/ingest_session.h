// Online ingestion of one car's arrival stream with bounded lag.
//
// The session is the streaming counterpart of the batch store walk: it
// accepts StreamRecords in arrival order, undoes bounded transport
// reordering, and reassembles upload sessions (container trips) as
// *windows* that are flushed to a TripSink the moment they are
// complete. Two rules govern release:
//
//  1. Contiguous release: the record with the smallest unreleased seq
//     is emitted as soon as it is present, so an in-order stream flows
//     straight through with zero buffering.
//  2. Watermark close: the watermark trails the stream head by the
//     configured lag (`watermark = max_seq_seen - reorder_lag`). A gap
//     older than the watermark stops waiting — its slots are declared
//     lost and the stream skips ahead — so no window ever survives a
//     watermark advance by more than the lag, and buffering is bounded
//     by `reorder_lag` records between arrivals.
//
// Buffered records live in a power-of-two ring indexed by `seq & mask`
// that grows to the span actually buffered, never to the configured
// lag: the slots cover seqs [next_expected, max_seq_seen], at most
// reorder_lag + 1 of them. An arrival more than reorder_lag ahead of
// the release point first releases or declares lost every slot below
// its own watermark, so it always lands inside that span.
//
// The equivalence contract: whenever every record's arrival
// displacement is at most `reorder_lag / 2`, nothing is ever declared
// lost, the released order equals the canonical (batch) order exactly,
// and per-record latency is at most `reorder_lag` arrival slots.
// Records that do arrive behind the watermark are counted as explicit
// late drops — the funnel ledger reconciles offered == released +
// dropped, so nothing is ever silently lost.

#ifndef TAXITRACE_STREAM_INGEST_SESSION_H_
#define TAXITRACE_STREAM_INGEST_SESSION_H_

#include <cstdint>
#include <vector>

#include "taxitrace/common/status.h"
#include "taxitrace/obs/funnel.h"
#include "taxitrace/obs/metrics.h"
#include "taxitrace/stream/stream_source.h"
#include "taxitrace/trace/trip.h"
#include "taxitrace/trace/trip_sink.h"

namespace taxitrace {
namespace stream {

/// Knobs of the online ingestion path.
struct IngestOptions {
  /// Reorder window, in arrival slots: how far the watermark trails the
  /// stream head before a missing record is declared lost. Displacement
  /// up to reorder_lag / 2 is repaired losslessly.
  int64_t reorder_lag = 64;

  /// When positive, the pipeline perturbs each car's canonical arrival
  /// order by at most this many slots before ingesting (deterministic
  /// per-car shuffle; see CarIngest). 0 ingests canonical order.
  /// Keep it at most reorder_lag / 2 to stay within the lossless bound.
  int64_t arrival_shuffle_window = 0;
  uint64_t arrival_shuffle_seed = 0x5EEDA11CULL;
};

/// What one (or a fold of several) ingest session(s) did. All fields
/// are plain integer counts merged additively in car order, so the
/// fold is byte-identical at any worker count.
struct IngestStats {
  int64_t points_offered = 0;        ///< Point records that arrived.
  int64_t trip_markers_offered = 0;  ///< kTripBegin records that arrived.
  int64_t points_released = 0;
  int64_t trip_markers_released = 0;
  /// Arrived behind the watermark (their slot was already released or
  /// declared lost) and were dropped — the funnel's late_arrival drops.
  int64_t points_dropped_late = 0;
  int64_t trip_markers_dropped_late = 0;
  /// Seq slots the watermark gave up waiting for. If the record later
  /// arrives it is counted above; a slot whose record never arrives at
  /// all stays accounted here.
  int64_t slots_declared_lost = 0;

  int64_t windows_opened = 0;
  /// Windows opened by a point whose marker was lost or late — the
  /// session synthesises the container so the points still flow.
  int64_t windows_opened_implicit = 0;
  int64_t windows_closed = 0;

  /// High-water mark of records buffered awaiting release between
  /// arrivals (<= lag).
  int64_t peak_buffered_records = 0;

  /// Per-record release latency in arrival slots: bucket b counts
  /// records released after b further arrivals on the same stream
  /// (0 = released by the arrival that carried them). A session keeps
  /// min(reorder_lag, kMaxLatencyBucket) + 2 buckets; the last one
  /// accumulates everything >= its index.
  std::vector<int64_t> latency_hist;

  /// Cap on the histogram's per-value buckets, so a huge configured lag
  /// does not allocate a huge histogram.
  static constexpr int64_t kMaxLatencyBucket = int64_t{1} << 16;

  /// Adds every counter of `other` into this (latency buckets
  /// element-wise, growing to the larger histogram).
  void Add(const IngestStats& other);
};

/// Smallest latency (in slots) at or below which a fraction `q` of the
/// released records fall; 0 when nothing was released.
int64_t IngestLatencyQuantile(const IngestStats& stats, double q);

/// Largest occupied latency bucket; 0 when nothing was released.
int64_t IngestLatencyMax(const IngestStats& stats);

/// Ingests one car's stream. Not thread-safe: one session per car, one
/// car per work item — sessions never share state, which is what lets
/// the pipeline fan them out over the executor deterministically.
class IngestSession {
 public:
  /// `sink` receives each closed window as a trace::Trip, in release
  /// order, from the thread driving Ingest/FinishStream; it may be
  /// null (count-only ingestion). The sink's error aborts the session.
  IngestSession(int car_id, const IngestOptions& options,
                trace::TripSink* sink);

  IngestSession(const IngestSession&) = delete;
  IngestSession& operator=(const IngestSession&) = delete;

  /// Accepts the next arrival. Releases every record the arrival makes
  /// ready and flushes every window those releases complete.
  Status Ingest(const StreamRecord& record);

  /// End of stream: releases everything still buffered (gaps become
  /// lost slots) and closes the open window. Ingest must not be called
  /// afterwards.
  Status FinishStream();

  [[nodiscard]] const IngestStats& stats() const { return stats_; }

  /// The watermark: seqs at or below it are released, lost, or late.
  [[nodiscard]] int64_t watermark() const {
    return max_seq_ - options_.reorder_lag;
  }
  [[nodiscard]] int64_t next_expected_seq() const { return next_expected_; }
  [[nodiscard]] int64_t max_seq_seen() const { return max_seq_; }
  [[nodiscard]] int64_t buffered_records() const { return buffered_; }

 private:
  struct BufferedRecord {
    StreamRecord record;
    /// Arrival counter when it was ingested; 0 marks an empty slot
    /// (the counter is at least 1 once anything has arrived).
    int64_t arrived_at = 0;
  };

  BufferedRecord& Slot(int64_t seq) {
    return ring_[static_cast<size_t>(seq) & (ring_.size() - 1)];
  }
  /// Grows the ring to cover seqs [next_expected_, seq].
  void Reserve(int64_t seq);
  /// Releases the next expected slot if it is buffered, or declares it
  /// lost, and advances past it.
  Status Step();
  /// Steps until next_expected_ reaches `end` (the watermark close).
  Status AdvanceTo(int64_t end);
  Status Release(const StreamRecord& record, int64_t arrived_at);
  Status DrainReady();
  Status CloseWindow();
  void RecordLatency(int64_t latency_slots);

  const int car_id_;
  const IngestOptions options_;
  trace::TripSink* const sink_;

  /// Out-of-order arrivals awaiting their predecessors: a ring whose
  /// size is zero or a power of two, covering seqs [next_expected_,
  /// next_expected_ + ring_.size()). Between arrivals it holds at most
  /// reorder_lag records (seqs in (next_expected_, max_seq_], a span the
  /// watermark caps at the lag), in at most bit_ceil(reorder_lag + 1)
  /// slots.
  std::vector<BufferedRecord> ring_;
  int64_t buffered_ = 0;
  int64_t next_expected_ = 0;
  int64_t max_seq_ = -1;
  int64_t arrivals_ = 0;

  bool window_open_ = false;
  trace::Trip window_;
  bool finished_ = false;

  IngestStats stats_;
};

/// One car's online ingestion, fed trip by trip in canonical order:
/// each trip becomes its canonical records (ForEachTripRecord), seqs
/// continuing across calls, which pass through the car's ArrivalShuffle
/// (seed MixSeed(options.arrival_shuffle_seed, car_id, 0), window
/// options.arrival_shuffle_window) into the car's IngestSession. The
/// arrivals are exactly ArrivalOrder over the car's whole stream, while
/// at most arrival_shuffle_window + 1 records are held. Not
/// thread-safe, like the session it drives.
class CarIngest {
 public:
  /// `sink` receives the session's windows, as IngestSession's does.
  CarIngest(int car_id, const IngestOptions& options, trace::TripSink* sink);

  // The shuffle's release callback points at this object.
  CarIngest(const CarIngest&) = delete;
  CarIngest& operator=(const CarIngest&) = delete;

  /// Ingests the car's next trip in canonical order.
  Status AddTrip(const trace::Trip& trip);

  /// End of the car's stream: releases what the shuffle still holds and
  /// finishes the session. AddTrip must not be called afterwards.
  Status FinishStream();

  [[nodiscard]] const IngestStats& stats() const { return session_.stats(); }

 private:
  const int car_id_;
  IngestSession session_;
  ArrivalShuffle<StreamRecord> shuffle_;
  int64_t next_seq_ = 0;
};

/// Appends the `points.ingested` and `windows.closed` funnel rows to
/// `funnel` (every offered record is released or a counted late drop)
/// and publishes `stats` as `stream.*` counters in `metrics`.
void PublishIngestMetrics(const IngestStats& stats, obs::FunnelLedger* funnel,
                          obs::MetricsRegistry* metrics);

}  // namespace stream
}  // namespace taxitrace

#endif  // TAXITRACE_STREAM_INGEST_SESSION_H_
