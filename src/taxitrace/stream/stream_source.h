// The arrival-ordered record stream feeding online ingestion. A
// production deployment receives one record stream per car (begin-trip
// markers and GPS fixes, roughly in upload order); this module gives
// the same shape to an in-memory TraceStore so the batch and online
// paths can be run on *identical* input and proven equivalent.
//
// Every record carries a per-car arrival sequence number `seq`. The
// canonical stream enumerates a car's trips in store order (marker,
// then points in trip order) with seq 0, 1, 2, ...; ShuffleArrivals
// then perturbs the *arrival* order by a bounded displacement while
// the seq values keep naming the canonical slots — exactly the
// transport-reordering model a bounded-lag ingester must undo.
//
// The hot path never holds a car's whole stream: ArrivalShuffle is the
// shuffle computed online, one canonical record in, every record whose
// arrival slot is final out, holding at most max_displacement + 1
// records, so a car's trips can be ingested as they are simulated.
// ArrivalOrder is the same shuffle as a permutation of a whole stream's
// seqs; it, BuildCarStream and ShuffleArrivals materialise the stream
// and serve as the reference for tests and benches.

#ifndef TAXITRACE_STREAM_STREAM_SOURCE_H_
#define TAXITRACE_STREAM_STREAM_SOURCE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "taxitrace/common/random.h"
#include "taxitrace/common/status.h"
#include "taxitrace/trace/route_point.h"
#include "taxitrace/trace/trace_store.h"

namespace taxitrace {
namespace stream {

/// One record of a per-car arrival stream.
struct StreamRecord {
  enum class Kind {
    kTripBegin,  ///< Device signalled engine-on: a new upload session.
    kPoint,      ///< One GPS fix inside the current session.
  };

  Kind kind = Kind::kPoint;
  /// Canonical per-car arrival slot. Contiguous from 0 in the canonical
  /// stream; reordering changes arrival positions, never seq values.
  int64_t seq = 0;
  int car_id = 0;
  /// The upload session (container trip) this record belongs to. For
  /// points this is the *containing* trip's id, which under interleave
  /// faults differs from point.trip_id — the ingester groups by the
  /// container, like the batch store does, and leaves foreign-id points
  /// for the cleaning sanitiser.
  int64_t trip_id = 0;

  /// Valid when kind == kPoint.
  trace::RoutePoint point;

  /// Device-reported trip totals, valid when kind == kTripBegin.
  double total_time_s = 0.0;
  double total_distance_m = 0.0;
  double total_fuel_ml = 0.0;
};

/// One car's arrival stream.
struct CarStream {
  int car_id = 0;
  std::vector<StreamRecord> records;  ///< In arrival order.
};

/// Hands `emit` the canonical records of one trip of car `car_id`: a
/// kTripBegin marker carrying the device totals, then each point, seqs
/// taken from `*next_seq` on (left one past the last). Stops at, and
/// returns, the first error `emit` returns.
Status ForEachTripRecord(
    const trace::Trip& trip, int car_id, int64_t* next_seq,
    const std::function<Status(StreamRecord record)>& emit);

/// Builds the canonical arrival stream of one car from a store: its
/// trips in store insertion order, each as a kTripBegin marker followed
/// by its points, with seq numbering the records 0..n-1.
CarStream BuildCarStream(const trace::TraceStore& store, int car_id);

/// Canonical streams for every car in the store, ascending car id.
std::vector<CarStream> BuildCarStreams(const trace::TraceStore& store);

/// The arrival order of `n` canonical records: element k is the seq
/// (canonical position) of the k-th arrival. No record lands more than
/// `max_displacement` positions away from its canonical slot: each
/// position's key is the position plus a uniform draw in
/// [0, max_displacement], and records arrive in key order, ties in
/// position order (keys within `max_displacement` of their positions
/// bound the displacement of that stable order by `max_displacement`).
/// `max_displacement <= 0` gives the identity. Equal seeds produce equal
/// orders at any thread count — callers derive the seed per car via
/// MixSeed. Requires n < 2^32.
std::vector<uint32_t> ArrivalOrder(size_t n, uint64_t seed,
                                   int64_t max_displacement);

/// Reorders `records` into ArrivalOrder(records->size(), seed,
/// max_displacement), moving each record once.
void ShuffleArrivals(std::vector<StreamRecord>* records, uint64_t seed,
                     int64_t max_displacement);

/// ArrivalOrder computed online. Record i (the i-th Push) gets the key
/// i + d'_i, the d'_i drawn in push order from Rng(seed) exactly as
/// ArrivalOrder draws them. Every later record's key exceeds its own
/// index, so once record k is pushed every key <= k is final: Push
/// releases those, smallest (key, seq) first, and Flush releases the
/// rest at the end of the stream. The released order is therefore
/// ArrivalOrder(n, seed, max_displacement) for any n, the d > n case
/// included. Between pushes at most max_displacement records are held
/// (their seqs lie within max_displacement of the last one pushed),
/// max_displacement + 1 counting the record just pushed.
template <typename T>
class ArrivalShuffle {
 public:
  /// Receives each released record once, in arrival order; a non-OK
  /// status is returned by the Push or Flush that released it.
  using Emit = std::function<Status(const T& record)>;

  ArrivalShuffle(uint64_t seed, int64_t max_displacement, Emit emit)
      : rng_(seed),
        max_displacement_(max_displacement),
        emit_(std::move(emit)) {}

  /// Accepts the next canonical record and releases every record whose
  /// arrival slot is now final. `max_displacement <= 0` releases each
  /// record as it is pushed.
  Status Push(T record) {
    const uint64_t seq = pushed_++;
    if (max_displacement_ <= 0) return emit_(record);
    const uint64_t key =
        seq + static_cast<uint64_t>(rng_.UniformInt(0, max_displacement_));
    Reserve(seq);
    ring_[seq & (ring_.size() - 1)] = std::move(record);
    heap_.push_back(Held{key, seq});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    peak_held_ = std::max(peak_held_, heap_.size());
    return ReleaseUpTo(seq);
  }

  /// End of stream: releases everything still held.
  Status Flush() { return ReleaseUpTo(UINT64_MAX); }

  /// Most records ever held at once, the record just pushed included.
  [[nodiscard]] size_t peak_held() const { return peak_held_; }

 private:
  struct Held {
    uint64_t key = 0;
    uint64_t seq = 0;
    friend bool operator>(const Held& a, const Held& b) {
      return a.key != b.key ? a.key > b.key : a.seq > b.seq;
    }
  };

  // Grows the ring so that every held seq, all within
  // [seq - max_displacement, seq], has its own slot.
  void Reserve(uint64_t seq) {
    const uint64_t span =
        std::min(static_cast<uint64_t>(max_displacement_), seq) + 1;
    if (span <= ring_.size()) return;
    std::vector<T> grown(std::bit_ceil(span));
    for (const Held& h : heap_) {
      grown[h.seq & (grown.size() - 1)] =
          std::move(ring_[h.seq & (ring_.size() - 1)]);
    }
    ring_ = std::move(grown);
  }

  Status ReleaseUpTo(uint64_t final_key) {
    while (!heap_.empty() && heap_.front().key <= final_key) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      const uint64_t seq = heap_.back().seq;
      heap_.pop_back();
      TAXITRACE_RETURN_IF_ERROR(emit_(ring_[seq & (ring_.size() - 1)]));
    }
    return Status::OK();
  }

  Rng rng_;
  int64_t max_displacement_;
  Emit emit_;
  uint64_t pushed_ = 0;
  std::vector<Held> heap_;  ///< Min-heap on (key, seq).
  std::vector<T> ring_;     ///< Held records by seq; a power-of-two size.
  size_t peak_held_ = 0;
};

}  // namespace stream
}  // namespace taxitrace

#endif  // TAXITRACE_STREAM_STREAM_SOURCE_H_
