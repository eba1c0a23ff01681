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
// Two primitives carry the hot path without copying records: CarRecords
// names each canonical record by an 8-byte reference into the store and
// materialises one StreamRecord on demand, and ArrivalOrder is the
// shuffle as a permutation of seqs. BuildCarStream and ShuffleArrivals
// are the materialising wrappers over them.

#ifndef TAXITRACE_STREAM_STREAM_SOURCE_H_
#define TAXITRACE_STREAM_STREAM_SOURCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

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

/// One car's canonical stream as references into a store: record `seq`
/// is (trip index, point index), the point index being kMarker for the
/// trip's kTripBegin. The store must outlive the CarRecords and stay
/// unmodified.
class CarRecords {
 public:
  CarRecords(const trace::TraceStore& store, int car_id);

  [[nodiscard]] int car_id() const { return car_id_; }
  [[nodiscard]] size_t size() const { return refs_.size(); }

  /// The canonical record with this seq, 0 <= seq < size().
  [[nodiscard]] StreamRecord At(int64_t seq) const;

 private:
  static constexpr int32_t kMarker = -1;
  struct Ref {
    uint32_t trip = 0;  ///< Index into store.trips().
    int32_t point = kMarker;
  };

  const std::vector<trace::Trip>* trips_;
  int car_id_;
  std::vector<Ref> refs_;
};

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

}  // namespace stream
}  // namespace taxitrace

#endif  // TAXITRACE_STREAM_STREAM_SOURCE_H_
