#include "taxitrace/stream/stream_source.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "taxitrace/common/check.h"
#include "taxitrace/common/random.h"

namespace taxitrace {
namespace stream {

CarRecords::CarRecords(const trace::TraceStore& store, int car_id)
    : trips_(&store.trips()), car_id_(car_id) {
  size_t count = 0;
  for (const trace::Trip& trip : *trips_) {
    if (trip.car_id == car_id) count += 1 + trip.points.size();
  }
  refs_.reserve(count);
  for (size_t t = 0; t < trips_->size(); ++t) {
    const trace::Trip& trip = (*trips_)[t];
    if (trip.car_id != car_id) continue;
    TT_CHECK(t <= std::numeric_limits<uint32_t>::max());
    TT_CHECK(trip.points.size() <=
             static_cast<size_t>(std::numeric_limits<int32_t>::max()));
    const auto trip_index = static_cast<uint32_t>(t);
    refs_.push_back(Ref{trip_index, kMarker});
    for (size_t p = 0; p < trip.points.size(); ++p) {
      refs_.push_back(Ref{trip_index, static_cast<int32_t>(p)});
    }
  }
}

StreamRecord CarRecords::At(int64_t seq) const {
  TT_DCHECK(seq >= 0 && static_cast<size_t>(seq) < refs_.size());
  const Ref ref = refs_[static_cast<size_t>(seq)];
  const trace::Trip& trip = (*trips_)[ref.trip];
  StreamRecord rec;
  rec.seq = seq;
  rec.car_id = car_id_;
  rec.trip_id = trip.trip_id;
  if (ref.point == kMarker) {
    rec.kind = StreamRecord::Kind::kTripBegin;
    rec.total_time_s = trip.total_time_s;
    rec.total_distance_m = trip.total_distance_m;
    rec.total_fuel_ml = trip.total_fuel_ml;
  } else {
    rec.kind = StreamRecord::Kind::kPoint;
    rec.point = trip.points[static_cast<size_t>(ref.point)];
  }
  return rec;
}

CarStream BuildCarStream(const trace::TraceStore& store, int car_id) {
  const CarRecords records(store, car_id);
  CarStream out;
  out.car_id = car_id;
  out.records.reserve(records.size());
  for (size_t seq = 0; seq < records.size(); ++seq) {
    out.records.push_back(records.At(static_cast<int64_t>(seq)));
  }
  return out;
}

std::vector<CarStream> BuildCarStreams(const trace::TraceStore& store) {
  std::vector<CarStream> out;
  for (const int car_id : store.CarIds()) {
    out.push_back(BuildCarStream(store, car_id));
  }
  return out;
}

std::vector<uint32_t> ArrivalOrder(size_t n, uint64_t seed,
                                   int64_t max_displacement) {
  TT_CHECK(n <= std::numeric_limits<uint32_t>::max());
  std::vector<uint32_t> order(n);
  if (max_displacement <= 0 || n < 2) {
    std::iota(order.begin(), order.end(), 0U);
    return order;
  }
  Rng rng(seed);
  // Keys are computed unsigned: i + draw stays below 2^32 + 2^63, so
  // no displacement overflows.
  const auto d = static_cast<uint64_t>(max_displacement);
  if (d <= n) {
    // Counting sort over the keys [0, n + d): a bucket per key, filled in
    // position order, which is the stable order in O(n + d).
    std::vector<uint32_t> draw(n);
    std::vector<uint32_t> start(n + d + 1, 0);
    for (size_t i = 0; i < n; ++i) {
      draw[i] = static_cast<uint32_t>(rng.UniformInt(0, max_displacement));
      ++start[i + draw[i] + 1];
    }
    std::partial_sum(start.begin(), start.end(), start.begin());
    for (size_t i = 0; i < n; ++i) {
      order[start[i + draw[i]]++] = static_cast<uint32_t>(i);
    }
    return order;
  }
  // Wider draws than the stream: sort (key, position) pairs, which are
  // distinct, so the sort is the stable order by key.
  std::vector<std::pair<uint64_t, uint32_t>> keyed(n);
  for (size_t i = 0; i < n; ++i) {
    keyed[i] = {i + static_cast<uint64_t>(rng.UniformInt(0, max_displacement)),
                static_cast<uint32_t>(i)};
  }
  std::sort(keyed.begin(), keyed.end());
  for (size_t k = 0; k < n; ++k) order[k] = keyed[k].second;
  return order;
}

void ShuffleArrivals(std::vector<StreamRecord>* records, uint64_t seed,
                     int64_t max_displacement) {
  if (max_displacement <= 0 || records->size() < 2) return;
  const std::vector<uint32_t> order =
      ArrivalOrder(records->size(), seed, max_displacement);
  std::vector<StreamRecord> shuffled;
  shuffled.reserve(records->size());
  for (const uint32_t index : order) {
    shuffled.push_back(std::move((*records)[index]));
  }
  *records = std::move(shuffled);
}

}  // namespace stream
}  // namespace taxitrace
