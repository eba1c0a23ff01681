// The arrival-stream primitives against straightforward references:
// ArrivalOrder and the ShuffleArrivals wrapper against a stable sort of
// (position + draw) keys over copied records, BuildCarStream against a
// direct walk of the store, and the windowed ArrivalShuffle against
// ArrivalOrder.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "taxitrace/common/random.h"
#include "taxitrace/common/status.h"
#include "taxitrace/stream/stream_source.h"
#include "taxitrace/trace/trace_store.h"

namespace taxitrace {
namespace {

using stream::StreamRecord;

// The reference shuffle: stable sort by key, then a full copy.
void ReferenceShuffle(std::vector<StreamRecord>* records, uint64_t seed,
                      int64_t max_displacement) {
  if (max_displacement <= 0 || records->size() < 2) return;
  Rng rng(seed);
  std::vector<std::pair<int64_t, size_t>> keyed(records->size());
  for (size_t i = 0; i < records->size(); ++i) {
    keyed[i] = {static_cast<int64_t>(i) + rng.UniformInt(0, max_displacement),
                i};
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<StreamRecord> shuffled;
  for (const auto& [key, index] : keyed) shuffled.push_back((*records)[index]);
  *records = std::move(shuffled);
}

std::vector<StreamRecord> NumberedRecords(size_t n) {
  std::vector<StreamRecord> records(n);
  for (size_t i = 0; i < n; ++i) {
    records[i].seq = static_cast<int64_t>(i);
    records[i].trip_id = static_cast<int64_t>(i / 7);
    records[i].point.point_id = static_cast<int64_t>(i);
  }
  return records;
}

std::vector<int64_t> Seqs(const std::vector<StreamRecord>& records) {
  std::vector<int64_t> seqs;
  for (const StreamRecord& r : records) seqs.push_back(r.seq);
  return seqs;
}

TEST(ArrivalOrderTest, MatchesStableSortShuffle) {
  for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{1000}}) {
    const auto ni = static_cast<int64_t>(n);
    for (const int64_t d : {int64_t{0}, int64_t{1}, int64_t{32}, ni, 3 * ni}) {
      for (uint64_t seed = 1; seed <= 5; ++seed) {
        std::vector<StreamRecord> want = NumberedRecords(n);
        ReferenceShuffle(&want, seed, d);

        const std::vector<uint32_t> order = stream::ArrivalOrder(n, seed, d);
        ASSERT_EQ(order.size(), n);
        std::vector<int64_t> order_seqs(order.begin(), order.end());
        EXPECT_EQ(order_seqs, Seqs(want))
            << "n " << n << " d " << d << " seed " << seed;

        std::vector<StreamRecord> got = NumberedRecords(n);
        stream::ShuffleArrivals(&got, seed, d);
        ASSERT_EQ(got.size(), want.size());
        for (size_t k = 0; k < n; ++k) {
          EXPECT_EQ(got[k].seq, want[k].seq);
          EXPECT_EQ(got[k].trip_id, want[k].trip_id);
          EXPECT_EQ(got[k].point.point_id, want[k].point.point_id);
        }
      }
    }
  }
}

TEST(ArrivalOrderTest, DisplacementIsBounded) {
  const int64_t d = 16;
  const std::vector<uint32_t> order = stream::ArrivalOrder(5000, 99, d);
  for (size_t k = 0; k < order.size(); ++k) {
    EXPECT_LE(std::abs(static_cast<int64_t>(order[k]) -
                       static_cast<int64_t>(k)),
              d);
  }
}

// Keys are position + draw: with draws up to INT64_MAX the sum must not
// overflow, and the result must still be a permutation.
TEST(ArrivalOrderTest, MaxDisplacementAtInt64MaxIsAPermutation) {
  const int64_t d = std::numeric_limits<int64_t>::max();
  for (const size_t n : {size_t{2}, size_t{1000}}) {
    std::vector<uint32_t> order = stream::ArrivalOrder(n, 7, d);
    std::sort(order.begin(), order.end());
    for (size_t k = 0; k < n; ++k) ASSERT_EQ(order[k], k);

    std::vector<StreamRecord> records = NumberedRecords(n);
    stream::ShuffleArrivals(&records, 7, d);
    std::vector<int64_t> seqs = Seqs(records);
    std::sort(seqs.begin(), seqs.end());
    for (size_t k = 0; k < n; ++k) ASSERT_EQ(seqs[k], static_cast<int64_t>(k));
  }
}

trace::TraceStore TwoCarStore() {
  trace::TraceStore store;
  for (int t = 0; t < 6; ++t) {
    trace::Trip trip;
    trip.trip_id = 40 + t;
    trip.car_id = t % 3 == 0 ? 2 : 1;  // Cars interleave in the store.
    trip.total_time_s = 60.0 * t;
    trip.total_distance_m = 100.0 * t;
    trip.total_fuel_ml = 5.0 * t;
    for (int i = 0; i < t; ++i) {  // Trip 40 has no points.
      trace::RoutePoint p;
      p.point_id = i;
      p.trip_id = trip.trip_id;
      p.timestamp_s = 10.0 * i;
      p.position = geo::LatLon{39.9 + 1e-3 * i, 116.4 - 1e-3 * t};
      p.speed_kmh = 3.0 * i;
      p.fuel_delta_ml = 0.1 * i;
      trip.points.push_back(p);
    }
    EXPECT_TRUE(store.AddTrip(std::move(trip)).ok());
  }
  return store;
}

TEST(StreamSourceTest, CarRecordsWalkTheStoreInOrder) {
  const trace::TraceStore store = TwoCarStore();
  for (const int car : {1, 2, 3}) {
    std::vector<StreamRecord> want;
    for (const trace::Trip& trip : store.trips()) {
      if (trip.car_id != car) continue;
      StreamRecord begin;
      begin.kind = StreamRecord::Kind::kTripBegin;
      begin.seq = static_cast<int64_t>(want.size());
      begin.car_id = car;
      begin.trip_id = trip.trip_id;
      begin.total_time_s = trip.total_time_s;
      begin.total_distance_m = trip.total_distance_m;
      begin.total_fuel_ml = trip.total_fuel_ml;
      want.push_back(begin);
      for (const trace::RoutePoint& p : trip.points) {
        StreamRecord rec;
        rec.seq = static_cast<int64_t>(want.size());
        rec.car_id = car;
        rec.trip_id = trip.trip_id;
        rec.point = p;
        want.push_back(rec);
      }
    }

    const stream::CarStream built = stream::BuildCarStream(store, car);
    EXPECT_EQ(built.car_id, car);
    ASSERT_EQ(built.records.size(), want.size()) << "car " << car;
    for (size_t seq = 0; seq < want.size(); ++seq) {
      const StreamRecord& got = built.records[seq];
      const StreamRecord& w = want[seq];
      EXPECT_EQ(got.kind, w.kind);
      EXPECT_EQ(got.seq, w.seq);
      EXPECT_EQ(got.car_id, w.car_id);
      EXPECT_EQ(got.trip_id, w.trip_id);
      EXPECT_EQ(got.total_time_s, w.total_time_s);
      EXPECT_EQ(got.total_distance_m, w.total_distance_m);
      EXPECT_EQ(got.total_fuel_ml, w.total_fuel_ml);
      EXPECT_EQ(got.point.point_id, w.point.point_id);
      EXPECT_EQ(got.point.trip_id, w.point.trip_id);
      EXPECT_EQ(got.point.timestamp_s, w.point.timestamp_s);
      EXPECT_EQ(got.point.position, w.point.position);
      EXPECT_EQ(got.point.speed_kmh, w.point.speed_kmh);
      EXPECT_EQ(got.point.fuel_delta_ml, w.point.fuel_delta_ml);
    }
  }
}

// The windowed shuffle against the whole-stream permutation it
// replaces: the same arrivals for every stream length up to 2,000 and
// one long stream, at displacements up to and far beyond the stream
// length (ArrivalOrder's sort path), with no more than
// max_displacement + 1 records held at any time.
struct Windowed {
  std::vector<uint32_t> order;
  size_t peak_held = 0;
};

Windowed WindowedOrder(size_t n, uint64_t seed, int64_t max_displacement) {
  Windowed out;
  out.order.reserve(n);
  stream::ArrivalShuffle<uint32_t> shuffle(
      seed, max_displacement, [&out](const uint32_t& seq) {
        out.order.push_back(seq);
        return Status::OK();
      });
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(shuffle.Push(static_cast<uint32_t>(i)).ok());
  }
  EXPECT_TRUE(shuffle.Flush().ok());
  out.peak_held = shuffle.peak_held();
  return out;
}

TEST(ArrivalShuffleTest, MatchesArrivalOrder) {
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 2000; ++n) lengths.push_back(n);
  lengths.push_back(400000);
  for (const int64_t d :
       {int64_t{0}, int64_t{1}, int64_t{2}, int64_t{32}, int64_t{64},
        int64_t{1000}, int64_t{5000000},
        std::numeric_limits<int64_t>::max()}) {
    for (const uint64_t seed :
         {uint64_t{1}, uint64_t{0x5EEDA11C}, ~uint64_t{0}}) {
      for (const size_t n : lengths) {
        const Windowed got = WindowedOrder(n, seed, d);
        ASSERT_EQ(got.order, stream::ArrivalOrder(n, seed, d))
            << "n " << n << " d " << d << " seed " << seed;
        if (d == 32) {
          ASSERT_LE(got.peak_held, 33U) << "n " << n << " seed " << seed;
        }
      }
    }
  }
}

// Records move through the shuffle intact, and a release error stops
// the stream at the record that failed.
TEST(ArrivalShuffleTest, CarriesRecordsAndStopsAtAnEmitError) {
  std::vector<StreamRecord> got;
  stream::ArrivalShuffle<StreamRecord> shuffle(
      3, 8, [&got](const StreamRecord& rec) {
        if (got.size() == 50) return Status::Internal("sink full");
        got.push_back(rec);
        return Status::OK();
      });
  const std::vector<StreamRecord> records = NumberedRecords(100);
  Status status = Status::OK();
  for (const StreamRecord& rec : records) {
    status = shuffle.Push(rec);
    if (!status.ok()) break;
  }
  EXPECT_EQ(status.code(), StatusCode::kInternal) << status.ToString();
  ASSERT_EQ(got.size(), 50U);
  const std::vector<uint32_t> order = stream::ArrivalOrder(100, 3, 8);
  for (size_t k = 0; k < got.size(); ++k) {
    const StreamRecord& want = records[order[k]];
    EXPECT_EQ(got[k].seq, want.seq);
    EXPECT_EQ(got[k].trip_id, want.trip_id);
    EXPECT_EQ(got[k].point.point_id, want.point.point_id);
  }
}

}  // namespace
}  // namespace taxitrace
