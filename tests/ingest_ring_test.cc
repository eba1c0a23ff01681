// Differential tests of IngestSession's ring buffer against a reference
// session built on a std::map keyed by seq (the straightforward form of
// the same release rules). Both sessions ingest generated streams with
// displacement inside and beyond lag / 2, duplicates, late arrivals,
// missing records, lost markers and seq jumps of more than 2 x lag, at
// several lags. After every arrival the buffer size, release point and
// stream head must agree; at the end the released windows must agree
// bit for bit and every IngestStats field must be equal.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "taxitrace/common/random.h"
#include "taxitrace/common/status.h"
#include "taxitrace/common/strings.h"
#include "taxitrace/stream/ingest_session.h"
#include "taxitrace/stream/stream_source.h"
#include "taxitrace/trace/trip_sink.h"

namespace taxitrace {
namespace {

using stream::IngestOptions;
using stream::IngestStats;
using stream::StreamRecord;

class CollectSink final : public trace::TripSink {
 public:
  Status Consume(trace::Trip trip) override {
    trips.push_back(std::move(trip));
    return Status::OK();
  }
  std::vector<trace::Trip> trips;
};

// The reference: buffered records in a std::map, released by one drain
// loop that interleaves contiguous release and watermark close.
class MapSession {
 public:
  MapSession(int car_id, const IngestOptions& options, trace::TripSink* sink)
      : car_id_(car_id), options_(options), sink_(sink) {
    stats_.latency_hist.assign(static_cast<size_t>(options_.reorder_lag) + 2,
                               0);
  }

  Status Ingest(const StreamRecord& record) {
    if (record.car_id != car_id_) return Status::InvalidArgument("car");
    ++arrivals_;
    const bool is_point = record.kind == StreamRecord::Kind::kPoint;
    if (is_point) {
      ++stats_.points_offered;
    } else {
      ++stats_.trip_markers_offered;
    }
    if (record.seq < next_expected_ ||
        buffer_.find(record.seq) != buffer_.end()) {
      if (is_point) {
        ++stats_.points_dropped_late;
      } else {
        ++stats_.trip_markers_dropped_late;
      }
      return Status::OK();
    }
    buffer_.emplace(record.seq, Buffered{record, arrivals_});
    max_seq_ = std::max(max_seq_, record.seq);
    return DrainReady();
  }

  Status FinishStream() {
    while (!buffer_.empty()) {
      if (buffer_.begin()->first != next_expected_) {
        ++stats_.slots_declared_lost;
        ++next_expected_;
        continue;
      }
      const Buffered ready = buffer_.begin()->second;
      buffer_.erase(buffer_.begin());
      ++next_expected_;
      TAXITRACE_RETURN_IF_ERROR(Release(ready));
    }
    return CloseWindow();
  }

  [[nodiscard]] const IngestStats& stats() const { return stats_; }
  [[nodiscard]] int64_t next_expected_seq() const { return next_expected_; }
  [[nodiscard]] int64_t max_seq_seen() const { return max_seq_; }
  [[nodiscard]] int64_t buffered_records() const {
    return static_cast<int64_t>(buffer_.size());
  }

 private:
  struct Buffered {
    StreamRecord record;
    int64_t arrived_at = 0;
  };

  Status DrainReady() {
    while (true) {
      if (!buffer_.empty() && buffer_.begin()->first == next_expected_) {
        const Buffered ready = buffer_.begin()->second;
        buffer_.erase(buffer_.begin());
        ++next_expected_;
        TAXITRACE_RETURN_IF_ERROR(Release(ready));
        continue;
      }
      if (max_seq_ - next_expected_ > options_.reorder_lag) {
        ++stats_.slots_declared_lost;
        ++next_expected_;
        continue;
      }
      break;
    }
    stats_.peak_buffered_records =
        std::max(stats_.peak_buffered_records,
                 static_cast<int64_t>(buffer_.size()));
    return Status::OK();
  }

  Status Release(const Buffered& buffered) {
    const int64_t latency = arrivals_ - buffered.arrived_at;
    const size_t last = stats_.latency_hist.size() - 1;
    ++stats_.latency_hist[std::min(static_cast<size_t>(latency), last)];
    const StreamRecord& rec = buffered.record;
    if (rec.kind == StreamRecord::Kind::kTripBegin) {
      ++stats_.trip_markers_released;
      TAXITRACE_RETURN_IF_ERROR(CloseWindow());
      window_open_ = true;
      ++stats_.windows_opened;
      window_ = trace::Trip{};
      window_.trip_id = rec.trip_id;
      window_.car_id = rec.car_id;
      window_.total_time_s = rec.total_time_s;
      window_.total_distance_m = rec.total_distance_m;
      window_.total_fuel_ml = rec.total_fuel_ml;
      return Status::OK();
    }
    ++stats_.points_released;
    if (!window_open_ || window_.trip_id != rec.trip_id) {
      TAXITRACE_RETURN_IF_ERROR(CloseWindow());
      window_open_ = true;
      ++stats_.windows_opened;
      ++stats_.windows_opened_implicit;
      window_ = trace::Trip{};
      window_.trip_id = rec.trip_id;
      window_.car_id = rec.car_id;
    }
    window_.points.push_back(rec.point);
    return Status::OK();
  }

  Status CloseWindow() {
    if (!window_open_) return Status::OK();
    window_open_ = false;
    ++stats_.windows_closed;
    return sink_->Consume(std::move(window_));
  }

  const int car_id_;
  const IngestOptions options_;
  trace::TripSink* const sink_;
  std::map<int64_t, Buffered> buffer_;
  int64_t next_expected_ = 0;
  int64_t max_seq_ = -1;
  int64_t arrivals_ = 0;
  bool window_open_ = false;
  trace::Trip window_;
  IngestStats stats_;
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SamePoint(const trace::RoutePoint& a, const trace::RoutePoint& b) {
  return a.point_id == b.point_id && a.trip_id == b.trip_id &&
         SameBits(a.timestamp_s, b.timestamp_s) &&
         SameBits(a.position.lat_deg, b.position.lat_deg) &&
         SameBits(a.position.lon_deg, b.position.lon_deg) &&
         SameBits(a.speed_kmh, b.speed_kmh) &&
         SameBits(a.fuel_delta_ml, b.fuel_delta_ml);
}

void ExpectSameWindows(const std::vector<trace::Trip>& want,
                       const std::vector<trace::Trip>& got,
                       const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (size_t w = 0; w < want.size(); ++w) {
    const trace::Trip& a = want[w];
    const trace::Trip& b = got[w];
    ASSERT_EQ(a.trip_id, b.trip_id) << label << " window " << w;
    ASSERT_EQ(a.car_id, b.car_id) << label << " window " << w;
    ASSERT_TRUE(SameBits(a.total_time_s, b.total_time_s) &&
                SameBits(a.total_distance_m, b.total_distance_m) &&
                SameBits(a.total_fuel_ml, b.total_fuel_ml))
        << label << " window " << w;
    ASSERT_EQ(a.points.size(), b.points.size()) << label << " window " << w;
    for (size_t i = 0; i < a.points.size(); ++i) {
      ASSERT_TRUE(SamePoint(a.points[i], b.points[i]))
          << label << " window " << w << " point " << i;
    }
  }
}

void ExpectSameStats(const IngestStats& a, const IngestStats& b,
                     const std::string& label) {
  EXPECT_EQ(a.points_offered, b.points_offered) << label;
  EXPECT_EQ(a.trip_markers_offered, b.trip_markers_offered) << label;
  EXPECT_EQ(a.points_released, b.points_released) << label;
  EXPECT_EQ(a.trip_markers_released, b.trip_markers_released) << label;
  EXPECT_EQ(a.points_dropped_late, b.points_dropped_late) << label;
  EXPECT_EQ(a.trip_markers_dropped_late, b.trip_markers_dropped_late)
      << label;
  EXPECT_EQ(a.slots_declared_lost, b.slots_declared_lost) << label;
  EXPECT_EQ(a.windows_opened, b.windows_opened) << label;
  EXPECT_EQ(a.windows_opened_implicit, b.windows_opened_implicit) << label;
  EXPECT_EQ(a.windows_closed, b.windows_closed) << label;
  EXPECT_EQ(a.peak_buffered_records, b.peak_buffered_records) << label;
  EXPECT_EQ(a.latency_hist, b.latency_hist) << label;
}

// How a generated stream departs from its canonical order.
enum class Perturbation {
  kInBound,      // Shuffle within lag / 2: lossless.
  kBeyondBound,  // Shuffle up to 3 x lag + 3: losses and late drops.
  kDuplicates,   // Copies of records re-sent up to 2 x lag + 2 later.
  kLate,         // Records held back by more than the lag.
  kMissing,      // Records that never arrive.
  kLostMarkers,  // Trip markers that never arrive.
  kSeqJumps,     // Seq numbering skips more than 2 x lag slots.
  kAll,          // Everything above on one stream.
};

constexpr Perturbation kPerturbations[] = {
    Perturbation::kInBound,     Perturbation::kBeyondBound,
    Perturbation::kDuplicates,  Perturbation::kLate,
    Perturbation::kMissing,     Perturbation::kLostMarkers,
    Perturbation::kSeqJumps,    Perturbation::kAll,
};

bool Has(Perturbation p, Perturbation what) {
  return p == what || p == Perturbation::kAll;
}

std::vector<StreamRecord> GenerateStream(Perturbation p, int64_t lag,
                                         uint64_t seed) {
  Rng rng(seed);
  std::vector<StreamRecord> canonical;
  int64_t seq = 0;
  const int trips = static_cast<int>(rng.UniformInt(3, 12));
  for (int t = 0; t < trips; ++t) {
    const int64_t trip_id = 1000 + t;
    StreamRecord marker;
    marker.kind = StreamRecord::Kind::kTripBegin;
    marker.car_id = 1;
    marker.trip_id = trip_id;
    marker.total_time_s = rng.Uniform(0.0, 3600.0);
    marker.total_distance_m = rng.Uniform(0.0, 1e4);
    marker.total_fuel_ml = rng.Uniform(0.0, 500.0);
    const int points = static_cast<int>(rng.UniformInt(0, 25));
    for (int i = -1; i < points; ++i) {
      if (Has(p, Perturbation::kSeqJumps) && rng.Bernoulli(0.04)) {
        seq += 2 * lag + 1 + rng.UniformInt(0, lag + 1);
      }
      StreamRecord rec = marker;
      if (i >= 0) {
        rec = StreamRecord{};
        rec.kind = StreamRecord::Kind::kPoint;
        rec.car_id = 1;
        rec.trip_id = trip_id;
        rec.point.point_id = i;
        rec.point.trip_id = trip_id;
        rec.point.timestamp_s = 10.0 * i + rng.Uniform(0.0, 1.0);
        rec.point.position = geo::LatLon{rng.Uniform(39.8, 40.0),
                                         rng.Uniform(116.3, 116.5)};
        rec.point.speed_kmh = rng.Uniform(0.0, 80.0);
        rec.point.fuel_delta_ml = rng.Uniform(0.0, 2.0);
      }
      rec.seq = seq++;
      canonical.push_back(rec);
    }
  }

  std::vector<StreamRecord> arrivals;
  for (const StreamRecord& rec : canonical) {
    if (Has(p, Perturbation::kMissing) && rng.Bernoulli(0.05)) continue;
    if (Has(p, Perturbation::kLostMarkers) &&
        rec.kind == StreamRecord::Kind::kTripBegin && rng.Bernoulli(0.5)) {
      continue;
    }
    arrivals.push_back(rec);
  }
  int64_t displacement = lag / 2;
  if (Has(p, Perturbation::kBeyondBound)) {
    displacement = rng.UniformInt(lag + 1, 3 * lag + 3);
  }
  stream::ShuffleArrivals(&arrivals, rng.NextUint64(), displacement);

  if (Has(p, Perturbation::kLate)) {
    for (size_t i = 0; i < arrivals.size(); ++i) {
      if (!rng.Bernoulli(0.05)) continue;
      const size_t to = std::min(
          arrivals.size() - 1,
          i + static_cast<size_t>(lag + 1 + rng.UniformInt(0, 2 * lag)));
      std::rotate(arrivals.begin() + static_cast<std::ptrdiff_t>(i),
                  arrivals.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                  arrivals.begin() + static_cast<std::ptrdiff_t>(to) + 1);
    }
  }
  if (Has(p, Perturbation::kDuplicates)) {
    std::vector<StreamRecord> with_copies;
    std::vector<std::pair<size_t, StreamRecord>> pending;
    for (size_t i = 0; i < arrivals.size(); ++i) {
      with_copies.push_back(arrivals[i]);
      if (rng.Bernoulli(0.1)) {
        pending.emplace_back(
            i + static_cast<size_t>(rng.UniformInt(0, 2 * lag + 2)),
            arrivals[i]);
      }
      for (auto it = pending.begin(); it != pending.end();) {
        if (it->first <= i) {
          with_copies.push_back(it->second);
          it = pending.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (const auto& [at, rec] : pending) with_copies.push_back(rec);
    arrivals = std::move(with_copies);
  }
  return arrivals;
}

void RunDifferential(Perturbation p, int64_t lag, uint64_t seed) {
  const std::string label =
      StrFormat("perturbation %d lag %lld seed %llu", static_cast<int>(p),
                static_cast<long long>(lag),
                static_cast<unsigned long long>(seed));
  const std::vector<StreamRecord> arrivals = GenerateStream(p, lag, seed);
  IngestOptions options;
  options.reorder_lag = lag;
  CollectSink want_sink;
  CollectSink got_sink;
  MapSession want(1, options, &want_sink);
  stream::IngestSession got(1, options, &got_sink);
  for (size_t k = 0; k < arrivals.size(); ++k) {
    ASSERT_TRUE(want.Ingest(arrivals[k]).ok()) << label;
    ASSERT_TRUE(got.Ingest(arrivals[k]).ok()) << label;
    ASSERT_EQ(want.buffered_records(), got.buffered_records())
        << label << " arrival " << k;
    ASSERT_EQ(want.next_expected_seq(), got.next_expected_seq())
        << label << " arrival " << k;
    ASSERT_EQ(want.max_seq_seen(), got.max_seq_seen())
        << label << " arrival " << k;
  }
  ASSERT_TRUE(want.FinishStream().ok()) << label;
  ASSERT_TRUE(got.FinishStream().ok()) << label;
  ExpectSameWindows(want_sink.trips, got_sink.trips, label);
  ExpectSameStats(want.stats(), got.stats(), label);
}

TEST(IngestSessionTest, RingMatchesMapSessionOnGeneratedStreams) {
  for (const int64_t lag : {0, 1, 2, 7, 64}) {
    for (const Perturbation p : kPerturbations) {
      for (uint64_t seed = 0; seed < 25; ++seed) {
        RunDifferential(p, lag,
                        MixSeed(0x51A6ULL, static_cast<uint64_t>(lag),
                                seed * 16 + static_cast<uint64_t>(p)));
        if (HasFatalFailure()) return;
      }
    }
  }
}

// The ring grows to the span actually buffered, so a lag far beyond
// the stream's length allocates nothing of the lag's size.
TEST(IngestSessionTest, HugeLagOnShortStreamBuffersOnlyItsSpan) {
  std::vector<StreamRecord> records;
  for (int64_t seq = 0; seq < 10; ++seq) {
    StreamRecord rec;
    rec.seq = seq;
    rec.car_id = 1;
    rec.trip_id = 5;
    if (seq == 0) {
      rec.kind = StreamRecord::Kind::kTripBegin;
    } else {
      rec.point.point_id = seq;
      rec.point.trip_id = 5;
    }
    records.push_back(rec);
  }
  std::reverse(records.begin(), records.end());
  IngestOptions options;
  options.reorder_lag = int64_t{1} << 40;
  CollectSink sink;
  stream::IngestSession session(1, options, &sink);
  for (const StreamRecord& rec : records) {
    ASSERT_TRUE(session.Ingest(rec).ok());
  }
  EXPECT_EQ(session.buffered_records(), 0);
  EXPECT_EQ(session.next_expected_seq(), 10);
  ASSERT_TRUE(session.FinishStream().ok());
  const IngestStats& s = session.stats();
  EXPECT_EQ(s.peak_buffered_records, 9);
  EXPECT_EQ(s.points_released, 9);
  EXPECT_EQ(s.slots_declared_lost, 0);
  EXPECT_EQ(stream::IngestLatencyMax(s), 9);
  ASSERT_EQ(sink.trips.size(), 1u);
  EXPECT_EQ(sink.trips[0].points.size(), 9u);
}

// A seq far ahead of the stream (a corrupt or wrapped counter) closes
// the empty slots below its watermark as one run, not one at a time.
TEST(IngestSessionTest, FarJumpDeclaresTheSkippedSlotsLostAtOnce) {
  IngestOptions options;
  options.reorder_lag = 4;
  CollectSink sink;
  stream::IngestSession session(1, options, &sink);
  StreamRecord rec;
  rec.car_id = 1;
  rec.trip_id = 8;
  for (const int64_t seq : {int64_t{0}, int64_t{2}, int64_t{1} << 50}) {
    rec.seq = seq;
    ASSERT_TRUE(session.Ingest(rec).ok());
  }
  ASSERT_TRUE(session.FinishStream().ok());
  const IngestStats& s = session.stats();
  EXPECT_EQ(s.points_released, 3);
  // Every slot in [0, 2^50] but the three that arrived.
  EXPECT_EQ(s.slots_declared_lost, (int64_t{1} << 50) + 1 - 3);
  EXPECT_EQ(s.points_offered, s.points_released + s.points_dropped_late);
}

}  // namespace
}  // namespace taxitrace
