// The serve layer: snapshot format round-trip and validation, query
// semantics against brute-force ground truth, the query funnel, the
// replay's exact latency quantiles, and the replay harness's
// determinism contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "taxitrace/common/check.h"
#include "taxitrace/common/executor.h"
#include "taxitrace/common/random.h"
#include "taxitrace/core/pipeline.h"
#include "taxitrace/obs/funnel.h"
#include "taxitrace/obs/metrics.h"
#include "taxitrace/serve/query_engine.h"
#include "taxitrace/serve/replay.h"
#include "taxitrace/serve/snapshot.h"

namespace taxitrace {
namespace serve {
namespace {

const core::StudyResults& SmallStudy() {
  static const core::StudyResults* results = [] {
    core::StudyConfig config = core::StudyConfig::SmallStudy();
    config.num_threads = 0;
    core::Pipeline pipeline(config);
    auto run = pipeline.Run();
    TT_CHECK_OK(run.status());
    return new core::StudyResults(std::move(run).value());
  }();
  return *results;
}

const std::string& SmallSnapshotBytes() {
  static const std::string* bytes = [] {
    auto built = SnapshotBuilder().Build(SmallStudy(), &Executor::Serial());
    TT_CHECK_OK(built.status());
    return new std::string(std::move(built).value());
  }();
  return *bytes;
}

const Snapshot& SmallSnapshot() {
  static const Snapshot* snapshot = [] {
    auto loaded = Snapshot::FromBytes(SmallSnapshotBytes());
    TT_CHECK_OK(loaded.status());
    return new Snapshot(std::move(loaded).value());
  }();
  return *snapshot;
}

TEST(SnapshotTest, RoundTripPreservesStructure) {
  const Snapshot& snap = SmallSnapshot();
  const SnapshotMeta& meta = snap.meta();
  EXPECT_EQ(meta.cell_size_m, 200.0);
  EXPECT_GT(meta.num_cells, 0);
  EXPECT_EQ(meta.num_slices, 12);
  EXPECT_GT(meta.total_points, 0);
  EXPECT_LE(meta.min_cx, meta.max_cx);
  EXPECT_LE(meta.min_cy, meta.max_cy);

  // The index is strictly sorted by (cx, cy) and FindCell inverts it.
  for (int64_t i = 0; i < snap.num_cells(); ++i) {
    const analysis::CellId c = snap.cell(i);
    if (i > 0) {
      const analysis::CellId prev = snap.cell(i - 1);
      EXPECT_TRUE(prev.cx < c.cx || (prev.cx == c.cx && prev.cy < c.cy));
    }
    EXPECT_GE(c.cx, meta.min_cx);
    EXPECT_LE(c.cx, meta.max_cx);
    EXPECT_EQ(snap.FindCell(c), i);
  }
  EXPECT_EQ(snap.FindCell(analysis::CellId{meta.max_cx + 5, 0}), -1);

  // Slice 0 is the all slice; the directory names every slice.
  EXPECT_EQ(snap.slice(0).kind, static_cast<uint32_t>(SliceKind::kAll));
  EXPECT_STREQ(snap.slice(0).label, "all");
  EXPECT_EQ(snap.FindSlice(SliceKind::kAll, 0), 0);
  EXPECT_EQ(snap.FindSlice(SliceKind::kDayType, 1),
            snap.FindSlice(SliceKind::kDayType, 1));
  EXPECT_EQ(snap.FindSlice(SliceKind::kCrowd, 99), -1);

  // The all slice's point counts sum to the meta total.
  int64_t total = 0;
  for (int64_t i = 0; i < snap.num_cells(); ++i) total += snap.moments(0, i).n;
  EXPECT_EQ(total, meta.total_points);
}

TEST(SnapshotTest, AllSliceAgreesWithStudyCellRecords) {
  const Snapshot& snap = SmallSnapshot();
  const core::StudyResults& results = SmallStudy();
  ASSERT_FALSE(results.cells.empty());
  EXPECT_EQ(snap.num_cells(), static_cast<int64_t>(results.cells.size()));
  for (const analysis::CellRecord& record : results.cells) {
    const int64_t index = snap.FindCell(record.cell);
    ASSERT_GE(index, 0) << "(" << record.cell.cx << ", " << record.cell.cy
                        << ")";
    const CellMoments m = snap.moments(0, index);
    EXPECT_EQ(m.n, record.num_points);
    EXPECT_NEAR(m.mean, record.mean_speed_kmh, 1e-9);
    EXPECT_NEAR(m.Variance(), record.speed_variance, 1e-9);
  }
}

// Every scenario family partitions the all slice: per cell, the family
// members' point counts sum exactly to the all-slice count.
TEST(SnapshotTest, SliceFamiliesPartitionTheAllSlice) {
  const Snapshot& snap = SmallSnapshot();
  for (int64_t i = 0; i < snap.num_cells(); ++i) {
    const int64_t all_n = snap.moments(0, i).n;
    int64_t day_n = 0;
    int64_t temp_n = 0;
    int64_t crowd_n = 0;
    for (int64_t s = 1; s < snap.num_slices(); ++s) {
      const SliceInfo info = snap.slice(s);
      const int64_t n = snap.moments(s, i).n;
      switch (static_cast<SliceKind>(info.kind)) {
        case SliceKind::kDayType:
          day_n += n;
          break;
        case SliceKind::kTemperature:
          temp_n += n;
          break;
        case SliceKind::kCrowd:
          crowd_n += n;
          break;
        case SliceKind::kAll:
          ADD_FAILURE() << "duplicate all slice at " << s;
          break;
      }
    }
    EXPECT_EQ(day_n, all_n) << "cell index " << i;
    EXPECT_EQ(temp_n, all_n) << "cell index " << i;
    EXPECT_EQ(crowd_n, all_n) << "cell index " << i;
  }
}

TEST(SnapshotTest, RejectsCorruptBytes) {
  // Too short for a header.
  EXPECT_FALSE(Snapshot::FromBytes("short").ok());

  // Wrong magic.
  std::string bad_magic = SmallSnapshotBytes();
  bad_magic[0] = 'X';
  EXPECT_FALSE(Snapshot::FromBytes(bad_magic).ok());

  // Unknown version.
  std::string bad_version = SmallSnapshotBytes();
  const uint32_t version = 99;
  std::memcpy(bad_version.data() + 8, &version, sizeof(version));
  EXPECT_FALSE(Snapshot::FromBytes(bad_version).ok());

  // Truncation: file_size in the header no longer matches.
  std::string truncated = SmallSnapshotBytes();
  truncated.resize(truncated.size() - 16);
  EXPECT_FALSE(Snapshot::FromBytes(truncated).ok());

  // A section offset pointing past the end of the file.
  std::string bad_section = SmallSnapshotBytes();
  const uint64_t huge = 1u << 30;
  std::memcpy(bad_section.data() + sizeof(SnapshotHeader) +
                  offsetof(SectionEntry, offset),
              &huge, sizeof(huge));
  EXPECT_FALSE(Snapshot::FromBytes(bad_section).ok());
}

// Byte offset of the kMeta payload in a built snapshot.
size_t MetaOffset(const std::string& bytes) {
  SnapshotHeader header;
  std::memcpy(&header, bytes.data(), sizeof header);
  for (uint32_t i = 0; i < header.section_count; ++i) {
    SectionEntry entry;
    std::memcpy(&entry,
                bytes.data() + sizeof(SnapshotHeader) +
                    i * sizeof(SectionEntry),
                sizeof entry);
    if (entry.id == static_cast<uint32_t>(SectionId::kMeta)) {
      return static_cast<size_t>(entry.offset);
    }
  }
  ADD_FAILURE() << "no meta section";
  return 0;
}

// The small snapshot with one field of its meta overwritten.
template <typename T>
std::string WithMetaField(size_t field_offset, T value) {
  std::string bytes = SmallSnapshotBytes();
  std::memcpy(bytes.data() + MetaOffset(bytes) + field_offset, &value,
              sizeof value);
  return bytes;
}

TEST(SnapshotTest, RejectsCellSizeThatIsNotPositiveAndFinite) {
  for (const double bad : {HUGE_VAL, -HUGE_VAL, std::nan(""), 0.0, -200.0}) {
    const Result<Snapshot> loaded = Snapshot::FromBytes(
        WithMetaField(offsetof(SnapshotMeta, cell_size_m), bad));
    ASSERT_FALSE(loaded.ok()) << bad;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  // The edit itself is sound: writing the real value back loads.
  EXPECT_TRUE(Snapshot::FromBytes(
                  WithMetaField(offsetof(SnapshotMeta, cell_size_m),
                                SmallSnapshot().meta().cell_size_m))
                  .ok());
}

TEST(SnapshotTest, RejectsMetaCountsWhoseSectionSizesOverflow) {
  // 2^61 cells of 8 bytes, or 2^61 slices × 2^61 cells of moments,
  // overflow int64: the check must reject them, not compute them.
  const int64_t huge = int64_t{1} << 61;
  std::string bytes = WithMetaField(offsetof(SnapshotMeta, num_cells), huge);
  std::memcpy(bytes.data() + MetaOffset(bytes) +
                  offsetof(SnapshotMeta, num_slices),
              &huge, sizeof huge);
  for (const std::string& edited :
       {WithMetaField(offsetof(SnapshotMeta, num_cells), huge),
        WithMetaField(offsetof(SnapshotMeta, num_slices), huge), bytes}) {
    const Result<Snapshot> loaded = Snapshot::FromBytes(edited);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(SnapshotTest, RejectsMetaBoundsThatDisagreeWithTheIndex) {
  const SnapshotMeta& meta = SmallSnapshot().meta();
  ASSERT_GT(meta.num_cells, 0);
  // The builder wrote the index's exact extremes, so every edit below
  // moves a bound off them.
  int32_t min_cy = INT32_MAX;
  int32_t max_cy = INT32_MIN;
  for (int64_t i = 0; i < meta.num_cells; ++i) {
    min_cy = std::min(min_cy, SmallSnapshot().cell(i).cy);
    max_cy = std::max(max_cy, SmallSnapshot().cell(i).cy);
  }
  EXPECT_EQ(meta.min_cx, SmallSnapshot().cell(0).cx);
  EXPECT_EQ(meta.max_cx, SmallSnapshot().cell(meta.num_cells - 1).cx);
  EXPECT_EQ(meta.min_cy, min_cy);
  EXPECT_EQ(meta.max_cy, max_cy);
  struct Field {
    size_t offset;
    int32_t value;
  };
  const Field fields[] = {{offsetof(SnapshotMeta, min_cx), meta.min_cx},
                          {offsetof(SnapshotMeta, min_cy), meta.min_cy},
                          {offsetof(SnapshotMeta, max_cx), meta.max_cx},
                          {offsetof(SnapshotMeta, max_cy), meta.max_cy}};
  for (const Field& f : fields) {
    for (const int32_t delta : {-1, 1}) {
      const Result<Snapshot> loaded =
          Snapshot::FromBytes(WithMetaField(f.offset, f.value + delta));
      ASSERT_FALSE(loaded.ok()) << f.offset << " " << delta;
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    }
    EXPECT_TRUE(Snapshot::FromBytes(WithMetaField(f.offset, f.value)).ok());
  }
}

TEST(SnapshotTest, FromFileMatchesFromBytesByteForByte) {
  const std::string path = ::testing::TempDir() + "/tt_snapshot_mmap.ttsnap";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good());
    out.write(SmallSnapshotBytes().data(),
              static_cast<std::streamsize>(SmallSnapshotBytes().size()));
    ASSERT_TRUE(out.good());
  }

  auto mapped = Snapshot::FromFile(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().message();
  const Snapshot& mm = mapped.value();
  const Snapshot& heap = SmallSnapshot();

  // The mapped view is the same bytes, not a re-serialization.
  ASSERT_EQ(mm.bytes().size(), heap.bytes().size());
  EXPECT_EQ(mm.bytes(), heap.bytes());
  EXPECT_EQ(std::memcmp(&mm.meta(), &heap.meta(), sizeof(SnapshotMeta)), 0);

  // Every record both loaders expose decodes identically.
  ASSERT_EQ(mm.num_cells(), heap.num_cells());
  ASSERT_EQ(mm.num_slices(), heap.num_slices());
  for (int64_t i = 0; i < heap.num_cells(); ++i) {
    EXPECT_EQ(mm.cell(i), heap.cell(i));
    const CellFeatureRow mf = mm.features(i);
    const CellFeatureRow hf = heap.features(i);
    EXPECT_EQ(std::memcmp(&mf, &hf, sizeof mf), 0);
    const CellModelRow mr = mm.model(i);
    const CellModelRow hr = heap.model(i);
    EXPECT_EQ(std::memcmp(&mr, &hr, sizeof mr), 0);
    for (int64_t s = 0; s < heap.num_slices(); ++s) {
      const CellMoments ms = mm.moments(s, i);
      const CellMoments hs = heap.moments(s, i);
      EXPECT_EQ(std::memcmp(&ms, &hs, sizeof ms), 0);
    }
  }
  for (int64_t s = 0; s < heap.num_slices(); ++s) {
    const SliceInfo mi = mm.slice(s);
    const SliceInfo hi = heap.slice(s);
    EXPECT_EQ(std::memcmp(&mi, &hi, sizeof mi), 0);
  }

  // A Snapshot copy outlives the original without re-mapping.
  Snapshot copy = mm;
  EXPECT_EQ(copy.FindCell(heap.cell(0)), 0);
  std::remove(path.c_str());
}

TEST(SnapshotTest, FromFileRejectsMissingTruncatedAndCorruptFiles) {
  EXPECT_FALSE(Snapshot::FromFile("/nonexistent/tt_snapshot.ttsnap").ok());

  const std::string dir = ::testing::TempDir();
  const std::string empty_path = dir + "/tt_snapshot_empty.ttsnap";
  { std::ofstream out(empty_path, std::ios::binary | std::ios::trunc); }
  EXPECT_FALSE(Snapshot::FromFile(empty_path).ok());
  std::remove(empty_path.c_str());

  // FromFile runs the identical validation: flipping the magic on disk
  // is rejected with the same error FromBytes reports.
  std::string bad = SmallSnapshotBytes();
  bad[0] = 'X';
  const std::string bad_path = dir + "/tt_snapshot_bad.ttsnap";
  {
    std::ofstream out(bad_path, std::ios::binary | std::ios::trunc);
    out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
  }
  auto from_file = Snapshot::FromFile(bad_path);
  auto from_bytes = Snapshot::FromBytes(bad);
  ASSERT_FALSE(from_file.ok());
  ASSERT_FALSE(from_bytes.ok());
  EXPECT_EQ(from_file.status().message(), from_bytes.status().message());
  std::remove(bad_path.c_str());
}

TEST(QueryEngineTest, PointAndCellQueriesAgree) {
  const Snapshot& snap = SmallSnapshot();
  const analysis::Grid grid(snap.meta().cell_size_m);
  QueryEngine engine(&snap);
  for (int64_t i = 0; i < snap.num_cells(); ++i) {
    const analysis::CellId cell = snap.cell(i);
    CellStats by_point;
    CellStats by_cell;
    const QueryOutcome a =
        engine.PointQuery(grid.CellCenter(cell), 0, &by_point);
    const QueryOutcome b = engine.CellQuery(cell, 0, &by_cell);
    EXPECT_EQ(a, b);
    if (a == QueryOutcome::kAnswered) {
      EXPECT_EQ(by_point.cell, by_cell.cell);
      EXPECT_EQ(by_point.n, by_cell.n);
      EXPECT_EQ(by_point.mean_speed_kmh, by_cell.mean_speed_kmh);
    }
  }
  EXPECT_EQ(engine.stats().offered, 2 * snap.num_cells());
  EXPECT_EQ(engine.stats().offered, engine.stats().answered +
                                        engine.stats().out_of_bounds +
                                        engine.stats().empty_cell);
}

TEST(QueryEngineTest, BboxMatchesBruteForce) {
  const Snapshot& snap = SmallSnapshot();
  const analysis::Grid grid(snap.meta().cell_size_m);
  const SnapshotMeta& meta = snap.meta();
  QueryEngine engine(&snap);

  // Sweep a window of boxes across the observed rectangle, including
  // boxes that hang off every edge.
  for (int32_t cx = meta.min_cx - 1; cx <= meta.max_cx + 1; ++cx) {
    for (int32_t cy = meta.min_cy - 1; cy <= meta.max_cy + 1; ++cy) {
      const geo::Bbox lo_cell = grid.CellBounds(analysis::CellId{cx, cy});
      const geo::Bbox hi_cell =
          grid.CellBounds(analysis::CellId{cx + 2, cy + 1});
      geo::Bbox box;
      box.min_x = lo_cell.min_x;
      box.min_y = lo_cell.min_y;
      box.max_x = hi_cell.min_x + 1.0;  // Reaches into cell (cx+2, cy+1).
      box.max_y = hi_cell.min_y + 1.0;

      std::vector<CellStats> got;
      const QueryOutcome outcome = engine.BboxQuery(box, 0, &got);

      std::vector<analysis::CellId> want;
      for (int64_t i = 0; i < snap.num_cells(); ++i) {
        const analysis::CellId c = snap.cell(i);
        if (c.cx >= cx && c.cx <= cx + 2 && c.cy >= cy && c.cy <= cy + 1 &&
            snap.moments(0, i).n > 0) {
          want.push_back(c);
        }
      }
      ASSERT_EQ(got.size(), want.size()) << "box at (" << cx << ", " << cy
                                         << ")";
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].cell, want[i]);
      }
      if (!want.empty()) {
        EXPECT_EQ(outcome, QueryOutcome::kAnswered);
      } else {
        EXPECT_NE(outcome, QueryOutcome::kAnswered);
      }
    }
  }
  EXPECT_EQ(engine.stats().offered, engine.stats().answered +
                                        engine.stats().out_of_bounds +
                                        engine.stats().empty_cell);
}

TEST(QueryEngineTest, OutOfBoundsAndEmptyCellBuckets) {
  const Snapshot& snap = SmallSnapshot();
  const analysis::Grid grid(snap.meta().cell_size_m);
  const SnapshotMeta& meta = snap.meta();
  QueryEngine engine(&snap);

  // Far outside the observed rectangle: out_of_bounds.
  CellStats stats;
  EXPECT_EQ(engine.CellQuery(analysis::CellId{meta.max_cx + 10,
                                              meta.max_cy + 10},
                             0, &stats),
            QueryOutcome::kOutOfBounds);

  // Inside the rectangle but not indexed (or indexed with an empty
  // slice): empty_cell. The rectangle is the bounding box of a sparse
  // road network, so such a cell exists in any realistic study; fall
  // back to an unknown slice id on a real cell otherwise.
  bool found_hole = false;
  for (int32_t cx = meta.min_cx; cx <= meta.max_cx && !found_hole; ++cx) {
    for (int32_t cy = meta.min_cy; cy <= meta.max_cy && !found_hole; ++cy) {
      const analysis::CellId c{cx, cy};
      if (snap.FindCell(c) < 0) {
        EXPECT_EQ(engine.CellQuery(c, 0, &stats), QueryOutcome::kEmptyCell);
        found_hole = true;
      }
    }
  }
  EXPECT_EQ(engine.CellQuery(snap.cell(0), snap.num_slices() + 3, &stats),
            QueryOutcome::kEmptyCell);

  // SliceQuery with a slice the directory lacks: empty_cell in bounds.
  EXPECT_EQ(engine.SliceQuery(grid.CellCenter(snap.cell(0)), SliceKind::kCrowd,
                              77, &stats),
            QueryOutcome::kEmptyCell);

  EXPECT_EQ(engine.stats().offered, engine.stats().answered +
                                        engine.stats().out_of_bounds +
                                        engine.stats().empty_cell);
}

TEST(QueryEngineTest, HostileCoordinatesAreOutOfBounds) {
  const Snapshot& snap = SmallSnapshot();
  const analysis::Grid grid(snap.meta().cell_size_m);
  QueryEngine engine(&snap);
  // A real cell and a box over every indexed cell, both answered, so
  // each hostile variant below differs from an answered query in one
  // coordinate only.
  const geo::EnPoint inside = grid.CellCenter(snap.cell(0));
  const geo::Bbox whole{
      grid.CellBounds({snap.meta().min_cx, snap.meta().min_cy}).min_x,
      grid.CellBounds({snap.meta().min_cx, snap.meta().min_cy}).min_y,
      grid.CellBounds({snap.meta().max_cx, snap.meta().max_cy}).max_x,
      grid.CellBounds({snap.meta().max_cx, snap.meta().max_cy}).max_y};
  CellStats stats;
  std::vector<CellStats> cells;
  ASSERT_EQ(engine.PointQuery(inside, 0, &stats), QueryOutcome::kAnswered);
  ASSERT_EQ(engine.BboxQuery(whole, 0, &cells), QueryOutcome::kAnswered);

  int64_t hostile = 0;
  for (const double bad :
       {std::nan(""), HUGE_VAL, -HUGE_VAL, 1e300, -1e300}) {
    for (const geo::EnPoint p :
         {geo::EnPoint{bad, inside.y}, geo::EnPoint{inside.x, bad}}) {
      EXPECT_EQ(engine.PointQuery(p, 0, &stats), QueryOutcome::kOutOfBounds)
          << bad;
      EXPECT_EQ(engine.SliceQuery(p, SliceKind::kAll, 0, &stats),
                QueryOutcome::kOutOfBounds)
          << bad;
      hostile += 2;
    }
    for (double geo::Bbox::*corner : {&geo::Bbox::min_x, &geo::Bbox::min_y,
                                      &geo::Bbox::max_x, &geo::Bbox::max_y}) {
      geo::Bbox box = whole;
      box.*corner = bad;
      cells.clear();
      EXPECT_EQ(engine.BboxQuery(box, 0, &cells), QueryOutcome::kOutOfBounds)
          << bad;
      EXPECT_TRUE(cells.empty());
      ++hostile;
    }
  }
  EXPECT_EQ(engine.stats().out_of_bounds, hostile);
  EXPECT_EQ(engine.stats().answered, 2);
  EXPECT_EQ(engine.stats().offered, engine.stats().answered +
                                        engine.stats().out_of_bounds +
                                        engine.stats().empty_cell);
}

// The order statistic the replay reports, taken the direct way: rank
// k = min(n - 1, floor(q * n)) of the samples, via std::nth_element.
int64_t NthElementQuantile(std::vector<int64_t> samples, double q) {
  const size_t k = std::min(
      samples.size() - 1,
      static_cast<size_t>(q * static_cast<double>(samples.size())));
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<int64_t>(k), samples.end());
  return samples[k];
}

// Fixed edge samples — 0 ns, duplicates, both sides of the 2^16 ns
// bucket limit, samples far above it — among `fast` and `slow`
// uniform draws below and above the limit.
std::vector<int64_t> LatencySamples(int fast, int slow, uint64_t seed) {
  std::vector<int64_t> samples = {0,     0,      7,         7,
                                  7,     65'535, 65'535,    65'536,
                                  65'536, 100'000, 3'000'000, 5'000'000'000};
  Rng rng(seed);
  for (int i = 0; i < fast; ++i) samples.push_back(rng.UniformInt(0, 2000));
  for (int i = 0; i < slow; ++i) {
    samples.push_back(rng.UniformInt(65'536, 10'000'000));
  }
  return samples;
}

void ExpectQuantilesMatchNthElement(const LatencyTable& table,
                                    const std::vector<int64_t>& samples) {
  ASSERT_EQ(table.count(), static_cast<int64_t>(samples.size()));
  // Every q in steps of 0.001, p50/p90/p99 and the maximum included.
  for (int i = 0; i <= 1000; ++i) {
    const double q = i / 1000.0;
    EXPECT_EQ(table.Quantile(q), NthElementQuantile(samples, q))
        << "q=" << q;
  }
  EXPECT_EQ(table.Quantile(1.0),
            *std::max_element(samples.begin(), samples.end()));
}

TEST(LatencyTableTest, QuantilesEqualNthElementOrderStatistic) {
  // Mostly fast samples (p99 still in the table), then mostly slow
  // ones (p50 among the verbatim samples).
  for (const auto& [fast, slow] : {std::pair{5000, 20}, std::pair{30, 400}}) {
    const std::vector<int64_t> samples = LatencySamples(fast, slow, 17);
    LatencyTable table;
    for (const int64_t ns : samples) table.Record(ns);
    ExpectQuantilesMatchNthElement(table, samples);
  }
}

TEST(LatencyTableTest, EmptyTableReadsZero) {
  const LatencyTable table;
  EXPECT_EQ(table.count(), 0);
  for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(table.Quantile(q), 0) << "q=" << q;
  }
}

TEST(LatencyTableTest, NegativeSampleCountsAsZero) {
  LatencyTable table;
  table.Record(-5);
  table.Record(3);
  EXPECT_EQ(table.Quantile(0.0), 0);
  EXPECT_EQ(table.Quantile(1.0), 3);
}

TEST(LatencyTableTest, FoldedWorkerTablesEqualOneTable) {
  const std::vector<int64_t> samples = LatencySamples(3000, 60, 23);
  LatencyTable one;
  LatencyTable first;
  LatencyTable second;
  for (size_t i = 0; i < samples.size(); ++i) {
    one.Record(samples[i]);
    (i % 3 == 0 ? first : second).Record(samples[i]);
  }
  // Fold in both orders into an empty table, as the replay does.
  LatencyTable folded;
  folded.Add(first);
  folded.Add(second);
  LatencyTable reversed;
  reversed.Add(second);
  reversed.Add(first);
  ExpectQuantilesMatchNthElement(one, samples);
  ExpectQuantilesMatchNthElement(folded, samples);
  ExpectQuantilesMatchNthElement(reversed, samples);
}

TEST(ReplayTest, FunnelReconcilesAndMetricsPublished) {
  obs::MetricsRegistry metrics;
  obs::FunnelLedger funnel;
  WorkloadOptions options;
  options.num_queries = 20000;
  auto replayed =
      ReplayWorkload(SmallSnapshot(), options, &Executor::Serial(), &metrics,
                     &funnel);
  TT_CHECK_OK(replayed.status());
  const ReplayResult& r = *replayed;

  EXPECT_EQ(r.num_queries, options.num_queries);
  EXPECT_EQ(r.stats.offered, options.num_queries);
  EXPECT_EQ(r.stats.offered,
            r.stats.answered + r.stats.out_of_bounds + r.stats.empty_cell);
  // The Zipf mix aims most queries at hot cells, and the OOB share is
  // nonzero by construction.
  EXPECT_GT(r.stats.answered, 0);
  EXPECT_GT(r.stats.out_of_bounds, 0);
  EXPECT_NE(r.digest, 0u);
  EXPECT_GT(r.qps, 0.0);
  EXPECT_LE(r.p50_us, r.p90_us);
  EXPECT_LE(r.p90_us, r.p99_us);
  EXPECT_LE(r.p99_us, r.max_us);

  const Status reconciles = funnel.CheckReconciles();
  EXPECT_TRUE(reconciles.ok()) << reconciles.ToString();
  EXPECT_NE(funnel.Find("serve.queries"), nullptr);
}

TEST(ReplayTest, DeterministicAcrossWorkerCounts) {
  WorkloadOptions options;
  options.num_queries = 20000;
  auto replay_with = [&](int threads) {
    const Executor executor(threads);
    auto r = ReplayWorkload(SmallSnapshot(), options, &executor);
    TT_CHECK_OK(r.status());
    return std::move(r).value();
  };
  const ReplayResult serial = replay_with(0);
  for (const int threads : {1, 2, 8}) {
    const ReplayResult run = replay_with(threads);
    EXPECT_EQ(run.stats, serial.stats) << threads << " workers";
    EXPECT_EQ(run.digest, serial.digest) << threads << " workers";
  }
}

}  // namespace
}  // namespace serve
}  // namespace taxitrace
