#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "taxitrace/common/csv.h"
#include "taxitrace/common/executor.h"
#include "taxitrace/common/hash.h"
#include "taxitrace/common/logging.h"
#include "taxitrace/common/random.h"
#include "taxitrace/common/reorder_buffer.h"
#include "taxitrace/common/result.h"
#include "taxitrace/common/status.h"
#include "taxitrace/common/strings.h"

namespace taxitrace {
namespace {

// --- Status ----------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, OkFactory) { EXPECT_TRUE(Status::OK().ok()); }

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status::OK());
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::IOError("a"));
}

TEST(StatusTest, CopyIsCheapAndShared) {
  const Status a = Status::Corruption("broken");
  const Status b = a;  // shared rep
  EXPECT_EQ(b.message(), "broken");
  EXPECT_EQ(a, b);
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_EQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeName(StatusCode::kCorruption), "Corruption");
  EXPECT_EQ(StatusCodeName(StatusCode::kIOError), "IOError");
}

// --- Result ----------------------------------------------------------------

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  const std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

TEST(ResultTest, ArrowOperator) {
  Result<std::string> r = std::string("abc");
  EXPECT_EQ(r->size(), 3u);
}

Result<int> Doubled(Result<int> in) {
  TAXITRACE_ASSIGN_OR_RETURN(const int v, std::move(in));
  return 2 * v;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Doubled(21).value(), 42);
  EXPECT_TRUE(Doubled(Status::IOError("x")).status().IsIOError());
}

// --- Rng --------------------------------------------------------------------

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int diff = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.NextUint64() != b.NextUint64()) ++diff;
  }
  EXPECT_GT(diff, 10);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(-3.0, 5.5);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.5);
  }
}

TEST(RngTest, UniformIntInclusiveAndCoversRange) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // every value of [-2, 3] appears
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(13);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(5, 5), 5);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Gaussian();
    sum += v;
    sum2 += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(RngTest, GaussianWithParams) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Gaussian(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(RngTest, BernoulliEdges) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-1.0));
    EXPECT_TRUE(rng.Bernoulli(2.0));
  }
}

TEST(RngTest, BernoulliRate) {
  Rng rng(29);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(31);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(0.5);
  EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(RngTest, PoissonMean) {
  Rng rng(37);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.Poisson(4.5);
  EXPECT_NEAR(sum / n, 4.5, 0.1);
}

TEST(RngTest, PoissonZeroAndLargeMean) {
  Rng rng(41);
  EXPECT_EQ(rng.Poisson(0.0), 0);
  EXPECT_EQ(rng.Poisson(-1.0), 0);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Poisson(100.0);  // normal approx
  EXPECT_NEAR(sum / n, 100.0, 1.0);
}

TEST(RngTest, WeightedIndexProportions) {
  Rng rng(43);
  const std::vector<double> w = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  const int n = 60000;
  for (int i = 0; i < n; ++i) ++counts[rng.WeightedIndex(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.01);
}

TEST(RngTest, WeightedIndexAllZeroFallsBackToUniform) {
  Rng rng(47);
  const std::vector<double> w = {0.0, 0.0};
  std::set<size_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(rng.WeightedIndex(w));
  EXPECT_EQ(seen.size(), 2u);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(51);
  Rng b = a.Fork();
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) {
    if (a.NextUint64() != b.NextUint64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

// --- Strings ----------------------------------------------------------------

TEST(StringsTest, SplitBasic) {
  const std::vector<std::string> parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringsTest, SplitEmptyFields) {
  EXPECT_EQ(Split(",,", ',').size(), 3u);
  EXPECT_EQ(Split("", ',').size(), 1u);
  EXPECT_EQ(Split("abc", ',').size(), 1u);
}

TEST(StringsTest, JoinRoundTrip) {
  const std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, "-"), "x-y-z");
  EXPECT_EQ(Join({}, "-"), "");
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace("a b"), "a b");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("foobar", "bar"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_FALSE(StartsWith("", "x"));
}

TEST(StringsTest, ParseInt64) {
  EXPECT_EQ(ParseInt64("42").value(), 42);
  EXPECT_EQ(ParseInt64(" -7 ").value(), -7);
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseInt64("4.5").ok());
  EXPECT_TRUE(ParseInt64("99999999999999999999").status().IsOutOfRange());
}

TEST(StringsTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(ParseDouble("2.5").value(), 2.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-1e3").value(), -1000.0);
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.5f").ok());
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

// --- CSV ---------------------------------------------------------------------

TEST(CsvTest, ParseSimple) {
  const auto rows = ParseCsv("a,b\n1,2\n").value();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (CsvRow{"a", "b"}));
  EXPECT_EQ(rows[1], (CsvRow{"1", "2"}));
}

TEST(CsvTest, NoTrailingNewline) {
  const auto rows = ParseCsv("a,b").value();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (CsvRow{"a", "b"}));
}

TEST(CsvTest, QuotedFieldWithSeparator) {
  const auto rows = ParseCsv("\"a,b\",c\n").value();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (CsvRow{"a,b", "c"}));
}

TEST(CsvTest, EscapedQuote) {
  const auto rows = ParseCsv("\"say \"\"hi\"\"\"\n").value();
  EXPECT_EQ(rows[0][0], "say \"hi\"");
}

TEST(CsvTest, NewlineInsideQuotes) {
  const auto rows = ParseCsv("\"a\nb\",c\n").value();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "a\nb");
}

TEST(CsvTest, CrLfHandling) {
  const auto rows = ParseCsv("a,b\r\nc,d\r\n").value();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (CsvRow{"c", "d"}));
}

TEST(CsvTest, EmptyInput) {
  EXPECT_TRUE(ParseCsv("").value().empty());
}

TEST(CsvTest, UnterminatedQuoteIsCorruption) {
  EXPECT_TRUE(ParseCsv("\"oops").status().IsCorruption());
}

TEST(CsvTest, EmptyFieldsPreserved) {
  const auto rows = ParseCsv(",,\n").value();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].size(), 3u);
  EXPECT_EQ(rows[0][1], "");
}

TEST(CsvTest, WriteQuotesOnlyWhenNeeded) {
  const std::string text =
      WriteCsv({{"plain", "with,comma", "with\"quote", "with\nnewline"}});
  EXPECT_EQ(text,
            "plain,\"with,comma\",\"with\"\"quote\",\"with\nnewline\"\n");
}

TEST(CsvTest, RoundTrip) {
  const std::vector<CsvRow> rows = {
      {"a", "b,c", "d\"e"}, {"", "2", "line\nbreak"}, {"x"}};
  const auto parsed = ParseCsv(WriteCsv(rows)).value();
  EXPECT_EQ(parsed, rows);
}

TEST(CsvTest, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/csv_roundtrip.csv";
  const std::vector<CsvRow> rows = {{"h1", "h2"}, {"1", "two,three"}};
  ASSERT_TRUE(WriteCsvFile(path, rows).ok());
  EXPECT_EQ(ReadCsvFile(path).value(), rows);
  std::remove(path.c_str());
}

TEST(CsvTest, ReadMissingFileFails) {
  EXPECT_TRUE(ReadCsvFile("/no/such/dir/file.csv").status().IsIOError());
}

// --- Logging -----------------------------------------------------------------

// HashCell2D is the blessed mixer for every signed-2D-coordinate hash
// in the codebase (analysis grid cells, spatial-index cells). Like the
// grid test that first caught the ad-hoc-mix column collapse, this
// checks injectivity over a dense signed range and near-uniform load
// under power-of-two bucket masking — the regime where low-bit
// structure is fatal.
TEST(HashTest, HashCell2DInjectiveAndWellDistributed) {
  constexpr int32_t kHalf = 64;  // cx, cy in [-64, 64): 16384 cells
  constexpr size_t kBuckets = 1024;
  std::set<uint64_t> seen;
  std::vector<int> load(kBuckets, 0);
  for (int32_t cx = -kHalf; cx < kHalf; ++cx) {
    for (int32_t cy = -kHalf; cy < kHalf; ++cy) {
      const uint64_t h = HashCell2D(cx, cy);
      EXPECT_TRUE(seen.insert(h).second)
          << "collision at (" << cx << ", " << cy << ")";
      ++load[h % kBuckets];
    }
  }
  EXPECT_EQ(seen.size(), 4u * kHalf * kHalf);
  // Expected load is 16 per bucket; allow generous slack over a true
  // uniform draw.
  const int max_load = *std::max_element(load.begin(), load.end());
  EXPECT_LE(max_load, 48) << "bucket distribution is badly skewed";
}

TEST(HashTest, SplitMix64IsNotIdentityLike) {
  // Neighbouring inputs must not produce neighbouring outputs: the
  // avalanche is what the cell hashes above rely on.
  EXPECT_NE(SplitMix64(0), 0u);
  EXPECT_NE(SplitMix64(1) - SplitMix64(0), 1u);
  EXPECT_NE(SplitMix64(2) - SplitMix64(1), SplitMix64(1) - SplitMix64(0));
}

// ---------------------------------------------------------------------------
// ReorderBuffer

// Items carry a heap payload so a moved-from item (empty vector) would
// be visible if it were ever delivered.
using Payload = std::vector<int64_t>;

TEST(ReorderBufferTest, OutOfOrderDepositsDrainInIndexOrder) {
  std::vector<int64_t> delivered;
  ReorderBuffer<Payload> buffer([&](Payload item) -> Status {
    delivered.push_back(item.at(0));
    return Status::OK();
  });
  const std::vector<int64_t> arrival = {3, 1, 4, 0, 2, 6, 5};
  for (const int64_t i : arrival) {
    ASSERT_TRUE(buffer.Deposit(i, Payload{i}).ok());
    // Nothing is released past a missing predecessor.
    for (size_t k = 0; k < delivered.size(); ++k) {
      EXPECT_EQ(delivered[k], static_cast<int64_t>(k));
    }
  }
  EXPECT_EQ(delivered, (std::vector<int64_t>{0, 1, 2, 3, 4, 5, 6}));
  // 3, 1 and 4 wait for 0; with 0 deposited four items are held.
  EXPECT_EQ(buffer.peak_buffered(), 4);
}

TEST(ReorderBufferTest, SerialRunPeaksAtOne) {
  int64_t delivered = 0;
  ReorderBuffer<Payload> buffer([&](Payload item) -> Status {
    EXPECT_EQ(item.at(0), delivered);
    ++delivered;
    return Status::OK();
  });
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(buffer.Deposit(i, Payload{i}).ok());
  }
  EXPECT_EQ(delivered, 100);
  EXPECT_EQ(buffer.peak_buffered(), 1);
}

TEST(ReorderBufferTest, ParallelDepositsDrainInIndexOrder) {
  constexpr int64_t kItems = 2000;
  std::vector<int64_t> delivered;
  ReorderBuffer<Payload> buffer([&](Payload item) -> Status {
    delivered.push_back(item.at(0));
    return Status::OK();
  });
  const Executor executor(8);
  ASSERT_TRUE(executor
                  .ParallelFor(0, kItems,
                               [&buffer](int64_t i) -> Status {
                                 return buffer.Deposit(i, Payload{i});
                               })
                  .ok());
  ASSERT_EQ(delivered.size(), static_cast<size_t>(kItems));
  for (int64_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(delivered[static_cast<size_t>(i)], i);
  }
  EXPECT_GE(buffer.peak_buffered(), 1);
}

TEST(ReorderBufferTest, ConsumerErrorStopsDrainingWithoutRedelivery) {
  std::vector<int64_t> delivered;
  ReorderBuffer<Payload> buffer([&](Payload item) -> Status {
    EXPECT_FALSE(item.empty()) << "moved-from item delivered";
    const int64_t i = item.empty() ? -1 : item[0];
    delivered.push_back(i);
    if (i == 2) return Status::Internal("sink full");
    return Status::OK();
  });
  // 3 and 4 wait behind 2; depositing 0..2 releases up to the failure.
  ASSERT_TRUE(buffer.Deposit(3, Payload{3}).ok());
  ASSERT_TRUE(buffer.Deposit(4, Payload{4}).ok());
  ASSERT_TRUE(buffer.Deposit(0, Payload{0}).ok());
  ASSERT_TRUE(buffer.Deposit(1, Payload{1}).ok());
  const Status failed = buffer.Deposit(2, Payload{2});
  EXPECT_EQ(failed, Status::Internal("sink full"));
  EXPECT_EQ(delivered, (std::vector<int64_t>{0, 1, 2}));

  // After the failure nothing drains again: not the failed head, not
  // the items that were waiting behind it, not later deposits.
  EXPECT_TRUE(buffer.Deposit(5, Payload{5}).ok());
  EXPECT_TRUE(buffer.Deposit(6, Payload{6}).ok());
  EXPECT_EQ(delivered, (std::vector<int64_t>{0, 1, 2}));
}

// ---------------------------------------------------------------------------
// WorkerLocal

// One worker's slot: the items it ran, the worker that created it, and
// how many times ForEach has visited it.
struct WorkerSlot {
  int worker = Executor::CurrentWorkerIndex();
  int64_t items = 0;
  int visits = 0;
};

TEST(WorkerLocalTest, ForEachVisitsEveryCreatedSlotOnce) {
  constexpr int64_t kItems = 5000;
  const Executor executor(8);
  const WorkerLocal<WorkerSlot> slots;
  // Each item also records which worker ran it, in an element of its
  // own, so the expected slot set needs no shared state.
  std::vector<int> ran_on(static_cast<size_t>(kItems), -2);
  ASSERT_TRUE(executor
                  .ParallelFor(0, kItems,
                               [&](int64_t i) -> Status {
                                 ++slots.Local().items;
                                 ran_on[static_cast<size_t>(i)] =
                                     Executor::CurrentWorkerIndex();
                                 return Status::OK();
                               })
                  .ok());

  std::vector<int> visited;
  int64_t total = 0;
  slots.ForEach([&](WorkerSlot& slot) {
    ++slot.visits;
    visited.push_back(slot.worker);
    total += slot.items;
  });
  EXPECT_EQ(total, kItems);
  // Slot order is worker order, and the created slots are exactly the
  // workers that ran an item: all pool workers, none off-pool.
  const std::set<int> workers(ran_on.begin(), ran_on.end());
  EXPECT_EQ(visited, std::vector<int>(workers.begin(), workers.end()));
  EXPECT_GE(*workers.begin(), 0);
  EXPECT_LT(*workers.rbegin(), 8);
  slots.ForEach([](const WorkerSlot& slot) { EXPECT_EQ(slot.visits, 1); });
}

// Sets TAXITRACE_THREADS for one scope and restores the prior value.
class ScopedThreadsEnv {
 public:
  explicit ScopedThreadsEnv(const char* value) {
    if (const char* prior = std::getenv("TAXITRACE_THREADS")) {
      had_prior_ = true;
      prior_ = prior;
    }
    setenv("TAXITRACE_THREADS", value, 1);
  }
  ~ScopedThreadsEnv() {
    if (had_prior_) {
      setenv("TAXITRACE_THREADS", prior_.c_str(), 1);
    } else {
      unsetenv("TAXITRACE_THREADS");
    }
  }

 private:
  bool had_prior_ = false;
  std::string prior_;
};

// Only resolves counts; no pool is built, so no thread starts.
TEST(ExecutorTest, ResolveThreadCountStaysWithinThePoolCap) {
  int hardware_default = 0;
  {
    const ScopedThreadsEnv env("not-a-number");
    hardware_default = Executor::ResolveThreadCount(-1);
  }
  EXPECT_GE(hardware_default, 1);
  EXPECT_LE(hardware_default, kMaxExecutorWorkers);
  {
    const ScopedThreadsEnv env("256");
    EXPECT_EQ(Executor::ResolveThreadCount(-1), kMaxExecutorWorkers);
  }
  // Above the cap is malformed: it falls through to the default.
  for (const char* too_many : {"257", "2147483647", "2147483648"}) {
    const ScopedThreadsEnv env(too_many);
    EXPECT_EQ(Executor::ResolveThreadCount(-1), hardware_default)
        << too_many;
  }
  {
    const ScopedThreadsEnv env("0");
    EXPECT_EQ(Executor::ResolveThreadCount(-1), 0);
  }
}

TEST(LoggingTest, LevelFilterRoundTrip) {
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  TAXITRACE_LOG(kDebug) << "suppressed";  // must not crash
  SetLogLevel(before);
}

}  // namespace
}  // namespace taxitrace
