// Fixed-size worker pool behind every parallel stage in the library.
//
// All concurrency in taxitrace flows through this executor (the repo
// linter bans raw std::thread / std::async elsewhere), which keeps the
// threading model auditable in one place. The contract the pipeline
// relies on: an Executor never changes *what* is computed, only *where*
// — callers shard their work into order-independent units, run them via
// ParallelFor, and merge the per-unit outputs in index order, so results
// are byte-identical at any thread count, including the serial fallback.

#ifndef TAXITRACE_COMMON_EXECUTOR_H_
#define TAXITRACE_COMMON_EXECUTOR_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "taxitrace/common/status.h"

namespace taxitrace {

/// Upper bound on pool workers (enforced by the Executor constructor).
/// WorkerLocal sizes its slot table from this, so every worker thread —
/// plus the one off-pool slot — has a private, race-free slot.
inline constexpr int kMaxExecutorWorkers = 256;

/// Alignment that keeps a per-worker block of fields on cache lines of
/// its own, so workers writing their own blocks never share a line.
inline constexpr size_t kCacheLineBytes = 64;

/// Load accounting for one Executor, readable via Executor::stats().
/// Worker attribution and queue wait depend on scheduling, so these
/// values are run-dependent — publish them as observability *gauges*,
/// never into anything that must be deterministic.
struct ExecutorStats {
  int64_t batches = 0;       ///< ParallelFor / RunTasks calls.
  int64_t serial_items = 0;  ///< Indices run inline (0-thread mode).
  /// Indices executed by each pool worker.
  std::vector<int64_t> items_per_worker;
  /// Total time batch jobs spent queued before a worker picked them up.
  double queue_wait_ms = 0.0;
};

/// A fixed pool of worker threads with an index-loop and task-batch API.
///
/// `Executor(0)` creates no threads: every call runs inline on the
/// caller, which is the deterministic serial fallback (`TAXITRACE_THREADS=0`).
/// With n > 0 workers the caller blocks until the batch completes; the
/// pool is reused across calls and joined on destruction.
class Executor {
 public:
  /// Creates `num_threads` workers (clamped at 0). 0 = run inline.
  explicit Executor(int num_threads);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Number of pool threads; 0 means every call executes serially
  /// inline.
  [[nodiscard]] int num_threads() const {
    return static_cast<int>(workers_.size());
  }

  /// Runs `fn(i)` for every i in [begin, end), distributing indices over
  /// the pool, and blocks until all of them finished. Every index runs
  /// even after a failure, so the returned status — the error of the
  /// *lowest* failing index — does not depend on scheduling.
  Status ParallelFor(int64_t begin, int64_t end,
                     const std::function<Status(int64_t)>& fn) const;

  /// Runs a batch of heterogeneous tasks (task-submission form of
  /// ParallelFor). Same completion and error contract.
  Status RunTasks(const std::vector<std::function<Status()>>& tasks) const;

  /// Resolves a requested thread count to an actual one:
  ///   requested >= 0  -> used as-is (0 = serial),
  ///   requested  < 0  -> the TAXITRACE_THREADS environment variable if
  ///                      set to a valid non-negative integer, else all
  ///                      hardware threads.
  static int ResolveThreadCount(int requested);

  /// A process-wide 0-thread executor for call sites that take an
  /// optional `const Executor*` and received none.
  static const Executor& Serial();

  /// Index of the calling pool worker thread in [0, num_threads), or -1
  /// when called from any thread outside an executor pool (the main
  /// thread, the serial fallback, tests). This is the worker context
  /// that WorkerLocal keys its slots on.
  static int CurrentWorkerIndex();

  /// Snapshot of the load counters accumulated so far.
  [[nodiscard]] ExecutorStats stats() const;

 private:
  struct QueuedJob {
    /// Runs the job and returns how many work items it executed (for
    /// per-worker load attribution).
    std::function<int64_t()> fn;
    std::chrono::steady_clock::time_point enqueued;
  };

  void WorkerLoop(size_t worker_index);

  mutable std::mutex mu_;
  mutable std::condition_variable work_cv_;
  mutable std::deque<QueuedJob> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;

  // Load accounting; relaxed atomics, a handful of adds per batch/job.
  mutable std::atomic<int64_t> batches_{0};
  mutable std::atomic<int64_t> serial_items_{0};
  mutable std::atomic<int64_t> queue_wait_ns_{0};
  mutable std::unique_ptr<std::atomic<int64_t>[]> worker_items_;
};

/// Per-worker mutable scratch, keyed on the executor's worker context.
///
/// `Local()` hands every thread a slot of its own: pool worker w gets
/// slot w + 1, any off-pool thread (main thread, serial fallback) gets
/// slot 0. Within one executor's batch each slot is touched by exactly
/// one thread, so access after the first-use allocation is lock-free
/// and race-free. Slots are created on first use and live until the
/// WorkerLocal is destroyed, which is what makes repeated use (e.g. one
/// search scratch per worker across thousands of searches)
/// allocation-free in steady state.
///
/// The scratch must never influence *what* is computed — only how much
/// allocation/initialisation it costs — or the executor's determinism
/// contract ("same results at any worker count") breaks.
///
/// The same rule keeps per-item work tallies off shared memory: no
/// object shared across workers is written per item. A class that
/// counts its work per call keeps the counts in its slot as
/// WorkerTally fields and sums the slots with ForEach when asked.
template <typename T>
class WorkerLocal {
 public:
  WorkerLocal() = default;
  ~WorkerLocal() {
    for (auto& slot : slots_) delete slot.load(std::memory_order_acquire);
  }
  WorkerLocal(const WorkerLocal&) = delete;
  WorkerLocal& operator=(const WorkerLocal&) = delete;

  /// The calling thread's slot, default-constructed on first use.
  T& Local() const {
    const size_t slot =
        static_cast<size_t>(Executor::CurrentWorkerIndex() + 1);
    std::atomic<T*>& cell = slots_[slot];
    T* p = cell.load(std::memory_order_acquire);
    if (p == nullptr) {
      T* fresh = new T();
      // Only this thread writes this slot, but CAS keeps the invariant
      // checkable and the failure path leak-free.
      if (cell.compare_exchange_strong(p, fresh,
                                       std::memory_order_acq_rel)) {
        p = fresh;
      } else {
        delete fresh;
      }
    }
    return *p;
  }

  /// Calls `fn(slot)` once for every slot created so far, in slot
  /// order. Call it only between batches — e.g. to fold per-worker
  /// partial results after ParallelFor returned — never while a batch
  /// still writes the slots: ParallelFor's completion is what orders
  /// the workers' writes before this read. The one exception is an
  /// `fn` that reads nothing but WorkerTally fields: that may run at
  /// any time, and sees each tally as of some recent Add.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (auto& slot : slots_) {
      T* p = slot.load(std::memory_order_acquire);
      if (p != nullptr) fn(*p);
    }
  }

 private:
  mutable std::array<std::atomic<T*>, kMaxExecutorWorkers + 1> slots_{};
};

/// A count kept in a WorkerLocal slot, for work tallies that never feed
/// a result. Only the thread that owns the slot adds to it, so Add is a
/// relaxed load and store instead of a locked read-modify-write; keep
/// a slot's tallies together in an alignas(kCacheLineBytes) block and
/// the line stays with its owner's core. Any thread may read a tally at
/// any time. A tally of deterministic per-call work sums, over all
/// slots, to the same total at any worker count.
class WorkerTally {
 public:
  void Add(int64_t n) {
    // tt-lint: allow(relaxed-atomic): an owner-only work tally.
    const int64_t v = value_.load(std::memory_order_relaxed);
    // tt-lint: allow(relaxed-atomic): an owner-only work tally.
    value_.store(v + n, std::memory_order_relaxed);
  }
  [[nodiscard]] int64_t value() const {
    // tt-lint: allow(relaxed-atomic): an owner-only work tally.
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> value_{0};
};

}  // namespace taxitrace

#endif  // TAXITRACE_COMMON_EXECUTOR_H_
