#include "taxitrace/common/executor.h"

// tt-lint: allow-file(relaxed-atomic): the relaxed RMWs here are the
// work-claiming counter (each index claimed exactly once, results land
// in per-index slots) and load-stat tallies exported for obs metrics;
// neither can change StudyResults at any worker count.

#include <algorithm>
#include <cerrno>
#include <cstdlib>

#include "taxitrace/common/check.h"

namespace taxitrace {
namespace {

// The calling thread's pool-worker index; -1 on every thread that is
// not an executor worker. Set once per worker thread at pool startup.
thread_local int t_worker_index = -1;

}  // namespace

int Executor::CurrentWorkerIndex() { return t_worker_index; }

namespace {

// Shared state of one ParallelFor batch. Workers claim indices from
// `next`; the submitting thread waits on `done_cv` until `remaining`
// drains. The mutex orders every worker's writes (including the
// caller-owned output slots the worker functions fill) before the
// caller's wake-up, which is what makes the merge step race-free.
struct LoopState {
  std::atomic<int64_t> next;
  int64_t end = 0;
  const std::function<Status(int64_t)>* fn = nullptr;

  std::mutex mu;
  std::condition_variable done_cv;
  int64_t remaining = 0;      // indices not yet finished
  int64_t error_index = -1;   // lowest failing index so far
  Status error;

  // Returns how many indices this claim loop executed, so the worker
  // can attribute them to itself in the executor's load stats.
  int64_t RunOneClaimLoop() {
    int64_t claimed = 0;
    for (;;) {
      const int64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= end) return claimed;
      ++claimed;
      Status st = (*fn)(i);
      std::lock_guard<std::mutex> lock(mu);
      if (!st.ok() && (error_index < 0 || i < error_index)) {
        error_index = i;
        error = std::move(st);
      }
      if (--remaining == 0) done_cv.notify_all();
    }
  }
};

}  // namespace

Executor::Executor(int num_threads) {
  if (num_threads < 0) num_threads = 0;
  TT_CHECK_MSG(num_threads <= kMaxExecutorWorkers,
               "executor pool larger than kMaxExecutorWorkers");
  if (num_threads > 0) {
    worker_items_ = std::make_unique<std::atomic<int64_t>[]>(
        static_cast<size_t>(num_threads));
    for (int t = 0; t < num_threads; ++t) {
      worker_items_[static_cast<size_t>(t)].store(
          0, std::memory_order_relaxed);
    }
  }
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    workers_.emplace_back(
        [this, t] { WorkerLoop(static_cast<size_t>(t)); });
  }
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void Executor::WorkerLoop(size_t worker_index) {
  t_worker_index = static_cast<int>(worker_index);
  for (;;) {
    QueuedJob job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    // One now() per dequeued batch job (at most one job per worker per
    // batch), charged as the time the job sat queued.
    queue_wait_ns_.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - job.enqueued)
            .count(),
        std::memory_order_relaxed);
    const int64_t items = job.fn();
    worker_items_[worker_index].fetch_add(items,
                                          std::memory_order_relaxed);
  }
}

Status Executor::ParallelFor(
    int64_t begin, int64_t end,
    const std::function<Status(int64_t)>& fn) const {
  if (begin >= end) return Status::OK();
  batches_.fetch_add(1, std::memory_order_relaxed);

  if (workers_.empty()) {
    // Serial fallback: same index order, same error contract.
    serial_items_.fetch_add(end - begin, std::memory_order_relaxed);
    int64_t error_index = -1;
    Status error;
    for (int64_t i = begin; i < end; ++i) {
      Status st = fn(i);
      if (!st.ok() && error_index < 0) {
        error_index = i;
        error = std::move(st);
      }
    }
    return error_index < 0 ? Status::OK() : error;
  }

  auto state = std::make_shared<LoopState>();
  state->next.store(begin, std::memory_order_relaxed);
  state->end = end;
  state->fn = &fn;
  state->remaining = end - begin;

  // One claim-loop job per worker is enough: each keeps pulling indices
  // until the range drains, so idle workers never wait on busy ones.
  const int64_t jobs = std::min<int64_t>(
      static_cast<int64_t>(workers_.size()), end - begin);
  {
    const auto enqueued = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    for (int64_t j = 0; j < jobs; ++j) {
      queue_.push_back(QueuedJob{
          [state] { return state->RunOneClaimLoop(); }, enqueued});
    }
  }
  work_cv_.notify_all();

  std::unique_lock<std::mutex> lock(state->mu);
  state->done_cv.wait(lock, [&state] { return state->remaining == 0; });
  return state->error_index < 0 ? Status::OK() : state->error;
}

int Executor::ResolveThreadCount(int requested) {
  if (requested >= 0) return requested;
  if (const char* env = std::getenv("TAXITRACE_THREADS");
      env != nullptr && *env != '\0') {
    errno = 0;
    char* parse_end = nullptr;
    const long value = std::strtol(env, &parse_end, 10);
    if (errno == 0 && parse_end != nullptr && *parse_end == '\0' &&
        value >= 0 && value <= kMaxExecutorWorkers) {
      return static_cast<int>(value);
    }
    // Malformed values, and counts above the pool cap, fall through to
    // the hardware default.
  }
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) return 1;
  return static_cast<int>(
      std::min(hw, static_cast<unsigned>(kMaxExecutorWorkers)));
}

const Executor& Executor::Serial() {
  static const Executor serial(0);
  return serial;
}

ExecutorStats Executor::stats() const {
  ExecutorStats s;
  s.batches = batches_.load(std::memory_order_relaxed);
  s.serial_items = serial_items_.load(std::memory_order_relaxed);
  s.items_per_worker.reserve(workers_.size());
  for (size_t t = 0; t < workers_.size(); ++t) {
    s.items_per_worker.push_back(
        worker_items_[t].load(std::memory_order_relaxed));
  }
  s.queue_wait_ms =
      static_cast<double>(queue_wait_ns_.load(std::memory_order_relaxed)) /
      1e6;
  return s;
}

}  // namespace taxitrace
