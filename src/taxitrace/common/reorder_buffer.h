// Reorder buffer between parallel producers that finish indexed items
// in any order and a consumer that must see them in index order.
//
// This is how a parallel stage keeps memory bounded without giving up
// the executor's determinism contract: instead of holding one output
// slot per index until the join, each finished item is deposited here
// and released the moment every earlier index has landed. The buffer
// only ever holds the items that finished ahead of a slower
// predecessor, so its high-water mark tracks scheduler skew (about the
// worker count), not the number of items.

#ifndef TAXITRACE_COMMON_REORDER_BUFFER_H_
#define TAXITRACE_COMMON_REORDER_BUFFER_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <utility>

#include "taxitrace/common/status.h"

namespace taxitrace {

/// Releases items deposited under indices 0, 1, 2, ... to a consumer in
/// strictly ascending index order. Deposit is safe to call from any
/// number of threads; consumer calls are serialised under the buffer's
/// lock, so the consumer may fold into unsynchronised state, but it
/// sits on every depositor's critical path and should only move and
/// add up finished work.
template <typename T>
class ReorderBuffer {
 public:
  /// Receives each released item exactly once, in index order. A
  /// non-OK status stops all further release.
  using Consumer = std::function<Status(T item)>;

  explicit ReorderBuffer(Consumer consume) : consume_(std::move(consume)) {}

  ReorderBuffer(const ReorderBuffer&) = delete;
  ReorderBuffer& operator=(const ReorderBuffer&) = delete;

  /// Hands over the item for `index` (each index at most once) and
  /// releases the contiguous run of items now complete. Returns the
  /// consumer's error when a released item fails; from then on nothing
  /// is released again and later deposits are discarded, so an item is
  /// never delivered twice.
  Status Deposit(int64_t index, T item) {
    std::lock_guard<std::mutex> lock(mu_);
    if (failed_) return Status::OK();
    pending_.emplace(index, std::move(item));
    peak_buffered_ =
        std::max(peak_buffered_, static_cast<int64_t>(pending_.size()));
    while (!pending_.empty() && pending_.begin()->first == next_) {
      T head = std::move(pending_.begin()->second);
      pending_.erase(pending_.begin());
      const Status consumed = consume_(std::move(head));
      if (!consumed.ok()) {
        failed_ = true;
        pending_.clear();
        return consumed;
      }
      ++next_;
    }
    return Status::OK();
  }

  /// Most items ever held at once, counting the one just deposited
  /// (1 on a serial run). Depends on scheduling.
  [[nodiscard]] int64_t peak_buffered() const {
    std::lock_guard<std::mutex> lock(mu_);
    return peak_buffered_;
  }

 private:
  Consumer consume_;
  mutable std::mutex mu_;
  std::map<int64_t, T> pending_;
  int64_t next_ = 0;
  int64_t peak_buffered_ = 0;
  bool failed_ = false;
};

}  // namespace taxitrace

#endif  // TAXITRACE_COMMON_REORDER_BUFFER_H_
