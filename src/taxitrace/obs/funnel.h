// The funnel ledger: the paper's headline claim is a funnel — ~30k raw
// trips shrink stage by stage (repair -> segmentation -> filters -> OD
// selection -> matching) before any statistic is trusted — and this
// ledger makes that funnel a first-class, reconciled record instead of
// counters scattered across stage reports.
//
// Every stage reports items in, items out and items dropped by reason,
// all in one unit (points, rows, trips, segments or transitions), and
// must reconcile exactly: in == out + sum(drops). CheckReconciles()
// enforces that, and the determinism tests assert the ledger is
// byte-identical at any worker count (every count is merged in index
// order upstream, like the cleaning report's own counters).

#ifndef TAXITRACE_OBS_FUNNEL_H_
#define TAXITRACE_OBS_FUNNEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "taxitrace/common/status.h"

namespace taxitrace {
namespace obs {

/// One drop reason within a stage.
struct FunnelDrop {
  std::string reason;
  int64_t count = 0;
  friend bool operator==(const FunnelDrop&, const FunnelDrop&) = default;
};

/// One stage of the funnel. `unit` names what is being counted so
/// stages with different units (points vs trips vs segments) are never
/// compared against each other by accident.
struct FunnelStage {
  std::string name;
  std::string unit;
  int64_t in = 0;
  int64_t out = 0;
  std::vector<FunnelDrop> drops;  ///< In report order.

  /// Accumulates `count` into the drop entry for `reason` (created on
  /// first use, preserving report order). Returns this stage, so drops
  /// chain.
  FunnelStage& Drop(const std::string& reason, int64_t count);

  [[nodiscard]] int64_t TotalDropped() const;

  friend bool operator==(const FunnelStage&, const FunnelStage&) = default;
};

/// Ordered list of funnel stages for one study run.
class FunnelLedger {
 public:
  /// Appends a stage with its in and out counts and returns it for the
  /// drops. Stage names must be unique (TT_CHECK'd).
  FunnelStage& AddStage(std::string name, std::string unit, int64_t in = 0,
                        int64_t out = 0);

  /// The stage named `name`, or nullptr.
  [[nodiscard]] const FunnelStage* Find(const std::string& name) const;

  [[nodiscard]] const std::vector<FunnelStage>& stages() const {
    return stages_;
  }
  [[nodiscard]] bool empty() const { return stages_.empty(); }

  /// OK when every stage satisfies in == out + sum(drops); otherwise
  /// the first violating stage, with its counts.
  [[nodiscard]] Status CheckReconciles() const;

  /// Text table: stage, unit, in, out, dropped, and per-reason drops.
  [[nodiscard]] std::string Table() const;

  /// JSON array of stage objects.
  [[nodiscard]] std::string Json() const;

  friend bool operator==(const FunnelLedger&, const FunnelLedger&) = default;

 private:
  std::vector<FunnelStage> stages_;
};

}  // namespace obs
}  // namespace taxitrace

#endif  // TAXITRACE_OBS_FUNNEL_H_
