#include "taxitrace/obs/funnel.h"

#include "taxitrace/common/check.h"
#include "taxitrace/common/strings.h"

namespace taxitrace {
namespace obs {

FunnelStage& FunnelStage::Drop(const std::string& reason, int64_t count) {
  for (FunnelDrop& d : drops) {
    if (d.reason == reason) {
      d.count += count;
      return *this;
    }
  }
  drops.push_back(FunnelDrop{reason, count});
  return *this;
}

int64_t FunnelStage::TotalDropped() const {
  int64_t total = 0;
  for (const FunnelDrop& d : drops) total += d.count;
  return total;
}

FunnelStage& FunnelLedger::AddStage(std::string name, std::string unit,
                                    int64_t in, int64_t out) {
  TT_CHECK(Find(name) == nullptr);
  stages_.push_back(
      FunnelStage{std::move(name), std::move(unit), in, out, {}});
  return stages_.back();
}

const FunnelStage* FunnelLedger::Find(const std::string& name) const {
  for (const FunnelStage& s : stages_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

Status FunnelLedger::CheckReconciles() const {
  for (const FunnelStage& s : stages_) {
    const int64_t dropped = s.TotalDropped();
    if (s.in != s.out + dropped) {
      return Status::Internal(StrFormat(
          "funnel stage %s does not reconcile: in %lld != out %lld + "
          "dropped %lld",
          s.name.c_str(), static_cast<long long>(s.in),
          static_cast<long long>(s.out), static_cast<long long>(dropped)));
    }
  }
  return Status::OK();
}

std::string FunnelLedger::Table() const {
  std::string out = StrFormat("%-26s %-12s %10s %10s %10s\n", "stage",
                              "unit", "in", "out", "dropped");
  for (const FunnelStage& s : stages_) {
    out += StrFormat("%-26s %-12s %10lld %10lld %10lld\n", s.name.c_str(),
                     s.unit.c_str(), static_cast<long long>(s.in),
                     static_cast<long long>(s.out),
                     static_cast<long long>(s.TotalDropped()));
    for (const FunnelDrop& d : s.drops) {
      if (d.count == 0) continue;
      out += StrFormat("%-26s   - %-34s %10lld\n", "", d.reason.c_str(),
                       static_cast<long long>(d.count));
    }
  }
  return out;
}

std::string FunnelLedger::Json() const {
  std::string out = "[";
  for (size_t i = 0; i < stages_.size(); ++i) {
    const FunnelStage& s = stages_[i];
    if (i > 0) out += ",";
    out += StrFormat(
        "\n    {\"stage\": \"%s\", \"unit\": \"%s\", \"in\": %lld, "
        "\"out\": %lld, \"dropped\": {",
        s.name.c_str(), s.unit.c_str(), static_cast<long long>(s.in),
        static_cast<long long>(s.out));
    bool first = true;
    for (const FunnelDrop& d : s.drops) {
      if (!first) out += ", ";
      first = false;
      out += StrFormat("\"%s\": %lld", d.reason.c_str(),
                       static_cast<long long>(d.count));
    }
    out += "}}";
  }
  out += stages_.empty() ? "]" : "\n  ]";
  return out;
}

}  // namespace obs
}  // namespace taxitrace
