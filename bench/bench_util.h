// Shared helpers for the ablation and seed-stability programs. Each
// program prints its comparison table and its `Check:` lines; the
// paper's own tables and figures come from examples/full_study.

#ifndef TAXITRACE_BENCH_BENCH_UTIL_H_
#define TAXITRACE_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>

#include "taxitrace/core/pipeline.h"

namespace taxitrace {
namespace benchutil {

/// The paper-scale study, run once per process (function-local static)
/// and shared by every caller in the program. A failed study reports
/// the failure and exits with a non-zero status (no abort(), no core
/// dump — a failed study is an environment problem, not a bug to trap).
inline const core::StudyResults& FullResults() {
  static const core::StudyResults results = [] {
    std::fprintf(stderr,
                 "[bench] running the full study (7 cars, 365 days)...\n");
    core::Pipeline pipeline(core::StudyConfig::FullStudy());
    auto run = pipeline.Run();
    if (!run.ok()) {
      std::fprintf(stderr, "[bench] full study failed: %s\n",
                   run.status().ToString().c_str());
      std::exit(EXIT_FAILURE);
    }
    return std::move(run).value();
  }();
  return results;
}

}  // namespace benchutil
}  // namespace taxitrace

#endif  // TAXITRACE_BENCH_BENCH_UTIL_H_
