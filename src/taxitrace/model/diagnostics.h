// Residual diagnostics for the fitted mixed model: normality of the
// within-cell residuals and variance stability across fitted values —
// the model-checking companion to the Fig. 7 intercept QQ plot.
//
// tt-lint: allow-file(test-only-module): the model-fit diagnostics are
// the planned run output for "how good is the answer?"; until a run
// reports them, only their tests call them.

#ifndef TAXITRACE_MODEL_DIAGNOSTICS_H_
#define TAXITRACE_MODEL_DIAGNOSTICS_H_

#include <cstddef>
#include <vector>

#include "taxitrace/common/result.h"
#include "taxitrace/model/one_way_reml.h"

namespace taxitrace {
namespace model {

/// One fitted-value bucket of the spread check.
struct ResidualBucket {
  double fitted_mean = 0.0;
  double residual_sd = 0.0;
  int64_t n = 0;
};

/// Residual diagnostics of a one-way fit.
struct ResidualDiagnostics {
  int64_t n = 0;
  /// QQ correlation of the residuals against the normal (≈1 when the
  /// Gaussian error assumption holds).
  double qq_correlation = 0.0;
  /// Residual sd overall.
  double residual_sd = 0.0;
  /// Buckets by fitted value, ascending.
  std::vector<ResidualBucket> buckets;
  /// max bucket sd / min bucket sd (≈1 under homoscedasticity).
  double heteroscedasticity_ratio = 0.0;
};

/// Computes diagnostics from the raw observations that produced `fit`.
/// `groups[i]` is the group index of observation `y[i]` (the same
/// indices given to OneWayReml::Add). Fails on size mismatch or fewer
/// than 3 * num_buckets observations.
Result<ResidualDiagnostics> DiagnoseResiduals(
    const std::vector<double>& y, const std::vector<size_t>& groups,
    const OneWayRemlFit& fit, int num_buckets = 5);

}  // namespace model
}  // namespace taxitrace

#endif  // TAXITRACE_MODEL_DIAGNOSTICS_H_
