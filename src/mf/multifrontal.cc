#include "mf/multifrontal.h"

#include <cmath>
#include <limits>
#include <span>
#include <utility>

#include "mf/front_driver.h"
#include "sparse/ops.h"
#include "support/error.h"
#include "support/timer.h"

namespace parfact {

PivotPolicy resolve_pivot_policy(PivotPolicy policy, const SparseMatrix& a) {
  if (!policy.boost) return policy;
  const real_t scale =
      std::sqrt(std::numeric_limits<real_t>::epsilon()) * max_abs(a);
  if (policy.threshold == 0.0) policy.threshold = scale;
  if (policy.value == 0.0) policy.value = policy.threshold;
  return policy;
}

CholeskyFactor multifrontal_factor(const SymbolicFactor& sym,
                                   FactorStats* stats, FactorKind kind,
                                   PivotPolicy pivot, CancelToken cancel,
                                   const AbftOptions* abft) {
  // Every front zeroes its own panel first.
  CholeskyFactor factor(sym, CholeskyFactor::Uninitialized{});
  multifrontal_refactor(sym, factor, stats, kind, pivot, std::move(cancel),
                        abft);
  return factor;
}

void multifrontal_refactor(const SymbolicFactor& sym, CholeskyFactor& factor,
                           FactorStats* stats, FactorKind kind,
                           PivotPolicy pivot, CancelToken cancel,
                           const AbftOptions* abft) {
  PARFACT_CHECK(&factor.symbolic() == &sym);
  WallTimer timer;
  std::span<real_t> d;
  if (kind == FactorKind::kLdlt) d = factor.allocate_diag();
  detail::FrontRun run(sym, kind, d, resolve_pivot_policy(pivot, sym.a),
                       abft);
  run.factor = &factor;
  detail::FrontScratch scratch(sym.n);
  detail::run_fronts(run, 0, sym.n_supernodes - 1, scratch, cancel);
  run.report(stats, timer);
}

}  // namespace parfact
