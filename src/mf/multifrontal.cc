#include "mf/multifrontal.h"

#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "mf/front_kernel.h"
#include "mf/update_memory.h"
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
                                   PivotPolicy pivot, CancelToken cancel) {
  CholeskyFactor factor(sym);
  multifrontal_refactor(sym, factor, stats, kind, pivot, cancel);
  return factor;
}

void multifrontal_refactor(const SymbolicFactor& sym, CholeskyFactor& factor,
                           FactorStats* stats, FactorKind kind,
                           PivotPolicy pivot, CancelToken cancel) {
  PARFACT_CHECK(&factor.symbolic() == &sym);
  WallTimer timer;
  pivot = resolve_pivot_policy(pivot, sym.a);
  factor.reset_values();
  std::span<real_t> d;
  if (kind == FactorKind::kLdlt) d = factor.allocate_diag();
  const auto children = detail::build_children(sym);
  std::vector<std::vector<real_t>> update_of(
      static_cast<std::size_t>(sym.n_supernodes));
  detail::FrontScratch scratch(sym.n);
  detail::UpdateMemory mem;
  count_t perturbations = 0;

  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    cancel.throw_if_cancelled();
    perturbations += detail::eliminate_front(
        sym, s, update_of, children, factor.panel(s), update_of[s], scratch,
        kind, d, pivot);
    mem.add(update_of[s].size() * sizeof(real_t));
    for (index_t c : children[s]) {
      mem.sub(update_of[c].size() * sizeof(real_t));
      update_of[c] = {};
    }
  }

  if (stats != nullptr) {
    stats->seconds = timer.seconds();
    stats->flops = sym.total_flops;
    stats->peak_update_bytes = mem.peak();
    stats->pivot_perturbations = perturbations;
  }
}

}  // namespace parfact
