#include "mf/governed.h"

#include <sstream>
#include <utility>

namespace parfact {

const char* admission_name(Admission a) {
  switch (a) {
    case Admission::kUnlimited:
      return "unlimited";
    case Admission::kInCore:
      return "in-core";
    case Admission::kSpill:
      return "spill";
    case Admission::kRejected:
      return "rejected";
  }
  return "unknown";
}

GovernedFactorizeResult multifrontal_factorize_governed(
    const SymbolicFactor& sym, ResourceBudget& budget,
    const GovernedOptions& opts) {
  GovernedFactorizeResult result;
  result.estimate =
      estimate_working_set(sym, opts.kind == FactorKind::kLdlt);
  const WorkingSetEstimate& est = result.estimate;

  // Admission: pick the highest rung whose reservation fits. With no limit
  // the in-core reservation always succeeds (and still meters the peak).
  const bool want_parallel =
      !budget.limited() && opts.pool != nullptr && opts.pool->size() > 1;
  bool spill = false;
  if (auto r = Reservation::acquire(budget, est.peak_incore_bytes)) {
    result.reservation = std::move(*r);
    result.admission =
        budget.limited() ? Admission::kInCore : Admission::kUnlimited;
  } else if (!opts.spill_path.empty()) {
    if (auto r2 = Reservation::acquire(budget, est.peak_ooc_bytes)) {
      result.reservation = std::move(*r2);
      result.admission = Admission::kSpill;
      spill = true;
    }
  }
  if (!result.reservation.held()) {
    result.admission = Admission::kRejected;
    std::ostringstream os;
    os << "memory budget too small: estimated " << est.peak_incore_bytes
       << " bytes in-core, " << est.peak_ooc_bytes
       << " bytes with OOC spill, budget " << budget.limit_bytes()
       << " bytes (" << budget.live_bytes() << " already reserved)";
    result.status = Status::failure(StatusCode::kResourceExhausted, os.str());
    return result;
  }

  try {
    if (spill) {
      result.ooc.emplace(multifrontal_factor_ooc(
          sym, opts.spill_path, &result.stats, opts.pivot, opts.kind,
          opts.cancel, opts.abft));
      result.bytes_spilled =
          static_cast<std::size_t>(result.ooc->bytes_on_disk());
    } else if (want_parallel) {
      result.factor.emplace(multifrontal_factor_parallel(
          sym, *opts.pool, &result.stats, opts.kind, kCoopFrontFlops,
          opts.pivot, opts.cancel, opts.abft));
    } else {
      result.factor.emplace(multifrontal_factor(
          sym, &result.stats, opts.kind, opts.pivot, opts.cancel, opts.abft));
    }
    result.status = Status::success(result.stats.pivot_perturbations);
  } catch (const StatusError& e) {
    result.factor.reset();
    result.ooc.reset();
    result.reservation.reset();
    result.status = e.status();
  } catch (const Error& e) {
    result.factor.reset();
    result.ooc.reset();
    result.reservation.reset();
    result.status = Status::failure(StatusCode::kInternal, e.what());
  }
  return result;
}

}  // namespace parfact
