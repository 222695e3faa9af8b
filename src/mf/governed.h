// Budget-governed factorization: the admission-control front door of the
// multifrontal engines.
//
// Degradation ladder, decided *before* any numeric allocation from the
// symbolic working-set estimate (symbolic/working_set.h):
//
//   1. in-core  — the full factor plus the update stack fits the budget;
//                 reserve it and run the normal engine.
//   2. spill    — only the OOC resident set (update stack + one streamed
//                 panel) fits; panels go through the checksummed scratch
//                 file. Same serial postorder and kernels as in-core, so
//                 the spilled panels are bitwise identical to the in-core
//                 factor.
//   3. rejected — not even the spill resident set fits; return a diagnosed
//                 kResourceExhausted carrying estimated vs budgeted bytes.
//                 Nothing was allocated, nothing leaks.
//
// An unlimited budget short-circuits to the requested engine (parallel when
// a pool is supplied) but still meters the reservation, so peak accounting
// stays meaningful either way. A limited budget that admits in-core runs
// the *serial* engine: its postorder memory profile is exactly what was
// reserved, whereas a parallel schedule can transiently exceed it.
//
// ABFT is a property of the fronts, not a rung: with GovernedOptions::abft
// set, every rung (task DAG, serial in-core, spill) runs checked fronts.
#pragma once

#include <optional>
#include <string>

#include "mf/multifrontal.h"
#include "mf/ooc.h"
#include "support/resource.h"
#include "symbolic/working_set.h"

namespace parfact {

/// How the budget admitted (or refused) a factorization.
enum class Admission {
  kUnlimited,  ///< no budget limit; requested engine ran as-is
  kInCore,     ///< full working set reserved, normal in-core factor
  kSpill,      ///< panels spilled through the OOC scratch file
  kRejected,   ///< even the spill resident set exceeds the budget
};

/// Short stable name ("unlimited", "in-core", "spill", "rejected").
[[nodiscard]] const char* admission_name(Admission a);

struct GovernedOptions {
  FactorKind kind = FactorKind::kCholesky;
  PivotPolicy pivot = {.boost = true};
  /// Engine for the unconstrained path (ignored once a limited budget
  /// forces the serial schedule): the task-DAG engine on this pool, or the
  /// serial engine when nullptr or size 1.
  ThreadPool* pool = nullptr;
  /// Scratch-file path for the spill rung; empty disables spilling (the
  /// ladder then goes straight from in-core to rejected).
  std::string spill_path;
  CancelToken cancel;
  /// Non-null runs every front ABFT-checked, on whichever rung admits.
  const AbftOptions* abft = nullptr;
};

/// Outcome of a governed factorization. Exactly one of `factor` / `ooc` is
/// engaged on success (by `admission`); both are empty on failure. The
/// `reservation` keeps the factor's bytes charged against the budget for as
/// long as the caller holds the result (or moves the reservation out).
struct GovernedFactorizeResult {
  std::optional<CholeskyFactor> factor;
  std::optional<OocCholeskyFactor> ooc;
  FactorStats stats;
  Status status;
  Admission admission = Admission::kUnlimited;
  WorkingSetEstimate estimate;
  std::size_t bytes_spilled = 0;  ///< scratch-file bytes written (spill only)
  Reservation reservation;
};

/// Runs the ladder above against `budget`. Never throws: cancellation,
/// breakdown, corruption, and rejection all come back as Status codes.
[[nodiscard]] GovernedFactorizeResult multifrontal_factorize_governed(
    const SymbolicFactor& sym, ResourceBudget& budget,
    const GovernedOptions& opts = {});

}  // namespace parfact
