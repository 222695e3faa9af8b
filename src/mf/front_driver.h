// Internal: the one multifrontal front loop.
//
// Every serial factorization is run_fronts over a contiguous postorder
// range [lo, hi]: the in-core engine (cold and refactorize), the
// out-of-core engine, the ABFT-checked engine, ABFT's repair of a corrupt
// child subtree, and the at-rest subtree recompute. Two properties of a
// FrontRun vary per run: where panels live (the in-core factor, or the OOC
// scratch file written one panel at a time) and which front routine runs
// (eliminate_front, or the ABFT-checked front). The task-DAG engine
// (dag_factor.h) runs the same per-front step, run_front, as its fused
// ELIM task.
#pragma once

#include <atomic>
#include <optional>
#include <span>
#include <vector>

#include "mf/abft.h"
#include "mf/factor.h"
#include "mf/front_kernel.h"
#include "mf/multifrontal.h"
#include "support/timer.h"

namespace parfact {

class OocCholeskyFactor;

namespace detail {

struct FrontRun;

/// Live update-block bytes and their peak; atomic, so concurrent DAG tasks
/// account their own blocks.
class UpdateMemory {
 public:
  void add(std::size_t bytes) {
    const std::size_t now = live_.fetch_add(bytes) + bytes;
    std::size_t peak = peak_.load();
    while (now > peak && !peak_.compare_exchange_weak(peak, now)) {
    }
  }
  void sub(std::size_t bytes) { live_.fetch_sub(bytes); }
  [[nodiscard]] std::size_t peak() const { return peak_.load(); }

 private:
  std::atomic<std::size_t> live_{0};
  std::atomic<std::size_t> peak_{0};
};

/// The ABFT-checked front (abft.cc): assembles and factors one front with a
/// checksum identity after every kernel stage. A front that fails a check
/// first re-verifies its children's update blocks, re-running the subtree
/// of any corrupt child through run_fronts, then retries; after
/// max_front_attempts it throws kDataCorruption naming the front. One
/// instance serves every front of a run, also from concurrent DAG tasks:
/// per-front state is indexed by supernode, check buffers come from the
/// caller's FrontScratch, and the counters and the one-shot injection flag
/// are atomic.
class AbftFront {
 public:
  AbftFront(const SymbolicFactor& sym, const AbftOptions& options);

  /// eliminate_front's contract, checked; returns the pivots boosted.
  count_t eliminate(FrontRun& run, index_t s, MatrixView panel,
                    FrontScratch& scratch);

  /// Identities evaluated, mismatches detected, fronts re-executed.
  std::atomic<count_t> checks{0};
  std::atomic<count_t> detections{0};
  std::atomic<count_t> fronts_recomputed{0};

 private:
  [[nodiscard]] bool column_ok(real_t actual, real_t predicted,
                               real_t scale) const;
  void maybe_inject(SdcSite site, index_t s, MatrixView panel,
                    MatrixView update);
  [[nodiscard]] bool check_assembly(const FrontRun& run, index_t s,
                                    ConstMatrixView panel, CheckScratch& cs);
  [[nodiscard]] bool check_stages(const FrontRun& run, index_t s,
                                  ConstMatrixView l11, ConstMatrixView l21,
                                  ConstMatrixView m, count_t boosted,
                                  CheckScratch& cs);
  void repair_children(FrontRun& run, index_t s, FrontScratch& scratch);

  const SymbolicFactor& sym_;
  const AbftOptions options_;
  std::vector<ColSums> carried_;  ///< predicted update-block sums + scales
  std::atomic<bool> injection_fired_{false};
};

/// One factorization run's state, shared by all of its fronts.
struct FrontRun {
  /// Non-null `abft` runs every front ABFT-checked.
  FrontRun(const SymbolicFactor& sym, FactorKind kind, std::span<real_t> d,
           PivotPolicy pivot, const AbftOptions* abft = nullptr);

  const SymbolicFactor& sym;
  const FactorKind kind;
  const std::span<real_t> d;  ///< LDLᵀ diagonal (empty for Cholesky)
  const PivotPolicy pivot;
  /// Where panels live: the in-core factor, or, when `ooc` is set, the
  /// scratch file, written one panel at a time by run_fronts.
  CholeskyFactor* factor = nullptr;
  OocCholeskyFactor* ooc = nullptr;
  std::optional<AbftFront> checked;  ///< the front routine when ABFT is on
  const std::vector<std::vector<index_t>> children;
  const std::vector<index_t> first;  ///< subtree of s is [first[s], s]
  std::vector<std::vector<real_t>> update_of;  ///< the update stack
  /// Pivots boosted per front. A recomputed front overwrites its own
  /// entry, so the sum never counts a front twice.
  std::vector<count_t> boosted_of;
  UpdateMemory mem;

  /// Front s's assembly has consumed its children: s's update block is
  /// live, the children's are freed.
  void consume_children(index_t s);
  /// Fills `stats` (when non-null): seconds from `timer`, flops, peak
  /// update bytes, the summed pivot count, and the ABFT counters.
  void report(FactorStats* stats, const WallTimer& timer) const;
};

/// Zeroes `panel` and runs front s into it with the run's front routine,
/// then consume_children(s). A repair re-runs fronts whose update block is
/// still live; the block is regenerated in place.
void run_front(FrontRun& run, index_t s, MatrixView panel,
               FrontScratch& scratch);

/// The serial driver: run_front over the postorder range [lo, hi], each
/// into the in-core factor's panel, or into one buffer streamed to the OOC
/// scratch file after the front. Polls `cancel` once per front.
void run_fronts(FrontRun& run, index_t lo, index_t hi, FrontScratch& scratch,
                const CancelToken& cancel = {});

}  // namespace detail
}  // namespace parfact
