// Task-DAG multifrontal factorization engine.
//
// Emits the whole numeric factorization as one rt::TaskGraph: per supernode
// either a single fused ELIM task (small fronts — the vast majority, where
// task overhead would swamp the kernel) or an ASSEMBLE → POTRF → TRSM-slab*
// → [LDLᵀ PREP] → UPDATE-slab* pipeline (large fronts near the root, where
// tree parallelism has run out). The graph runs
// under the work-stealing scheduler with critical-path priorities derived
// from per-task flop costs, so the root chain is never starved.
//
// Determinism: identical to the serial engine bit for bit. Assembly
// extend-adds children in fixed child order inside one task; TRSM row slabs
// each run the full serial solve on their rows; Cholesky update slabs use
// dense::syrk_lower_update_slab (packed-engine pieces whose per-element
// summation order is row-partition-invariant, and fronts where that does
// not hold are never split); LDLᵀ update slabs call the serial gemm_nt
// kernel on disjoint row blocks. Pivot counts are kept per front and summed
// once at the end, so they are schedule-independent.
//
// The per-front state (tree, update stack, pivot counts, memory) is the
// serial driver's FrontRun, and the fused ELIM task is its run_front: with
// ABFT on, every front is emitted fused and runs the checked front.
//
// The builder exposes per-supernode panel-ready tags so the fused
// factor+solve driver (solve/fused.h) can hang forward-solve tasks off
// fully factored subtrees while upper fronts are still factoring.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "mf/factor.h"
#include "mf/front_driver.h"
#include "mf/multifrontal.h"
#include "runtime/task_graph.h"
#include "symbolic/symbolic_factor.h"

namespace parfact::detail {

/// Builder + shared mutable state for one DAG factorization run. Create,
/// call emit(), optionally append more tasks (phase fusion), run the graph,
/// then read the accumulated statistics. Must outlive the graph execution.
class FactorDag {
 public:
  /// `factor` must be built from `sym` (any values: every front zeroes its
  /// panel; diag allocated by the caller in LDLᵀ mode). `fuse_flops`: fronts
  /// below this flop count become single fused tasks. `n_workers`: scheduler
  /// width, used only to pick slab counts (never affects numeric results).
  /// Non-null `abft` fuses every front and runs it ABFT-checked.
  FactorDag(const SymbolicFactor& sym, CholeskyFactor& factor,
            FactorKind kind, std::span<real_t> d, PivotPolicy pivot,
            count_t fuse_flops, int n_workers,
            const AbftOptions* abft = nullptr);

  /// Emits every factorization task into `graph` in topological order
  /// (postorder over supernodes, pipeline order within a front).
  void emit(rt::TaskGraph& graph);

  /// Tags that must all complete before supernode s's panel (and, in LDLᵀ
  /// mode, its diag entries) hold final factor values. Valid after emit().
  [[nodiscard]] std::span<const rt::tag_t> panel_ready(index_t s) const {
    return panel_ready_[static_cast<std::size_t>(s)];
  }

  /// The run's shared state; report() it once the graph has run.
  [[nodiscard]] const FrontRun& run() const { return run_; }

 private:
  void emit_fused(rt::TaskGraph& graph, index_t s);
  void emit_split(rt::TaskGraph& graph, index_t s);
  [[nodiscard]] index_t slab_count(count_t flops, index_t rows) const;
  std::unique_ptr<FrontScratch> acquire_scratch();
  void release_scratch(std::unique_ptr<FrontScratch> scratch);

  const SymbolicFactor& sym_;
  CholeskyFactor& factor_;
  const count_t fuse_flops_;
  const int n_workers_;
  FrontRun run_;

  /// LDLᵀ split fronts: M = L21 D buffers, freed by the last update slab.
  std::vector<std::vector<real_t>> m_of_;
  std::vector<std::unique_ptr<std::atomic<index_t>>> m_refs_;

  /// Per-supernode completion tags: panel final / update block final.
  std::vector<std::vector<rt::tag_t>> panel_ready_;
  std::vector<std::vector<rt::tag_t>> update_done_;

  std::mutex scratch_mu_;
  std::vector<std::unique_ptr<FrontScratch>> scratch_pool_;
};

}  // namespace parfact::detail
