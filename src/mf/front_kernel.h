// Internal: the single-front assemble/eliminate kernel shared by the
// serial front driver (front_driver.h) and the task-DAG engine, split into
// its pipeline stages so the task-DAG engine (dag_factor.h) can schedule
// them as separate graph nodes. eliminate_front recomposes the stages and
// is bitwise identical to the historical monolithic kernel.
#pragma once

#include <cmath>
#include <span>
#include <vector>

#include "dense/matrix_view.h"
#include "mf/multifrontal.h"
#include "symbolic/symbolic_factor.h"

namespace parfact::detail {

/// Split column sums of the child update blocks consumed by assembly,
/// produced on request by assemble_front (the ABFT check's
/// consumption-time verification — the blocks are summed from the very
/// read the extend-add performs, never re-read). For child i (in fixed
/// child order) and column cj of its block, entries [4*cj+0..1] hold the
/// {value, magnitude} sums over the rows that land in the parent's panel
/// and [4*cj+2..3] the sums over the rows that land in the parent's
/// update seed; pre+suf is the block column's full lower sum.
struct AssemblySums {
  std::vector<std::vector<real_t>> per_child;
};

/// Per-column {value, magnitude} sums: an ABFT identity's two sides.
struct ColSums {
  std::vector<real_t> sum;
  std::vector<real_t> abs;
  void reset(index_t n) {
    sum.assign(static_cast<std::size_t>(n), 0.0);
    abs.assign(static_cast<std::size_t>(n), 0.0);
  }
  void add(index_t j, real_t v) {
    sum[static_cast<std::size_t>(j)] += v;
    abs[static_cast<std::size_t>(j)] += std::abs(v);
  }
};

/// The ABFT-checked front's buffers (abft.cc), reused across fronts so the
/// O(front^2) checks never allocate. Only valid within one front attempt.
struct CheckScratch {
  AssemblySums asm_sums;       ///< child split sums from the extend-add
  ColSums asm_pred;            ///< predicted lower A11 sums (A + carried)
  ColSums a11_pre;             ///< actual symmetric A11 sums (POTRF base)
  ColSums a21_pre;             ///< predicted A21 column sums (A + carried)
  ColSums u0;                  ///< predicted lower update-seed sums
  ColSums l11sums;             ///< L11 column sums after the diagonal kernel
  ColSums msums;               ///< M = A21 L11⁻ᵀ column sums after TRSM
  ColSums l21sums;             ///< L21 column sums (LDLᵀ rescale check)
  ColSums update_pred;         ///< UPDATE-identity prediction + scale
  ColSums potrf_pred;          ///< POTRF-identity prediction + scale
  ColSums trsm_pred;           ///< TRSM-identity prediction + scale
  std::vector<real_t> mstore;  ///< LDLᵀ unscaled panel M
};

/// Per-worker scratch: the global-row -> front-local-row map (entries are
/// only valid for the front currently being assembled and are reset
/// after), plus the ABFT check buffers, untouched by unchecked fronts.
struct FrontScratch {
  std::vector<index_t> local_of;
  CheckScratch check;
  explicit FrontScratch(index_t n)
      : local_of(static_cast<std::size_t>(n), kNone) {}
};

/// Stage 1 — assembly: zeroes `update_out` (resized to b x b), scatters the
/// original matrix columns of supernode s into `panel`, then extend-adds
/// the children's update blocks *in fixed child order* (the deterministic-
/// merge discipline: the summation order per element never depends on the
/// execution schedule). Children's blocks are read, not freed. The scratch
/// map is restored on every exit path.
///
/// With `sums` non-null the extend-add also records each child block's
/// split column sums (see AssemblySums); the scatter performs the same
/// cell updates in the same order, so the assembled front is bitwise
/// identical either way.
void assemble_front(const SymbolicFactor& sym, index_t s,
                    const std::vector<std::vector<real_t>>& update_of,
                    const std::vector<std::vector<index_t>>& children,
                    MatrixView panel, std::vector<real_t>& update_out,
                    FrontScratch& scratch, AssemblySums* sums = nullptr);

/// Stage 2 — diagonal-block factorization: POTRF (Cholesky) or LDLᵀ of the
/// leading p x p block of `panel`; in LDLᵀ mode writes diag(D) for this
/// supernode's columns into `d`. Returns the number of pivots boosted under
/// `pivot` (0 with boosting off). On an unrecoverable pivot throws
/// StatusError carrying StatusCode::kBreakdown with the supernode id and
/// front size.
count_t factor_front_diag(const SymbolicFactor& sym, index_t s,
                          MatrixView panel, FactorKind kind,
                          std::span<real_t> d, const PivotPolicy& pivot);

/// Stage 3b (LDLᵀ only, after the panel TRSM): copies M = L21 D out of the
/// panel into `m` (b x p column-major) and rescales the stored panel to
/// L21 = M D⁻¹. `first` is the supernode's first postordered column (the
/// offset of its pivots in `d`).
void ldlt_scale_panel(MatrixView l21, std::span<const real_t> d,
                      index_t first, std::vector<real_t>& m);

/// Assembles and partially factorizes the front of supernode s; returns the
/// number of pivots boosted by `pivot` (always 0 with boosting off).
///
/// `panel` (front_order x sn_cols, zeroed) receives the factor panel; the
/// trailing Schur complement is written into `update_out`. Children's update
/// blocks are consumed (extend-add) but not freed here. In LDLᵀ mode `d`
/// receives diag(D) for this supernode's columns and the panel holds the
/// unit-diagonal L. Breakdown behaviour is factor_front_diag's.
count_t eliminate_front(const SymbolicFactor& sym, index_t s,
                        const std::vector<std::vector<real_t>>& update_of,
                        const std::vector<std::vector<index_t>>& children,
                        MatrixView panel, std::vector<real_t>& update_out,
                        FrontScratch& scratch, FactorKind kind,
                        std::span<real_t> d, const PivotPolicy& pivot = {});

/// Child lists of the assembly tree.
[[nodiscard]] std::vector<std::vector<index_t>> build_children(
    const SymbolicFactor& sym);

/// First descendant of every supernode: the postordered subtree of s is the
/// contiguous range [first[s], s].
[[nodiscard]] std::vector<index_t> first_descendants(
    const SymbolicFactor& sym);

}  // namespace parfact::detail
