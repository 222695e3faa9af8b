#include "solve/solve.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "dense/kernels.h"
#include "solve/solve_internal.h"
#include "sparse/ops.h"
#include "support/error.h"
#include "support/thread_pool.h"

namespace parfact {
namespace detail {

/// Forward-solves supernode s's panel rows for the current RHS block:
/// pulls pending descendant updates from the arena (ascending source
/// order — the exact per-element addition sequence of the serial postorder
/// push), runs the panel TRSM, then deposits this supernode's own update
/// −L21·x1 into its arena slice for its ancestors to pull. All writes are
/// to rows this supernode owns, so the tree partition never races.
void forward_supernode(const CholeskyFactor& factor,
                       const SolveSchedule& sched, SolveWorkspace& ws,
                       MatrixView x, index_t s) {
  const SymbolicFactor& sym = *sched.sym;
  const index_t p = sym.sn_cols(s);
  const index_t b = sym.sn_below(s);
  const index_t first = sym.sn_start[s];
  const index_t w = x.cols;
  MatrixView x1 = x.block(first, 0, p, w);
  for (index_t k = sched.in_ptr[s]; k < sched.in_ptr[s + 1]; ++k) {
    const SolveSchedule::Incoming& inc = sched.in[k];
    const index_t bs = sym.sn_below(inc.src);
    const index_t off = sym.sn_row_ptr[inc.src];
    const real_t* u =
        ws.arena.data() + static_cast<std::size_t>(off) * w;
    for (index_t c = 0; c < w; ++c) {
      const real_t* uc = u + static_cast<std::size_t>(c) * bs;
      for (index_t g = inc.lo; g < inc.hi; ++g) {
        x1.at(sym.sn_rows[g] - first, c) += uc[g - off];
      }
    }
  }
  const ConstMatrixView panel = factor.panel(s);
  trsm_left_lower(panel.block(0, 0, p, p), x1);
  if (b == 0) return;
  real_t* us =
      ws.arena.data() + static_cast<std::size_t>(sym.sn_row_ptr[s]) * w;
  std::fill(us, us + static_cast<std::size_t>(b) * w, 0.0);
  MatrixView t{us, b, w, b};
  gemm_nn_update(t, panel.block(p, 0, b, p), x1);  // t = -L21 x1
}

/// Backward-solves supernode s's panel rows: gathers x at the below rows
/// (already solved — they belong to ancestors) via the precomputed
/// memcpy runs into this supernode's arena slice, applies −L21ᵀ, and runs
/// the transposed panel TRSM.
void backward_supernode(const CholeskyFactor& factor,
                        const SolveSchedule& sched, SolveWorkspace& ws,
                        MatrixView x, index_t s) {
  const SymbolicFactor& sym = *sched.sym;
  const index_t p = sym.sn_cols(s);
  const index_t b = sym.sn_below(s);
  const index_t w = x.cols;
  const ConstMatrixView panel = factor.panel(s);
  MatrixView x1 = x.block(sym.sn_start[s], 0, p, w);
  if (b > 0) {
    real_t* buf =
        ws.arena.data() + static_cast<std::size_t>(sym.sn_row_ptr[s]) * w;
    for (index_t c = 0; c < w; ++c) {
      real_t* tc = buf + static_cast<std::size_t>(c) * b;
      for (index_t k = sched.run_ptr[s]; k < sched.run_ptr[s + 1]; ++k) {
        const SolveSchedule::Run& run = sched.runs[k];
        std::memcpy(tc + run.dst, &x.at(run.row, c),
                    static_cast<std::size_t>(run.len) * sizeof(real_t));
      }
    }
    gemm_tn_update(x1, panel.block(p, 0, b, p),
                   ConstMatrixView{buf, b, w, b});  // x1 -= L21ᵀ t
  }
  trsm_left_lower_trans(panel.block(0, 0, p, p), x1);
}

}  // namespace detail

namespace {

using detail::backward_supernode;
using detail::forward_supernode;

/// One forward sweep over a single RHS block. Parallel path: independent
/// subtrees as tasks, then top-of-tree levels ascending (children before
/// parents). parallel_for is a barrier, so every pull source is complete
/// before its consumer runs.
void forward_sweep(const CholeskyFactor& factor, const SolveSchedule& sched,
                   SolveWorkspace& ws, MatrixView x, ThreadPool* pool) {
  const index_t ns = sched.sym->n_supernodes;
  if (pool == nullptr || pool->size() <= 1) {
    for (index_t s = 0; s < ns; ++s) {
      forward_supernode(factor, sched, ws, x, s);
    }
    return;
  }
  parallel_for(*pool, 0, sched.n_tasks(), [&](index_t t) {
    for (index_t s = sched.task_first[t]; s <= sched.task_root[t]; ++s) {
      forward_supernode(factor, sched, ws, x, s);
    }
  });
  for (index_t l = 0; l < sched.n_levels(); ++l) {
    parallel_for(*pool, sched.level_ptr[l], sched.level_ptr[l + 1],
                 [&](index_t i) {
                   forward_supernode(factor, sched, ws, x, sched.level_sn[i]);
                 });
  }
}

/// One backward sweep over a single RHS block: levels descending (parents
/// before children), then the subtree tasks.
void backward_sweep(const CholeskyFactor& factor, const SolveSchedule& sched,
                    SolveWorkspace& ws, MatrixView x, ThreadPool* pool) {
  const index_t ns = sched.sym->n_supernodes;
  if (pool == nullptr || pool->size() <= 1) {
    for (index_t s = ns - 1; s >= 0; --s) {
      backward_supernode(factor, sched, ws, x, s);
    }
    return;
  }
  for (index_t l = sched.n_levels() - 1; l >= 0; --l) {
    parallel_for(*pool, sched.level_ptr[l], sched.level_ptr[l + 1],
                 [&](index_t i) {
                   backward_supernode(factor, sched, ws, x, sched.level_sn[i]);
                 });
  }
  parallel_for(*pool, 0, sched.n_tasks(), [&](index_t t) {
    for (index_t s = sched.task_root[t]; s >= sched.task_first[t]; --s) {
      backward_supernode(factor, sched, ws, x, s);
    }
  });
}

void check_engine_args(const CholeskyFactor& factor,
                       const SolveSchedule& sched, ConstMatrixView x) {
  const SymbolicFactor& sym = factor.symbolic();
  PARFACT_CHECK(x.rows == sym.n);
  PARFACT_CHECK_MSG(sched.sym == &sym,
                    "SolveSchedule built for a different SymbolicFactor");
}

void diagonal_solve_block(const CholeskyFactor& factor, MatrixView x) {
  const std::span<const real_t> d = factor.diag();
  for (index_t c = 0; c < x.cols; ++c) {
    for (index_t i = 0; i < x.rows; ++i) x.at(i, c) /= d[i];
  }
}

}  // namespace

void forward_solve(const CholeskyFactor& factor, MatrixView x,
                   const SolveSchedule& schedule, SolveWorkspace& workspace,
                   ThreadPool* pool) {
  check_engine_args(factor, schedule, x);
  for (index_t c0 = 0; c0 < x.cols; c0 += schedule.rhs_block) {
    const index_t w = std::min(schedule.rhs_block, x.cols - c0);
    workspace.ensure(schedule, w);
    forward_sweep(factor, schedule, workspace, x.block(0, c0, x.rows, w),
                  pool);
  }
}

void backward_solve(const CholeskyFactor& factor, MatrixView x,
                    const SolveSchedule& schedule, SolveWorkspace& workspace,
                    ThreadPool* pool) {
  check_engine_args(factor, schedule, x);
  for (index_t c0 = 0; c0 < x.cols; c0 += schedule.rhs_block) {
    const index_t w = std::min(schedule.rhs_block, x.cols - c0);
    workspace.ensure(schedule, w);
    backward_sweep(factor, schedule, workspace, x.block(0, c0, x.rows, w),
                   pool);
  }
}

void diagonal_solve(const CholeskyFactor& factor, MatrixView x) {
  if (!factor.is_ldlt()) return;
  diagonal_solve_block(factor, x);
}

void solve_in_place(const CholeskyFactor& factor, MatrixView x,
                    const SolveSchedule& schedule, SolveWorkspace& workspace,
                    ThreadPool* pool) {
  check_engine_args(factor, schedule, x);
  // Full forward/diagonal/backward per RHS block: each factor panel is
  // streamed exactly once per block in each sweep.
  for (index_t c0 = 0; c0 < x.cols; c0 += schedule.rhs_block) {
    const index_t w = std::min(schedule.rhs_block, x.cols - c0);
    workspace.ensure(schedule, w);
    MatrixView xb = x.block(0, c0, x.rows, w);
    forward_sweep(factor, schedule, workspace, xb, pool);
    if (factor.is_ldlt()) diagonal_solve_block(factor, xb);
    backward_sweep(factor, schedule, workspace, xb, pool);
  }
}

void forward_solve(const CholeskyFactor& factor, MatrixView x) {
  SolveScheduleOptions opts;
  opts.rhs_block = std::max<index_t>(x.cols, 1);
  SolveSchedule schedule(factor.symbolic(), opts);
  SolveWorkspace workspace;
  forward_solve(factor, x, schedule, workspace, nullptr);
}

void backward_solve(const CholeskyFactor& factor, MatrixView x) {
  SolveScheduleOptions opts;
  opts.rhs_block = std::max<index_t>(x.cols, 1);
  SolveSchedule schedule(factor.symbolic(), opts);
  SolveWorkspace workspace;
  backward_solve(factor, x, schedule, workspace, nullptr);
}

void solve_in_place(const CholeskyFactor& factor, MatrixView x) {
  SolveScheduleOptions opts;
  opts.rhs_block = std::max<index_t>(x.cols, 1);
  SolveSchedule schedule(factor.symbolic(), opts);
  SolveWorkspace workspace;
  solve_in_place(factor, x, schedule, workspace, nullptr);
}

real_t relative_residual(const SparseMatrix& lower_a,
                         std::span<const real_t> x,
                         std::span<const real_t> b) {
  PARFACT_CHECK(static_cast<index_t>(x.size()) == lower_a.rows);
  PARFACT_CHECK(x.size() == b.size());
  std::vector<real_t> r(x.size());
  spmv_symmetric_lower(lower_a, x, r);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
  const real_t denom = norm_inf_symmetric_lower(lower_a) *
                           norm_inf(std::span<const real_t>(x)) +
                       norm_inf(b);
  const real_t num = norm_inf(std::span<const real_t>(r));
  return denom > 0.0 ? num / denom : num;
}

RefinementResult iterative_refinement(const SparseMatrix& lower_a,
                                      const CholeskyFactor& factor,
                                      std::span<const real_t> b,
                                      std::span<real_t> x,
                                      const SolveSchedule& schedule,
                                      SolveWorkspace& workspace,
                                      ThreadPool* pool, int max_iterations,
                                      real_t tol) {
  const index_t n = lower_a.rows;
  PARFACT_CHECK(static_cast<index_t>(x.size()) == n);
  PARFACT_CHECK(x.size() == b.size());
  RefinementResult result;
  std::vector<real_t> r(static_cast<std::size_t>(n));
  // ‖A‖ and ‖b‖ are loop invariants; each iteration costs one SpMV whose
  // residual r = b − A x serves both the convergence test and, when the
  // test fails, the correction right-hand side.
  const real_t anorm = norm_inf_symmetric_lower(lower_a);
  const real_t bnorm = norm_inf(b);
  auto residual_now = [&]() -> real_t {
    spmv_symmetric_lower(lower_a, x, r);
    for (index_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
    const real_t denom =
        anorm * norm_inf(std::span<const real_t>(x.data(), x.size())) + bnorm;
    const real_t num = norm_inf(std::span<const real_t>(r));
    return denom > 0.0 ? num / denom : num;
  };
  for (result.iterations = 0; result.iterations < max_iterations;
       ++result.iterations) {
    result.residual = residual_now();
    if (result.residual <= tol) return result;
    // r already holds b - A x: solve A d = r, x += d.
    solve_in_place(factor, MatrixView{r.data(), n, 1, n}, schedule, workspace,
                   pool);
    for (index_t i = 0; i < n; ++i) x[i] += r[i];
  }
  result.residual = residual_now();
  return result;
}

RefinementResult iterative_refinement(const SparseMatrix& lower_a,
                                      const CholeskyFactor& factor,
                                      std::span<const real_t> b,
                                      std::span<real_t> x, int max_iterations,
                                      real_t tol) {
  SolveSchedule schedule(factor.symbolic());
  SolveWorkspace workspace;
  return iterative_refinement(lower_a, factor, b, x, schedule, workspace,
                              nullptr, max_iterations, tol);
}

real_t refine_block(const SparseMatrix& lower_a, const CholeskyFactor& factor,
                    ConstMatrixView b, MatrixView x,
                    const SolveSchedule& schedule, SolveWorkspace& workspace,
                    ThreadPool* pool, int passes) {
  const index_t n = lower_a.rows;
  PARFACT_CHECK(b.rows == n && x.rows == n && b.cols == x.cols);
  const index_t nrhs = x.cols;
  const real_t anorm = norm_inf_symmetric_lower(lower_a);
  std::vector<real_t> r(static_cast<std::size_t>(n) * nrhs);
  MatrixView rv{r.data(), n, nrhs, n};
  // One SpMV per column per pass, the columns split into one contiguous
  // range per task. Columns may be strided views, so each task stages its
  // column through its own pair of contiguous buffers; every column is
  // computed whole by one task, so the result does not depend on the split.
  const index_t tasks =
      pool != nullptr && pool->size() > 1
          ? std::min<index_t>(nrhs, static_cast<index_t>(pool->size()))
          : 1;
  std::vector<std::vector<real_t>> staging(
      static_cast<std::size_t>(tasks),
      std::vector<real_t>(2 * static_cast<std::size_t>(n)));
  auto residual_columns = [&](index_t t) {
    const std::span<real_t> xc(staging[t].data(), static_cast<std::size_t>(n));
    const std::span<real_t> rc(staging[t].data() + n,
                               static_cast<std::size_t>(n));
    for (index_t c = t * nrhs / tasks; c < (t + 1) * nrhs / tasks; ++c) {
      for (index_t i = 0; i < n; ++i) xc[i] = x.at(i, c);
      spmv_symmetric_lower(lower_a, xc, rc);
      for (index_t i = 0; i < n; ++i) rv.at(i, c) = b.at(i, c) - rc[i];
    }
  };
  auto residuals_into_rv = [&]() {
    if (tasks == 1) {
      residual_columns(0);
    } else {
      parallel_for(*pool, 0, tasks, residual_columns);
    }
  };
  for (int pass = 0; pass < passes; ++pass) {
    residuals_into_rv();
    solve_in_place(factor, rv, schedule, workspace, pool);
    for (index_t c = 0; c < nrhs; ++c) {
      for (index_t i = 0; i < n; ++i) x.at(i, c) += rv.at(i, c);
    }
  }
  residuals_into_rv();
  real_t worst = 0.0;
  for (index_t c = 0; c < nrhs; ++c) {
    real_t xmax = 0.0, bmax = 0.0, rmax = 0.0;
    for (index_t i = 0; i < n; ++i) {
      xmax = std::max(xmax, std::abs(x.at(i, c)));
      bmax = std::max(bmax, std::abs(b.at(i, c)));
      rmax = std::max(rmax, std::abs(rv.at(i, c)));
    }
    const real_t denom = anorm * xmax + bmax;
    worst = std::max(worst, denom > 0.0 ? rmax / denom : rmax);
  }
  return worst;
}

}  // namespace parfact
