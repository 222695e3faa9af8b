// Tests for the LDLᵀ (symmetric indefinite) path and condition estimation.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "api/solver.h"
#include "dist/dist_factor.h"
#include "dist/dist_solve.h"
#include "dense/kernels.h"
#include "mf/multifrontal.h"
#include "solve/condest.h"
#include "solve/solve.h"
#include "sparse/gen.h"
#include "sparse/ops.h"
#include "support/prng.h"

namespace parfact {
namespace {

std::vector<real_t> random_vector(index_t n, std::uint64_t seed) {
  Prng rng(seed);
  std::vector<real_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.next_real(-1, 1);
  return v;
}

TEST(DenseLdlt, ReconstructsIndefiniteMatrix) {
  // A = L D Lᵀ with mixed-sign D, built directly then refactored.
  const index_t n = 12;
  Prng rng(3);
  std::vector<real_t> lv(static_cast<std::size_t>(n) * n, 0.0);
  MatrixView l{lv.data(), n, n, n};
  std::vector<real_t> d(static_cast<std::size_t>(n));
  for (index_t j = 0; j < n; ++j) {
    l.at(j, j) = 1.0;
    d[j] = (j % 3 == 0 ? -1.0 : 1.0) * rng.next_real(0.5, 2.0);
    for (index_t i = j + 1; i < n; ++i) l.at(i, j) = rng.next_real(-0.5, 0.5);
  }
  std::vector<real_t> av(static_cast<std::size_t>(n) * n, 0.0);
  MatrixView a{av.data(), n, n, n};
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j <= i; ++j) {
      real_t s = 0.0;
      for (index_t k = 0; k <= j; ++k) s += l.at(i, k) * d[k] * l.at(j, k);
      a.at(i, j) = s;
    }
  }
  std::vector<real_t> d2(static_cast<std::size_t>(n));
  ASSERT_EQ(ldlt_lower(a, d2), kNone);
  for (index_t j = 0; j < n; ++j) {
    EXPECT_NEAR(d2[j], d[j], 1e-10);
    EXPECT_DOUBLE_EQ(a.at(j, j), 1.0);
    for (index_t i = j + 1; i < n; ++i) {
      EXPECT_NEAR(a.at(i, j), l.at(i, j), 1e-10);
    }
  }
}

TEST(DenseLdlt, DetectsZeroPivot) {
  const index_t n = 3;
  std::vector<real_t> av(9, 0.0);
  MatrixView a{av.data(), n, n, n};
  a.at(0, 0) = 1.0;
  a.at(1, 0) = 2.0;
  a.at(1, 1) = 4.0;  // Schur pivot = 4 - 2*2 = 0
  a.at(2, 2) = 1.0;
  std::vector<real_t> d(3);
  EXPECT_EQ(ldlt_lower(a, d), 1);
}

TEST(KktGenerator, IsSymmetricIndefinite) {
  const SparseMatrix a = saddle_point_kkt(40, 20, 3, 7);
  a.validate();
  EXPECT_EQ(a.rows, 60);
  EXPECT_TRUE(is_symmetric(symmetrize_full(a), 1e-15));
  // The M block has negative diagonal entries.
  EXPECT_LT(a.at(55, 55), 0.0);
  EXPECT_GT(a.at(5, 5), 0.0);
}

TEST(MultifrontalLdlt, SolvesKktSystems) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const SparseMatrix a = saddle_point_kkt(80, 40, 4, seed);
    const SymbolicFactor sym = analyze(a);
    FactorStats stats;
    const CholeskyFactor f =
        multifrontal_factor(sym, &stats, FactorKind::kLdlt);
    EXPECT_TRUE(f.is_ldlt());
    // D must carry both signs (indefinite matrix).
    int pos = 0, neg = 0;
    for (real_t dv : f.diag()) (dv > 0 ? pos : neg)++;
    EXPECT_GT(pos, 0);
    EXPECT_GT(neg, 0);

    const auto b = random_vector(sym.n, seed + 100);
    std::vector<real_t> x = b;
    solve_in_place(f, MatrixView{x.data(), sym.n, 1, sym.n});
    EXPECT_LT(relative_residual(sym.a, x, b), 1e-10) << "seed " << seed;
  }
}

TEST(MultifrontalLdlt, MatchesCholeskyOnSpdInput) {
  // On SPD input, LDLᵀ and Cholesky must produce the same solution.
  const SparseMatrix a = grid_laplacian_2d(11, 13, 5);
  const SymbolicFactor sym = analyze(a);
  const CholeskyFactor fc = multifrontal_factor(sym);
  const CholeskyFactor fl =
      multifrontal_factor(sym, nullptr, FactorKind::kLdlt);
  // All D positive and L relations: L_chol(i,j) = L_ldlt(i,j) * sqrt(d_j).
  for (real_t dv : fl.diag()) EXPECT_GT(dv, 0.0);
  const auto b = random_vector(sym.n, 9);
  std::vector<real_t> xc = b, xl = b;
  solve_in_place(fc, MatrixView{xc.data(), sym.n, 1, sym.n});
  solve_in_place(fl, MatrixView{xl.data(), sym.n, 1, sym.n});
  for (index_t i = 0; i < sym.n; ++i) EXPECT_NEAR(xc[i], xl[i], 1e-11);
}

TEST(MultifrontalLdlt, ParallelMatchesSerial) {
  const SparseMatrix a = saddle_point_kkt(100, 60, 3, 11);
  const SymbolicFactor sym = analyze(a);
  const CholeskyFactor serial =
      multifrontal_factor(sym, nullptr, FactorKind::kLdlt);
  ThreadPool pool(4);
  const CholeskyFactor par =
      multifrontal_factor_parallel(sym, pool, nullptr, FactorKind::kLdlt);
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    const ConstMatrixView ps = serial.panel(s);
    const ConstMatrixView pp = par.panel(s);
    for (index_t j = 0; j < ps.cols; ++j) {
      for (index_t i = j; i < ps.rows; ++i) {
        ASSERT_EQ(ps.at(i, j), pp.at(i, j));
      }
    }
  }
  for (std::size_t i = 0; i < serial.diag().size(); ++i) {
    ASSERT_EQ(serial.diag()[i], par.diag()[i]);
  }
}

TEST(SolverApi, LdltEndToEnd) {
  const SparseMatrix a = saddle_point_kkt(150, 70, 4, 21);
  SolverOptions opts;
  opts.factor_kind = FactorKind::kLdlt;
  Solver solver(opts);
  solver.analyze(a);
  solver.factorize();
  const auto b = random_vector(a.rows, 31);
  const auto x = solver.solve_refined(b);
  EXPECT_LT(solver.residual(x, b), 1e-12);
}

TEST(SolverApi, CholeskyRejectsKkt) {
  const SparseMatrix a = saddle_point_kkt(30, 15, 3, 5);
  Solver solver;
  solver.analyze(a);
  const Status st = solver.factorize();
  EXPECT_EQ(st.code, StatusCode::kBreakdown) << st.to_string();
  EXPECT_GE(st.failed_supernode, 0);
  EXPECT_FALSE(solver.has_factor());
}

// --- Distributed LDLᵀ ----------------------------------------------------------

TEST(DistributedLdlt, MatchesSerialAcrossRanksAndStrategies) {
  const SparseMatrix a = saddle_point_kkt(120, 60, 4, 41);
  const SymbolicFactor sym = analyze(a);
  const CholeskyFactor serial =
      multifrontal_factor(sym, nullptr, FactorKind::kLdlt);
  for (const auto& [p, strategy] :
       {std::pair{4, MappingStrategy::kSubtree2d},
        std::pair{9, MappingStrategy::kSubtree2d},
        std::pair{6, MappingStrategy::kSubtree1d}}) {
    const FrontMap map = build_front_map(sym, p, strategy, 8);
    const DistFactorResult dist =
        distributed_factor(sym, map, {}, FactorKind::kLdlt);
    EXPECT_TRUE(dist.factor.is_ldlt());
    for (std::size_t i = 0; i < serial.diag().size(); ++i) {
      ASSERT_NEAR(serial.diag()[i], dist.factor.diag()[i], 1e-9)
          << "p=" << p;
    }
    for (index_t s = 0; s < sym.n_supernodes; ++s) {
      const ConstMatrixView ps = serial.panel(s);
      const ConstMatrixView pd = dist.factor.panel(s);
      for (index_t j = 0; j < ps.cols; ++j) {
        for (index_t i = j; i < ps.rows; ++i) {
          ASSERT_NEAR(ps.at(i, j), pd.at(i, j), 1e-9) << "p=" << p;
        }
      }
    }
  }
}

TEST(DistributedLdlt, DistributedSolveMatchesSerial) {
  const SparseMatrix a = saddle_point_kkt(90, 50, 3, 43);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map = build_front_map(sym, 8, MappingStrategy::kSubtree2d, 8);
  const DistFactorResult dist =
      distributed_factor(sym, map, {}, FactorKind::kLdlt);
  const auto b = random_vector(sym.n, 47);
  std::vector<real_t> x_ref = b;
  solve_in_place(dist.factor, MatrixView{x_ref.data(), sym.n, 1, sym.n});
  const DistSolveResult ds = distributed_solve(sym, map, dist.factor, b, 1);
  for (index_t i = 0; i < sym.n; ++i) {
    ASSERT_NEAR(ds.x[i], x_ref[i], 1e-9);
  }
  EXPECT_LT(relative_residual(sym.a, ds.x, b), 1e-10);
}

// --- Condition estimation ----------------------------------------------------

TEST(CondEst, ExactOnDiagonalMatrix) {
  TripletBuilder b(4, 4);
  const real_t d[] = {4.0, 0.5, 2.0, 1.0};
  for (index_t j = 0; j < 4; ++j) b.add(j, j, d[j]);
  const SymbolicFactor sym = analyze(b.build());
  const CholeskyFactor f = multifrontal_factor(sym);
  // ||A^{-1}||_1 = 1/0.5 = 2; cond = 4 * 2 = 8.
  EXPECT_NEAR(estimate_inverse_norm1(f), 2.0, 1e-12);
  EXPECT_NEAR(estimate_condition_1(sym.a, f), 8.0, 1e-12);
}

TEST(CondEst, TracksTrueConditioning) {
  // Grid Laplacians: condition grows with grid size; the estimate must be
  // >= 1, grow with n, and stay within a sane factor of the known O(h^-2)
  // growth.
  real_t prev = 0.0;
  for (index_t g : {8, 16, 32}) {
    const SparseMatrix a = grid_laplacian_2d(g, g, 5);
    Solver solver;
    solver.analyze(a);
    solver.factorize();
    const real_t c = solver.condition_estimate();
    EXPECT_GT(c, prev);
    prev = c;
  }
  EXPECT_GT(prev, 100.0);
}

TEST(CondEst, LowerBoundsTrueNorm) {
  // On a small SPD matrix compute ||A^{-1}||_1 exactly by solving against
  // every unit vector; the estimate is a lower bound within the usual
  // factor.
  const SparseMatrix a = random_spd(30, 3, 17);
  const SymbolicFactor sym = analyze(a);
  const CholeskyFactor f = multifrontal_factor(sym);
  real_t exact = 0.0;
  for (index_t j = 0; j < sym.n; ++j) {
    std::vector<real_t> e(static_cast<std::size_t>(sym.n), 0.0);
    e[j] = 1.0;
    solve_in_place(f, MatrixView{e.data(), sym.n, 1, sym.n});
    real_t col = 0.0;
    for (real_t v : e) col += std::abs(v);
    exact = std::max(exact, col);
  }
  const real_t est = estimate_inverse_norm1(f);
  EXPECT_LE(est, exact * (1.0 + 1e-12));
  EXPECT_GE(est, exact / 5.0);
}

}  // namespace
}  // namespace parfact
