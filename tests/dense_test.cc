// Tests for the dense kernels: POTRF / TRSM / SYRK / GEMM against naive
// reference implementations, across a sweep of shapes.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "dense/kernels.h"
#include "dense/matrix_view.h"
#include "support/prng.h"

namespace parfact {
namespace {

/// Owning column-major matrix for tests.
struct Dense {
  index_t rows, cols;
  std::vector<real_t> v;
  Dense(index_t r, index_t c) : rows(r), cols(c),
      v(static_cast<std::size_t>(r) * c, 0.0) {}
  MatrixView view() { return {v.data(), rows, cols, rows}; }
  ConstMatrixView cview() const { return {v.data(), rows, cols, rows}; }
  real_t& at(index_t i, index_t j) {
    return v[static_cast<std::size_t>(j) * rows + i];
  }
  real_t at(index_t i, index_t j) const {
    return v[static_cast<std::size_t>(j) * rows + i];
  }
};

Dense random_matrix(index_t r, index_t c, std::uint64_t seed) {
  Dense d(r, c);
  Prng rng(seed);
  for (auto& x : d.v) x = rng.next_real(-1, 1);
  return d;
}

/// SPD matrix: R Rᵀ + n I for random R.
Dense random_spd_dense(index_t n, std::uint64_t seed) {
  const Dense r = random_matrix(n, n, seed);
  Dense a(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      real_t s = (i == j) ? static_cast<real_t>(n) : 0.0;
      for (index_t k = 0; k < n; ++k) s += r.at(i, k) * r.at(j, k);
      a.at(i, j) = s;
    }
  }
  return a;
}

class PotrfTest : public ::testing::TestWithParam<index_t> {};

TEST_P(PotrfTest, ReconstructsMatrix) {
  const index_t n = GetParam();
  Dense a = random_spd_dense(n, 100 + static_cast<std::uint64_t>(n));
  const Dense a0 = a;
  ASSERT_EQ(potrf_lower(a.view()), kNone);
  // Check L Lᵀ == A0 on the lower triangle.
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j <= i; ++j) {
      real_t s = 0.0;
      for (index_t k = 0; k <= j; ++k) s += a.at(i, k) * a.at(j, k);
      EXPECT_NEAR(s, a0.at(i, j), 1e-9 * n) << i << "," << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PotrfTest,
                         ::testing::Values(1, 2, 3, 7, 16, 33, 64, 65, 100,
                                           150, 260));

TEST(Potrf, DetectsNonSpd) {
  Dense a(3, 3);
  a.at(0, 0) = 1.0;
  a.at(1, 1) = -2.0;  // negative pivot at column 1
  a.at(2, 2) = 1.0;
  EXPECT_EQ(potrf_lower(a.view()), 1);
}

TEST(Potrf, DetectsNonSpdInLaterBlock) {
  // Make an SPD matrix, then poison a diagonal entry beyond the first block.
  const index_t n = 90;
  Dense a = random_spd_dense(n, 7);
  a.at(80, 80) = -1e6;
  const index_t info = potrf_lower(a.view());
  EXPECT_NE(info, kNone);
  EXPECT_GE(info, 64);  // failure is inside the second block
}

TEST(Trsm, RightLowerTransSolves) {
  const index_t n = 20, m = 13;
  Dense l = random_matrix(n, n, 5);
  for (index_t j = 0; j < n; ++j) {
    l.at(j, j) = 2.0 + std::abs(l.at(j, j));
    for (index_t i = 0; i < j; ++i) l.at(i, j) = 0.0;
  }
  const Dense b0 = random_matrix(m, n, 6);
  Dense b = b0;
  trsm_right_lower_trans(l.cview(), b.view());
  // Check B_new * Lᵀ == B0: (X Lᵀ)(i,j) = sum_{k<=j} X(i,k) L(j,k).
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      real_t s = 0.0;
      for (index_t k = 0; k <= j; ++k) s += b.at(i, k) * l.at(j, k);
      EXPECT_NEAR(s, b0.at(i, j), 1e-10);
    }
  }
}

TEST(Trsm, LeftLowerForwardAndBackwardAreInverses) {
  const index_t n = 25, rhs = 4;
  Dense l = random_matrix(n, n, 8);
  for (index_t j = 0; j < n; ++j) {
    l.at(j, j) = 1.5 + std::abs(l.at(j, j));
    for (index_t i = 0; i < j; ++i) l.at(i, j) = 0.0;
  }
  const Dense x0 = random_matrix(n, rhs, 9);
  Dense x = x0;
  trsm_left_lower(l.cview(), x.view());
  // L * x == x0.
  for (index_t c = 0; c < rhs; ++c) {
    for (index_t i = 0; i < n; ++i) {
      real_t s = 0.0;
      for (index_t k = 0; k <= i; ++k) s += l.at(i, k) * x.at(k, c);
      EXPECT_NEAR(s, x0.at(i, c), 1e-10);
    }
  }
  // Backward of forward with Lᵀ then L recovers identity behaviour:
  Dense y = x0;
  trsm_left_lower(l.cview(), y.view());
  trsm_left_lower_trans(l.cview(), y.view());
  // y == (L Lᵀ)⁻¹ x0; check L Lᵀ y == x0.
  for (index_t c = 0; c < rhs; ++c) {
    std::vector<real_t> t(static_cast<std::size_t>(n), 0.0);
    for (index_t i = 0; i < n; ++i) {
      for (index_t k = i; k < n; ++k) t[i] += l.at(k, i) * y.at(k, c);
    }
    for (index_t i = 0; i < n; ++i) {
      real_t s = 0.0;
      for (index_t k = 0; k <= i; ++k) s += l.at(i, k) * t[k];
      EXPECT_NEAR(s, x0.at(i, c), 1e-9);
    }
  }
}

struct GemmShape {
  index_t m, n, k;
};

class GemmTest : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmTest, NtMatchesReference) {
  const auto [m, n, k] = GetParam();
  Dense c = random_matrix(m, n, 11);
  const Dense c0 = c;
  const Dense a = random_matrix(m, k, 12);
  const Dense b = random_matrix(n, k, 13);
  gemm_nt_update(c.view(), a.cview(), b.cview());
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      real_t s = c0.at(i, j);
      for (index_t kk = 0; kk < k; ++kk) s -= a.at(i, kk) * b.at(j, kk);
      EXPECT_NEAR(c.at(i, j), s, 1e-11 * (k + 1));
    }
  }
}

TEST_P(GemmTest, NnMatchesReference) {
  const auto [m, n, k] = GetParam();
  Dense c = random_matrix(m, n, 21);
  const Dense c0 = c;
  const Dense a = random_matrix(m, k, 22);
  const Dense b = random_matrix(k, n, 23);
  gemm_nn_update(c.view(), a.cview(), b.cview());
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      real_t s = c0.at(i, j);
      for (index_t kk = 0; kk < k; ++kk) s -= a.at(i, kk) * b.at(kk, j);
      EXPECT_NEAR(c.at(i, j), s, 1e-11 * (k + 1));
    }
  }
}

TEST_P(GemmTest, TnMatchesReference) {
  const auto [m, n, k] = GetParam();
  Dense c = random_matrix(m, n, 31);
  const Dense c0 = c;
  const Dense a = random_matrix(k, m, 32);
  const Dense b = random_matrix(k, n, 33);
  gemm_tn_update(c.view(), a.cview(), b.cview());
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      real_t s = c0.at(i, j);
      for (index_t kk = 0; kk < k; ++kk) s -= a.at(kk, i) * b.at(kk, j);
      EXPECT_NEAR(c.at(i, j), s, 1e-11 * (k + 1));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmTest,
    ::testing::Values(GemmShape{1, 1, 1}, GemmShape{5, 3, 2},
                      GemmShape{17, 9, 33}, GemmShape{64, 64, 64},
                      GemmShape{65, 70, 130}, GemmShape{1, 40, 8},
                      GemmShape{40, 1, 8}));

// Shapes chosen to hit the packed engine's blocking edges: primes not
// divisible by MR/NR/MC/KC, exact multiples, a KC boundary straddle, and
// degenerate tall/flat panels. The small shapes above stay on the fallback
// loops; everything here goes through pack + micro-kernel dispatch.
INSTANTIATE_TEST_SUITE_P(
    EngineShapes, GemmTest,
    ::testing::Values(GemmShape{257, 263, 300}, GemmShape{96, 96, 256},
                      GemmShape{97, 101, 257}, GemmShape{8, 6, 512},
                      GemmShape{200, 5, 300}, GemmShape{7, 200, 300},
                      GemmShape{1, 1, 2048}));

TEST(Syrk, MatchesReferenceLowerOnly) {
  const index_t n = 50, k = 30;
  Dense c = random_matrix(n, n, 41);
  const Dense c0 = c;
  const Dense a = random_matrix(n, k, 42);
  syrk_lower_update(c.view(), a.cview());
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      if (j > i) {
        // Strict upper triangle untouched.
        EXPECT_EQ(c.at(i, j), c0.at(i, j));
        continue;
      }
      real_t s = c0.at(i, j);
      for (index_t kk = 0; kk < k; ++kk) s -= a.at(i, kk) * a.at(j, kk);
      EXPECT_NEAR(c.at(i, j), s, 1e-11 * (k + 1));
    }
  }
}

TEST(Syrk, EngineSizedMatchesReference) {
  // Large enough that the packed engine (gemm strip + triangular diagonal
  // tiles) handles it, with n, k off every blocking boundary.
  const index_t n = 201, k = 129;
  Dense c = random_matrix(n, n, 43);
  const Dense c0 = c;
  const Dense a = random_matrix(n, k, 44);
  syrk_lower_update(c.view(), a.cview());
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      if (j > i) {
        EXPECT_EQ(c.at(i, j), c0.at(i, j));
        continue;
      }
      real_t s = c0.at(i, j);
      for (index_t kk = 0; kk < k; ++kk) s -= a.at(i, kk) * a.at(j, kk);
      EXPECT_NEAR(c.at(i, j), s, 1e-11 * (k + 1));
    }
  }
}

TEST(Trsm, EngineSizedRightLowerTransSolves) {
  // Engages the blocked TRSM path (n > block size) with a GEMM-updated
  // left part per column block.
  const index_t n = 150, m = 300;
  Dense l = random_matrix(n, n, 45);
  for (index_t j = 0; j < n; ++j) {
    l.at(j, j) = 2.0 + std::abs(l.at(j, j));
    for (index_t i = 0; i < j; ++i) l.at(i, j) = 0.0;
  }
  const Dense b0 = random_matrix(m, n, 46);
  Dense b = b0;
  trsm_right_lower_trans(l.cview(), b.view());
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      real_t s = 0.0;
      for (index_t k = 0; k <= j; ++k) s += b.at(i, k) * l.at(j, k);
      EXPECT_NEAR(s, b0.at(i, j), 1e-9);
    }
  }
}

// --- Row slabs: must be bitwise identical to the one-call kernel -----------
//
// The engine's per-element summation order depends only on how k is cut
// into KC blocks, never on how rows are split, so the task-DAG update
// tasks' row slabs must not change a single bit of the result.

class SyrkSlabTest : public ::testing::TestWithParam<int> {};

TEST_P(SyrkSlabTest, SlabsBitwiseEqualOneCall) {
  const index_t n = 280, k = 170;
  ASSERT_TRUE(syrk_splittable(n, k));
  Dense cs = random_matrix(n, n, 64);
  Dense cp = cs;
  const Dense a = random_matrix(n, k, 65);
  syrk_lower_update(cs.view(), a.cview());
  const std::vector<index_t> bound = syrk_slab_bounds(n, GetParam());
  ASSERT_EQ(bound.size(), static_cast<std::size_t>(GetParam()) + 1);
  for (index_t t = 0; t < GetParam(); ++t) {
    syrk_lower_update_slab(cp.view(), a.cview(), bound[t], bound[t + 1]);
  }
  for (std::size_t i = 0; i < cs.v.size(); ++i) {
    ASSERT_EQ(cs.v[i], cp.v[i]) << "flat index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Slabs, SyrkSlabTest, ::testing::Values(1, 2, 5));

TEST(Views, BlockIndexing) {
  Dense d = random_matrix(6, 5, 51);
  const MatrixView v = d.view();
  const MatrixView b = v.block(2, 1, 3, 2);
  EXPECT_EQ(b.rows, 3);
  EXPECT_EQ(b.cols, 2);
  EXPECT_EQ(&b.at(0, 0), &v.at(2, 1));
  EXPECT_EQ(&b.at(2, 1), &v.at(4, 2));
  b.fill(7.0);
  EXPECT_EQ(d.at(3, 1), 7.0);
  EXPECT_NE(d.at(1, 1), 7.0);
}

TEST(Calibration, GemmRateIsPositive) {
  const double rate = measure_gemm_rate(48);
  EXPECT_GT(rate, 1e6);  // any machine does > 1 Mflop/s
}

}  // namespace
}  // namespace parfact
