#include "sparse/ops.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "support/error.h"

namespace parfact {

SparseMatrix transpose(const SparseMatrix& a) {
  SparseMatrix t(a.cols, a.rows);
  t.row_ind.resize(static_cast<std::size_t>(a.nnz()));
  t.values.resize(static_cast<std::size_t>(a.nnz()));
  // Column pointers of T = row counts of A.
  for (index_t p = 0; p < a.nnz(); ++p) ++t.col_ptr[a.row_ind[p] + 1];
  for (index_t i = 0; i < a.rows; ++i) t.col_ptr[i + 1] += t.col_ptr[i];
  std::vector<index_t> next(t.col_ptr.begin(), t.col_ptr.end() - 1);
  for (index_t j = 0; j < a.cols; ++j) {
    for (index_t p = a.col_ptr[j]; p < a.col_ptr[j + 1]; ++p) {
      const index_t q = next[a.row_ind[p]]++;
      t.row_ind[q] = j;
      t.values[q] = a.values[p];
    }
  }
  // Scanning A's columns in order emits each transposed column's rows in
  // increasing order, so T already satisfies the sortedness invariant.
  return t;
}

bool is_symmetric(const SparseMatrix& a, real_t tol) {
  if (a.rows != a.cols) return false;
  const SparseMatrix t = transpose(a);
  if (t.col_ptr != a.col_ptr || t.row_ind != a.row_ind) return false;
  for (std::size_t p = 0; p < a.values.size(); ++p) {
    const real_t x = a.values[p];
    const real_t y = t.values[p];
    const real_t scale = std::max({std::abs(x), std::abs(y), real_t{1}});
    if (std::abs(x - y) > tol * scale) return false;
  }
  return true;
}

SparseMatrix lower_triangle(const SparseMatrix& a) {
  PARFACT_CHECK(a.rows == a.cols);
  SparseMatrix l(a.rows, a.cols);
  for (index_t j = 0; j < a.cols; ++j) {
    for (index_t p = a.col_ptr[j]; p < a.col_ptr[j + 1]; ++p) {
      if (a.row_ind[p] >= j) {
        l.row_ind.push_back(a.row_ind[p]);
        l.values.push_back(a.values[p]);
      }
    }
    l.col_ptr[j + 1] = static_cast<index_t>(l.row_ind.size());
  }
  return l;
}

SparseMatrix symmetrize_full(const SparseMatrix& lower) {
  PARFACT_CHECK(lower.rows == lower.cols);
  TripletBuilder b(lower.rows, lower.cols);
  for (index_t j = 0; j < lower.cols; ++j) {
    for (index_t p = lower.col_ptr[j]; p < lower.col_ptr[j + 1]; ++p) {
      PARFACT_CHECK_MSG(lower.row_ind[p] >= j,
                        "matrix is not lower-triangular-stored");
      b.add_symmetric(lower.row_ind[p], j, lower.values[p]);
    }
  }
  return b.build();
}

SparseMatrix permute_symmetric(const SparseMatrix& a,
                               std::span<const index_t> perm) {
  PARFACT_CHECK(a.rows == a.cols);
  PARFACT_CHECK(static_cast<index_t>(perm.size()) == a.rows);
  const std::vector<index_t> inv = invert_permutation(perm);
  SparseMatrix b(a.rows, a.cols);
  b.row_ind.resize(static_cast<std::size_t>(a.nnz()));
  b.values.resize(static_cast<std::size_t>(a.nnz()));
  // Column new_j of B is column perm[new_j] of A with rows relabeled; count,
  // scatter, then sort rows within each column.
  for (index_t new_j = 0; new_j < a.cols; ++new_j) {
    const index_t old_j = perm[new_j];
    b.col_ptr[new_j + 1] =
        b.col_ptr[new_j] + (a.col_ptr[old_j + 1] - a.col_ptr[old_j]);
  }
  std::vector<std::pair<index_t, real_t>> col;
  for (index_t new_j = 0; new_j < a.cols; ++new_j) {
    const index_t old_j = perm[new_j];
    col.clear();
    for (index_t p = a.col_ptr[old_j]; p < a.col_ptr[old_j + 1]; ++p) {
      col.emplace_back(inv[a.row_ind[p]], a.values[p]);
    }
    std::sort(col.begin(), col.end());
    index_t q = b.col_ptr[new_j];
    for (const auto& [r, v] : col) {
      b.row_ind[q] = r;
      b.values[q] = v;
      ++q;
    }
  }
  return b;
}

void spmv(const SparseMatrix& a, std::span<const real_t> x,
          std::span<real_t> y) {
  PARFACT_CHECK(static_cast<index_t>(x.size()) == a.cols);
  PARFACT_CHECK(static_cast<index_t>(y.size()) == a.rows);
  std::fill(y.begin(), y.end(), real_t{0});
  for (index_t j = 0; j < a.cols; ++j) {
    const real_t xj = x[j];
    if (xj == 0.0) continue;
    for (index_t p = a.col_ptr[j]; p < a.col_ptr[j + 1]; ++p) {
      y[a.row_ind[p]] += a.values[p] * xj;
    }
  }
}

void spmv_symmetric_lower(const SparseMatrix& lower,
                          std::span<const real_t> x, std::span<real_t> y) {
  PARFACT_CHECK(lower.rows == lower.cols);
  PARFACT_CHECK(static_cast<index_t>(x.size()) == lower.cols);
  PARFACT_CHECK(static_cast<index_t>(y.size()) == lower.rows);
  std::fill(y.begin(), y.end(), real_t{0});
  for (index_t j = 0; j < lower.cols; ++j) {
    for (index_t p = lower.col_ptr[j]; p < lower.col_ptr[j + 1]; ++p) {
      const index_t i = lower.row_ind[p];
      const real_t v = lower.values[p];
      y[i] += v * x[j];
      if (i != j) y[j] += v * x[i];
    }
  }
}

real_t norm_inf(const SparseMatrix& a) {
  std::vector<real_t> row_sum(static_cast<std::size_t>(a.rows), 0.0);
  for (index_t p = 0; p < a.nnz(); ++p) {
    row_sum[a.row_ind[p]] += std::abs(a.values[p]);
  }
  real_t m = 0.0;
  for (real_t s : row_sum) m = std::max(m, s);
  return m;
}

real_t norm_inf_symmetric_lower(const SparseMatrix& lower) {
  PARFACT_CHECK(lower.rows == lower.cols);
  // Full row i holds a_ij (j < i) from lower column j, then a_ii, then
  // a_ji (j > i) from lower column i in ascending row order. Walking the
  // lower columns in order adds each row's terms in that same sequence.
  std::vector<real_t> row_sum(static_cast<std::size_t>(lower.rows), 0.0);
  for (index_t j = 0; j < lower.cols; ++j) {
    for (index_t p = lower.col_ptr[j]; p < lower.col_ptr[j + 1]; ++p) {
      const index_t i = lower.row_ind[p];
      PARFACT_CHECK_MSG(i >= j, "matrix is not lower-triangular-stored");
      const real_t v = std::abs(lower.values[p]);
      row_sum[i] += v;
      if (i != j) row_sum[j] += v;
    }
  }
  real_t m = 0.0;
  for (real_t s : row_sum) m = std::max(m, s);
  return m;
}

real_t norm_frobenius(const SparseMatrix& a) {
  real_t s = 0.0;
  for (real_t v : a.values) s += v * v;
  return std::sqrt(s);
}

real_t max_abs(const SparseMatrix& a) {
  real_t m = 0.0;
  for (real_t v : a.values) m = std::max(m, std::abs(v));
  return m;
}

bool is_permutation(std::span<const index_t> perm) {
  const auto n = static_cast<index_t>(perm.size());
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  for (index_t v : perm) {
    if (v < 0 || v >= n || seen[v]) return false;
    seen[v] = true;
  }
  return true;
}

std::vector<index_t> invert_permutation(std::span<const index_t> perm) {
  std::vector<index_t> inv(perm.size(), kNone);
  for (std::size_t i = 0; i < perm.size(); ++i) {
    PARFACT_CHECK_MSG(perm[i] >= 0 &&
                          perm[i] < static_cast<index_t>(perm.size()) &&
                          inv[perm[i]] == kNone,
                      "not a permutation");
    inv[perm[i]] = static_cast<index_t>(i);
  }
  return inv;
}

real_t dot(std::span<const real_t> x, std::span<const real_t> y) {
  PARFACT_CHECK(x.size() == y.size());
  real_t s = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) s += x[i] * y[i];
  return s;
}

real_t norm2(std::span<const real_t> x) { return std::sqrt(dot(x, x)); }

real_t norm_inf(std::span<const real_t> x) {
  real_t m = 0.0;
  for (real_t v : x) m = std::max(m, std::abs(v));
  return m;
}

void axpy(real_t alpha, std::span<const real_t> x, std::span<real_t> y) {
  PARFACT_CHECK(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

}  // namespace parfact
