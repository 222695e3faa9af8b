// Structural and numerical operations on CSC matrices.
#pragma once

#include <span>
#include <vector>

#include "sparse/sparse_matrix.h"
#include "support/types.h"

namespace parfact {

/// B = Aᵀ (also converts CSC<->CSR interpretation). O(nnz + rows).
[[nodiscard]] SparseMatrix transpose(const SparseMatrix& a);

/// True iff A is structurally and numerically symmetric (|a_ij - a_ji| <=
/// tol * max(|a_ij|,|a_ji|, 1)).
[[nodiscard]] bool is_symmetric(const SparseMatrix& a, real_t tol = 0.0);

/// Extracts the lower triangle (row >= col) of a full-stored matrix.
[[nodiscard]] SparseMatrix lower_triangle(const SparseMatrix& a);

/// Expands a lower-triangle-stored symmetric matrix to full storage.
/// Off-diagonal entries are mirrored.
[[nodiscard]] SparseMatrix symmetrize_full(const SparseMatrix& lower);

/// Symmetric permutation B = P A Pᵀ where B(perm_inv[i], perm_inv[j]) =
/// A(i, j) and perm maps new index -> old index (perm_inv is its inverse).
/// Input and output are full-stored.
[[nodiscard]] SparseMatrix permute_symmetric(const SparseMatrix& a,
                                             std::span<const index_t> perm);

/// y = A x for full-stored A.
void spmv(const SparseMatrix& a, std::span<const real_t> x,
          std::span<real_t> y);

/// y = A x where A is symmetric and stored lower-only.
void spmv_symmetric_lower(const SparseMatrix& lower,
                          std::span<const real_t> x, std::span<real_t> y);

/// Infinity norm (max absolute row sum) of a full-stored matrix.
[[nodiscard]] real_t norm_inf(const SparseMatrix& a);

/// Infinity norm of the symmetric matrix stored as its lower triangle,
/// without expanding it: each row is summed in ascending column order,
/// exactly as norm_inf(symmetrize_full(lower)) sums it, so the two are
/// bitwise equal.
[[nodiscard]] real_t norm_inf_symmetric_lower(const SparseMatrix& lower);

/// Frobenius norm.
[[nodiscard]] real_t norm_frobenius(const SparseMatrix& a);

/// Largest absolute stored entry (0 for an empty matrix). Storage-convention
/// agnostic — used to scale the static-pivoting threshold.
[[nodiscard]] real_t max_abs(const SparseMatrix& a);

/// Checks that perm is a permutation of [0, n).
[[nodiscard]] bool is_permutation(std::span<const index_t> perm);

/// Inverse permutation: result[perm[i]] = i.
[[nodiscard]] std::vector<index_t> invert_permutation(
    std::span<const index_t> perm);

/// Dense-vector helpers used throughout the solve and refinement paths.
[[nodiscard]] real_t dot(std::span<const real_t> x, std::span<const real_t> y);
[[nodiscard]] real_t norm2(std::span<const real_t> x);
[[nodiscard]] real_t norm_inf(std::span<const real_t> x);
void axpy(real_t alpha, std::span<const real_t> x, std::span<real_t> y);

}  // namespace parfact
