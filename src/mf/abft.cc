#include "mf/abft.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "dense/kernels.h"
#include "mf/front_kernel.h"
#include "mf/update_memory.h"
#include "support/checksum.h"
#include "support/error.h"
#include "support/timer.h"

namespace parfact {
namespace {

// splitmix64: seeds the deterministic choice of the flipped element.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

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

// The colsum helpers stream one contiguous column at a time (the views are
// column-major); the checks are O(front^2) against O(front^3) kernels and
// must stay memory-bound, not stride-bound, for the overhead budget to hold.
//
// The per-element loops below are the entire ABFT cost, so they carry
// runtime ISA dispatch (GCC ifunc clones) where available: the build stays
// a portable baseline binary, but a machine with wider vectors runs the
// checks at its native width. The loops are element-wise (or fixed-lane)
// streams, so every clone performs the identical FP operations in the
// identical order — the dispatch never changes a computed sum.
#if defined(__x86_64__) && defined(__ELF__) && defined(__GNUC__) && \
    !defined(__clang__)
// 256-bit on purpose: 512-bit ops trigger license-based downclocking on
// several x86 parts, and the cycles saved in the checks would be repaid
// with interest by the surrounding kernels running at the lower clock.
#define PARFACT_ABFT_CLONES \
  __attribute__((target_clones("default", "avx2")))
#else
#define PARFACT_ABFT_CLONES
#endif

// Value + magnitude reduction over a contiguous range with eight
// independent partial accumulators: without reassociation (-ffast-math is
// off) a naive loop is a single add-latency chain at ~4 cycles per
// element; independent lanes run at load throughput (and map onto one
// 512-bit register when the ISA has it). The fixed blocking keeps the
// summation order deterministic run to run.
PARFACT_ABFT_CLONES
void sum_abs(const real_t* v, index_t n, real_t& sum_out, real_t& abs_out) {
  real_t s[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  real_t a[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  index_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int l = 0; l < 8; ++l) {
      s[l] += v[i + l];
      a[l] += std::abs(v[i + l]);
    }
  }
  for (; i < n; ++i) {
    s[0] += v[i];
    a[0] += std::abs(v[i]);
  }
  sum_out = ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
  abs_out = ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]));
}

// dst_s[i] += col[i]; dst_a[i] += |col[i]| — the symmetric-completion row
// scatter (assembly A11 read and the U' pass).
PARFACT_ABFT_CLONES
void accum_abs(real_t* dst_s, real_t* dst_a, const real_t* col, index_t n) {
  for (index_t i = 0; i < n; ++i) {
    dst_s[i] += col[i];
    dst_a[i] += std::abs(col[i]);
  }
}

// One L11 column's contribution to both triangular identities:
// p2 += w1*col, s2 += w1a*|col|, p3 += w2*col, s3 += w2a*|col|.
PARFACT_ABFT_CLONES
void accum_two_weighted(real_t* p2, real_t* s2, real_t* p3, real_t* s3,
                        const real_t* col, index_t n, real_t w1, real_t w1a,
                        real_t w2, real_t w2a) {
  for (index_t i = 0; i < n; ++i) {
    const real_t v = col[i];
    const real_t av = std::abs(v);
    p2[i] += w1 * v;
    s2[i] += w1a * av;
    p3[i] += w2 * v;
    s3[i] += w2a * av;
  }
}

// Column sums of the lower part (rows >= col) of an n x n view.
void lower_colsums(ConstMatrixView m, ColSums& out) {
  out.reset(m.cols);
  for (index_t j = 0; j < m.cols; ++j) {
    const real_t* col = m.data + static_cast<std::size_t>(j) * m.ld;
    sum_abs(col + j, m.rows - j, out.sum[static_cast<std::size_t>(j)],
            out.abs[static_cast<std::size_t>(j)]);
  }
}

// UPDATE-identity prediction on LOWER column sums. For the trailing update
// U' = U0 − L21 Mᵀ, the lower column sum obeys
//
//   lowcol_j(U') = lowcol_j(U0) − Σ_k S_j(k) M(j,k),   S_j(k) = Σ_{i≥j} L21(i,k)
//
// where S_j is the running suffix sum of L21's columns. Walking rows
// descending turns the j-dependent truncation into one running p-vector,
// so the prediction costs O(b·p) — reading L21 and M once — instead of the
// O(b²) row-scatter a symmetric-sum identity would need over U' itself.
// Columns are processed in fixed blocks of four (independent suffix chains
// hide the add latency; the order stays deterministic), and the final
// suffix values are each column's full sum, returned in `l21cols` for the
// TRSM weights / LDLᵀ rescale check.
void predict_update_lower(ConstMatrixView l21, ConstMatrixView m,
                          real_t* pred, real_t* scale, ColSums& l21cols) {
  const index_t b = l21.rows;
  const index_t p = l21.cols;
  l21cols.reset(p);
  index_t k = 0;
  for (; k + 4 <= p; k += 4) {
    const real_t* c0 = l21.data + static_cast<std::size_t>(k) * l21.ld;
    const real_t* c1 = c0 + l21.ld;
    const real_t* c2 = c1 + l21.ld;
    const real_t* c3 = c2 + l21.ld;
    const real_t* m0 = m.data + static_cast<std::size_t>(k) * m.ld;
    const real_t* m1 = m0 + m.ld;
    const real_t* m2 = m1 + m.ld;
    const real_t* m3 = m2 + m.ld;
    real_t s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    real_t a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    for (index_t j = b; j-- > 0;) {
      s0 += c0[j];
      a0 += std::abs(c0[j]);
      s1 += c1[j];
      a1 += std::abs(c1[j]);
      s2 += c2[j];
      a2 += std::abs(c2[j]);
      s3 += c3[j];
      a3 += std::abs(c3[j]);
      pred[j] -= (s0 * m0[j] + s1 * m1[j]) + (s2 * m2[j] + s3 * m3[j]);
      scale[j] += (a0 * std::abs(m0[j]) + a1 * std::abs(m1[j])) +
                  (a2 * std::abs(m2[j]) + a3 * std::abs(m3[j]));
    }
    l21cols.sum[static_cast<std::size_t>(k)] = s0;
    l21cols.abs[static_cast<std::size_t>(k)] = a0;
    l21cols.sum[static_cast<std::size_t>(k) + 1] = s1;
    l21cols.abs[static_cast<std::size_t>(k) + 1] = a1;
    l21cols.sum[static_cast<std::size_t>(k) + 2] = s2;
    l21cols.abs[static_cast<std::size_t>(k) + 2] = a2;
    l21cols.sum[static_cast<std::size_t>(k) + 3] = s3;
    l21cols.abs[static_cast<std::size_t>(k) + 3] = a3;
  }
  for (; k < p; ++k) {
    const real_t* c = l21.data + static_cast<std::size_t>(k) * l21.ld;
    const real_t* mc = m.data + static_cast<std::size_t>(k) * m.ld;
    real_t s = 0.0, a = 0.0;
    for (index_t j = b; j-- > 0;) {
      s += c[j];
      a += std::abs(c[j]);
      pred[j] -= s * mc[j];
      scale[j] += a * std::abs(mc[j]);
    }
    l21cols.sum[static_cast<std::size_t>(k)] = s;
    l21cols.abs[static_cast<std::size_t>(k)] = a;
  }
}

// Column sums of a full rectangular view.
void rect_colsums(ConstMatrixView m, ColSums& out) {
  out.reset(m.cols);
  for (index_t j = 0; j < m.cols; ++j) {
    const real_t* col = m.data + static_cast<std::size_t>(j) * m.ld;
    sum_abs(col, m.rows, out.sum[static_cast<std::size_t>(j)],
            out.abs[static_cast<std::size_t>(j)]);
  }
}

// The ABFT factorization engine. One instance per multifrontal_factor_abft
// call; mirrors multifrontal_factor's postorder loop but runs the four
// kernel stages individually with a checksum identity after each, and owns
// the detect -> localize -> recompute machinery.
class AbftEngine {
 public:
  AbftEngine(const SymbolicFactor& sym, FactorKind kind, PivotPolicy pivot,
             const AbftOptions& options, CholeskyFactor& factor,
             std::span<real_t> d, FactorChecksums* checksums)
      : sym_(sym),
        kind_(kind),
        pivot_(pivot),
        options_(options),
        factor_(factor),
        d_(d),
        checksums_(checksums),
        children_(detail::build_children(sym)),
        update_of_(static_cast<std::size_t>(sym.n_supernodes)),
        panel_dirty_(static_cast<std::size_t>(sym.n_supernodes), 0),
        perturb_of_(static_cast<std::size_t>(sym.n_supernodes), 0),
        carried_(static_cast<std::size_t>(sym.n_supernodes)),
        scratch_(sym.n) {
    fd_.resize(static_cast<std::size_t>(sym.n_supernodes));
    for (index_t s = 0; s < sym.n_supernodes; ++s) {
      fd_[s] = children_[s].empty() ? s : fd_[children_[s].front()];
    }
    if (checksums_ != nullptr) {
      checksums_->col_sum.assign(static_cast<std::size_t>(sym.n), 0.0);
      checksums_->col_abs.assign(static_cast<std::size_t>(sym.n), 0.0);
    }
  }

  void run(CancelToken cancel) {
    for (index_t s = 0; s < sym_.n_supernodes; ++s) {
      cancel.throw_if_cancelled();
      run_front(s);
      mem_.add(update_of_[s].size() * sizeof(real_t));
      free_children(s);
    }
  }

  [[nodiscard]] count_t perturbations() const {
    count_t total = 0;
    for (const count_t c : perturb_of_) total += c;
    return total;
  }
  [[nodiscard]] std::size_t peak_update_bytes() const { return mem_.peak(); }
  count_t checks = 0;
  count_t detections = 0;
  count_t fronts_recomputed = 0;

 private:
  void free_children(index_t s) {
    for (const index_t c : children_[s]) {
      mem_.sub(update_of_[c].size() * sizeof(real_t));
      update_of_[c] = {};
      // The parent has verified and consumed the block; any later repair
      // that revisits this subtree regenerates the prediction with it.
      carried_[c] = ColSums{};
    }
  }

  [[nodiscard]] bool column_ok(real_t actual, real_t predicted,
                               real_t scale) const {
    return !abft_mismatch(actual, predicted, scale, options_.tolerance);
  }

  // ---- fault injection -----------------------------------------------

  [[nodiscard]] index_t inject_target() const {
    const SdcInjection& inj = *options_.inject;
    if (inj.supernode != kNone) return inj.supernode;
    return static_cast<index_t>(mix64(inj.seed) %
                                static_cast<std::uint64_t>(sym_.n_supernodes));
  }

  // Flips one element of the site's region if this front is the campaign
  // target. Non-sticky faults strike once; sticky faults re-strike on
  // every (re)computation of the front.
  void maybe_inject(SdcSite site, index_t s, MatrixView panel,
                    MatrixView update) {
    const SdcInjection* inj = options_.inject;
    if (inj == nullptr || inj->site != site || injection_fired_) return;
    if (inject_target() != s) return;
    const index_t p = sym_.sn_cols(s);
    const index_t b = sym_.sn_below(s);
    const index_t f = p + b;
    const std::uint64_t h1 = mix64(inj->seed ^ 0x5bf03635ull);
    const std::uint64_t h2 = mix64(h1);
    real_t* cell = nullptr;
    switch (site) {
      case SdcSite::kAssembly: {
        const index_t j = static_cast<index_t>(h1 % p);
        const index_t i =
            j + static_cast<index_t>(h2 % static_cast<std::uint64_t>(f - j));
        cell = &panel.at(i, j);
        break;
      }
      case SdcSite::kPotrf: {
        const index_t j = static_cast<index_t>(h1 % p);
        const index_t i =
            j + static_cast<index_t>(h2 % static_cast<std::uint64_t>(p - j));
        cell = &panel.at(i, j);
        break;
      }
      case SdcSite::kTrsm: {
        if (b == 0) return;
        const index_t j = static_cast<index_t>(h1 % p);
        const index_t i = p + static_cast<index_t>(h2 % b);
        cell = &panel.at(i, j);
        break;
      }
      case SdcSite::kUpdate: {
        if (b == 0) return;
        const index_t j = static_cast<index_t>(h1 % b);
        const index_t i =
            j + static_cast<index_t>(h2 % static_cast<std::uint64_t>(b - j));
        cell = &update.at(i, j);
        break;
      }
      case SdcSite::kStoredFactor:
        return;  // applied outside the engine, after factorize
    }
    *cell = flip_bit(*cell, inj->bit);
    if (!inj->sticky) injection_fired_ = true;
  }

  // ---- per-stage checks ----------------------------------------------

  // Assembly-stage verification, fused with the extend-add: the child
  // update blocks' split column sums arrive in asm_sums_, taken from the
  // very read assemble_front performed (no block is ever re-read). Each
  // child column's actual total is first compared against the prediction
  // the child carried from its suffix walk — that IS the child's
  // UPDATE-identity check, executed at consumption time — and the verified
  // actual sums then become the baselines for every downstream identity
  // (lower column sums are linear under extend-add: the lower triangle of
  // a child block maps into the lower triangle of the parent front, column
  // to column). Only the small A11 block is read back and compared against
  // its prediction: that keeps corruption out of the diagonal kernel, so a
  // flipped A11 can neither masquerade as a pivot breakdown nor hide
  // behind a static pivot boost (whose fronts skip the POTRF identity).
  //
  // Fills asm_pred_ (predicted lower A11 sums), a11_pre_ (actual SYMMETRIC
  // A11 sums — the POTRF baseline, built from the same read), a21_pre_
  // (A21 column sums) and u0_ (lower update-seed sums). On mismatch the
  // caller re-verifies the children's blocks and recomputes any corrupt
  // child subtree.
  [[nodiscard]] bool check_assembly(index_t s, ConstMatrixView panel) {
    ++checks;
    const index_t p = sym_.sn_cols(s);
    const index_t b = sym_.sn_below(s);
    asm_pred_.reset(p);
    a21_pre_.reset(p);
    u0_.reset(b);
    const SparseMatrix& a = sym_.a;
    const index_t first = sym_.sn_start[s];
    const index_t bound = sym_.sn_start[s + 1];
    for (index_t j = first; j < bound; ++j) {
      for (index_t q = a.col_ptr[j]; q < a.col_ptr[j + 1]; ++q) {
        const index_t gi = a.row_ind[static_cast<std::size_t>(q)];
        const real_t v = a.values[static_cast<std::size_t>(q)];
        if (gi < bound) {
          asm_pred_.add(j - first, v);
        } else {
          a21_pre_.add(j - first, v);
        }
      }
    }
    const auto prows = sym_.below_rows(s);
    std::size_t ic = 0;
    for (const index_t c : children_[s]) {
      ++checks;  // the child block's UPDATE identity, checked at consumption
      const auto crows = sym_.below_rows(c);
      const index_t cb = sym_.sn_below(c);
      const std::vector<real_t>& cs = asm_sums_.per_child[ic++];
      const ColSums& want = carried_[c];
      // Both row lists are ascending, so a single merge walk maps the
      // seed-landing child columns onto this front's update rows.
      index_t pi = 0;
      for (index_t cj = 0; cj < cb; ++cj) {
        const std::size_t uc = static_cast<std::size_t>(cj);
        const real_t* o = cs.data() + uc * 4;
        if (!column_ok(o[0] + o[2], want.sum[uc], want.abs[uc])) return false;
        const index_t g = crows[cj];
        if (g < bound) {
          // Panel-mapped child column: its panel-landing rows are A11
          // rows, its seed-landing rows are A21 rows of this front.
          const index_t lj = g - first;
          asm_pred_.sum[lj] += o[0];
          asm_pred_.abs[lj] += o[1];
          a21_pre_.sum[lj] += o[2];
          a21_pre_.abs[lj] += o[3];
        } else {
          while (prows[pi] < g) ++pi;
          u0_.sum[pi] += o[2];
          u0_.abs[pi] += o[3];
        }
      }
    }
    // Read back the A11 block only: lower sums feed the per-column
    // assembly comparison; the symmetric completion (a second sweep of the
    // L1-hot column) builds the POTRF baseline from the same read.
    a11_pre_.reset(p);
    for (index_t j = 0; j < p; ++j) {
      const real_t* col = panel.data + static_cast<std::size_t>(j) * panel.ld;
      real_t s11 = 0.0;
      real_t m11 = 0.0;
      sum_abs(col + j, p - j, s11, m11);
      real_t* as = a11_pre_.sum.data();
      real_t* aa = a11_pre_.abs.data();
      accum_abs(as + j + 1, aa + j + 1, col + j + 1, p - j - 1);
      as[j] += s11;
      aa[j] += m11;
      const std::size_t uj = static_cast<std::size_t>(j);
      if (!column_ok(s11, asm_pred_.sum[uj], asm_pred_.abs[uj])) return false;
    }
    return true;
  }

  // Combined post-kernel verification, two streaming passes total:
  //
  //   POTRF identity:  e'A11 = (e'L11) L11'        (LDLᵀ: weight by D)
  //   TRSM identity:   colsums(M) L11' = colsums(A21),  M = A21 L11⁻ᵀ
  //   UPDATE identity: lowcols(U') = lowcols(U0) − suffix(L21)·M  (per row)
  //
  // Pass 1 walks L21/M once (descending, predict_update_lower), producing
  // the UPDATE-identity prediction plus the L21 column sums as a
  // byproduct — for Cholesky those ARE the M sums the TRSM identity
  // weights with. Pass 2 walks L11 once, serving both triangular
  // identities. The update block itself is never read here: the
  // UPDATE-identity prediction is carried to the parent, which compares it
  // against the block's actual sums during its own extend-add (the block's
  // one and only read) — see check_assembly. Deferring the POTRF
  // comparison until after TRSM/UPDATE ran costs wasted kernel work on a
  // corrupt front (rare), but the retry reassembles from scratch so the
  // healed result is still bitwise identical.
  //
  // The POTRF identity is skipped when static pivoting boosted a pivot in
  // this front — the boost deliberately breaks A11 = L11 L11'. The TRSM
  // identity holds for whatever L11 the diagonal stage produced. For LDLᵀ
  // the panel was rescaled to L21 = M D⁻¹, and the rescale is verified
  // too: colsums(L21)·d = colsums(M).
  [[nodiscard]] bool check_stages(index_t s, ConstMatrixView l11,
                                  ConstMatrixView l21, ConstMatrixView m,
                                  count_t boosted) {
    const index_t p = l11.cols;
    const index_t b = sym_.sn_below(s);
    const index_t first = sym_.sn_start[s];
    if (boosted == 0) ++checks;  // POTRF
    if (b > 0) ++checks;         // TRSM (UPDATE is counted at consumption)

    // Pass 1: UPDATE prediction + L21/M column sums.
    pred_.assign(u0_.sum.begin(), u0_.sum.end());
    scale_.assign(u0_.abs.begin(), u0_.abs.end());
    if (b > 0) {
      if (kind_ == FactorKind::kCholesky) {
        predict_update_lower(l21, m, pred_.data(), scale_.data(), msums_);
      } else {
        predict_update_lower(l21, m, pred_.data(), scale_.data(), l21sums_);
        rect_colsums(m, msums_);
      }
    } else {
      msums_.reset(p);
    }

    // Pass 2: L11 column sums + both triangular predictions.
    l11sums_.reset(p);
    pred2_.assign(static_cast<std::size_t>(p), 0.0);
    scale2_.assign(static_cast<std::size_t>(p), 0.0);
    pred3_.assign(static_cast<std::size_t>(p), 0.0);
    scale3_.assign(static_cast<std::size_t>(p), 0.0);
    real_t* p2 = pred2_.data();
    real_t* s2 = scale2_.data();
    real_t* p3 = pred3_.data();
    real_t* s3 = scale3_.data();
    for (index_t k = 0; k < p; ++k) {
      const real_t* col = l11.data + static_cast<std::size_t>(k) * l11.ld;
      real_t sum = 0.0;
      real_t mag = 0.0;
      sum_abs(col + k, p - k, sum, mag);
      const std::size_t uk = static_cast<std::size_t>(k);
      l11sums_.sum[uk] = sum;
      l11sums_.abs[uk] = mag;
      real_t w1 = sum;
      real_t w1a = mag;
      if (kind_ == FactorKind::kLdlt) {
        const real_t dk = d_[static_cast<std::size_t>(first + k)];
        w1 *= dk;
        w1a *= std::abs(dk);
      }
      const real_t w2 = msums_.sum[uk];
      const real_t w2a = msums_.abs[uk];
      accum_two_weighted(p2 + k, s2 + k, p3 + k, s3 + k, col + k, p - k, w1,
                         w1a, w2, w2a);
    }
    if (boosted == 0) {
      for (index_t j = 0; j < p; ++j) {
        const std::size_t uj = static_cast<std::size_t>(j);
        if (!column_ok(a11_pre_.sum[uj], p2[j], a11_pre_.abs[uj] + s2[j])) {
          return false;
        }
      }
    }
    if (b == 0) {
      carried_[s].reset(0);
      return true;
    }
    for (index_t j = 0; j < p; ++j) {
      const std::size_t uj = static_cast<std::size_t>(j);
      if (!column_ok(a21_pre_.sum[uj], p3[j], a21_pre_.abs[uj] + s3[j])) {
        return false;
      }
    }
    if (kind_ == FactorKind::kLdlt) {
      for (index_t k = 0; k < p; ++k) {
        const std::size_t uk = static_cast<std::size_t>(k);
        const real_t dk = d_[static_cast<std::size_t>(first + k)];
        if (!column_ok(l21sums_.sum[uk] * dk, msums_.sum[uk],
                       l21sums_.abs[uk] * std::abs(dk) + msums_.abs[uk])) {
          return false;
        }
      }
    }

    // Carry the UPDATE-identity prediction (value + tolerance scale) to
    // the parent; it is the truth the block's actual sums are verified
    // against when the parent's extend-add reads them.
    ColSums& car = carried_[s];
    car.sum.assign(pred_.begin(), pred_.end());
    car.abs.assign(scale_.begin(), scale_.end());
    return true;
  }

  // ---- detect -> localize -> recompute --------------------------------

  [[noreturn]] void fail_sticky(index_t s, const char* stage) const {
    std::ostringstream os;
    os << "abft: persistent corruption at " << stage << " of supernode " << s
       << " after " << options_.max_front_attempts
       << " recompute attempt(s)";
    throw StatusError(
        Status::failure(StatusCode::kDataCorruption, os.str(), s));
  }

  // Re-verifies the in-memory update blocks of s's children against their
  // carried predictions and recomputes the subtree of any corrupt child.
  void repair_children(index_t s) {
    for (const index_t c : children_[s]) {
      const index_t cb = sym_.sn_below(c);
      const ConstMatrixView cu{update_of_[c].data(), cb, cb, cb};
      ColSums actual;
      lower_colsums(cu, actual);
      const ColSums& want = carried_[c];
      bool ok = true;
      for (index_t j = 0; j < cb && ok; ++j) {
        const std::size_t uj = static_cast<std::size_t>(j);
        ok = column_ok(actual.sum[uj], want.sum[uj], want.abs[uj]);
      }
      if (!ok) recompute_range(fd_[c], c);
    }
  }

  // Re-runs the contiguous postorder subtree [lo, hi]; every interior
  // block is regenerated, then freed again once its parent has consumed
  // it, leaving only hi's update block live (as the main loop expects).
  void recompute_range(index_t lo, index_t hi) {
    for (index_t t = lo; t <= hi; ++t) {
      run_front(t);
      ++fronts_recomputed;
      if (t < hi) mem_.add(update_of_[t].size() * sizeof(real_t));
      if (t <= hi) free_children(t);
    }
  }

  void run_front(index_t s) {
    const index_t p = sym_.sn_cols(s);
    const index_t b = sym_.sn_below(s);
    const index_t first = sym_.sn_start[s];
    MatrixView panel = factor_.panel(s);

    for (int attempt = 0;; ++attempt) {
      if (attempt >= options_.max_front_attempts) fail_sticky(s, "retry");
      if (attempt > 0) ++fronts_recomputed;

      // assemble_front scatters with +=, so a recompute needs a clean
      // slate; the very first visit can rely on the factor buffer's zero
      // initialization, like the plain engine does.
      if (panel_dirty_[static_cast<std::size_t>(s)]) panel.fill(0.0);
      panel_dirty_[static_cast<std::size_t>(s)] = 1;
      detail::assemble_front(sym_, s, update_of_, children_, panel,
                             update_of_[s], scratch_, &asm_sums_);
      MatrixView update{update_of_[s].data(), b, b, b};
      maybe_inject(SdcSite::kAssembly, s, panel, update);
      if (!check_assembly(s, panel)) {
        ++detections;
        repair_children(s);
        continue;
      }

      const count_t boosted =
          detail::factor_front_diag(sym_, s, panel, kind_, d_, pivot_);
      MatrixView l11 = panel.block(0, 0, p, p);
      maybe_inject(SdcSite::kPotrf, s, panel, update);

      MatrixView l21{};
      ConstMatrixView m{};
      if (b > 0) {
        l21 = panel.block(p, 0, b, p);
        trsm_right_lower_trans(l11, l21);
        m = l21;
        if (kind_ == FactorKind::kLdlt) {
          detail::ldlt_scale_panel(l21, d_, first, mstore_);
          m = ConstMatrixView{mstore_.data(), b, p, b};
        }
        maybe_inject(SdcSite::kTrsm, s, panel, update);

        if (kind_ == FactorKind::kCholesky) {
          syrk_lower_update(update, l21);
        } else {
          gemm_nt_update(update, l21, m);
        }
        maybe_inject(SdcSite::kUpdate, s, panel, update);
      }
      if (!check_stages(s, l11, l21, m, boosted)) {
        // Stage baselines are predictions built from the children's carried
        // sums, so a mismatch here may equally mean a corrupt child block
        // (e.g. an assembled-A21 or update-seed flip): re-verify the
        // children before retrying, recomputing any corrupt subtree.
        ++detections;
        repair_children(s);
        continue;
      }

      perturb_of_[s] = boosted;
      if (checksums_ != nullptr) {
        // The stored-factor checksums are the L11 sums refreshed after the
        // diagonal kernel plus the L21 sums from the TRSM check — the panel
        // is not re-read.
        const ColSums* l21s =
            b > 0 ? (kind_ == FactorKind::kCholesky ? &msums_ : &l21sums_)
                  : nullptr;
        for (index_t j = 0; j < p; ++j) {
          const std::size_t g = static_cast<std::size_t>(first + j);
          const std::size_t uj = static_cast<std::size_t>(j);
          checksums_->col_sum[g] =
              l11sums_.sum[uj] + (l21s != nullptr ? l21s->sum[uj] : 0.0);
          checksums_->col_abs[g] =
              l11sums_.abs[uj] + (l21s != nullptr ? l21s->abs[uj] : 0.0);
        }
      }
      return;
    }
  }

  const SymbolicFactor& sym_;
  const FactorKind kind_;
  const PivotPolicy pivot_;
  const AbftOptions& options_;
  CholeskyFactor& factor_;
  std::span<real_t> d_;
  FactorChecksums* checksums_;
  const std::vector<std::vector<index_t>> children_;
  std::vector<std::vector<real_t>> update_of_;
  std::vector<char> panel_dirty_;  ///< panel written before (retry must zero)
  std::vector<count_t> perturb_of_;
  std::vector<ColSums> carried_;  ///< predicted update-block sums + scales
  std::vector<index_t> fd_;       ///< first descendant (subtree start)
  detail::FrontScratch scratch_;
  detail::AssemblySums asm_sums_;  ///< child split sums from the extend-add
  detail::UpdateMemory mem_;
  bool injection_fired_ = false;

  // Per-front check scratch, reused across fronts so the O(front^2) checks
  // never allocate. Only valid within one run_front stage sequence.
  ColSums asm_pred_;   ///< predicted lower A11 sums (A + carried)
  ColSums a11_pre_;    ///< actual symmetric A11 sums (POTRF baseline)
  ColSums a21_pre_;    ///< predicted A21 column sums (A + carried)
  ColSums u0_;         ///< predicted lower update-seed sums (carried)
  ColSums l11sums_;    ///< L11 column sums after the diagonal kernel
  ColSums msums_;      ///< M = A21 L11⁻ᵀ column sums after TRSM
  ColSums l21sums_;    ///< L21 column sums (LDLᵀ rescale check)
  std::vector<real_t> pred_;    ///< UPDATE-identity prediction
  std::vector<real_t> scale_;
  std::vector<real_t> pred2_;   ///< POTRF-identity prediction
  std::vector<real_t> scale2_;
  std::vector<real_t> pred3_;   ///< TRSM-identity prediction
  std::vector<real_t> scale3_;
  std::vector<real_t> mstore_;  ///< LDLᵀ unscaled panel M
};

}  // namespace

CholeskyFactor multifrontal_factor_abft(const SymbolicFactor& sym,
                                        FactorStats* stats, FactorKind kind,
                                        PivotPolicy pivot,
                                        const AbftOptions& options,
                                        FactorChecksums* checksums,
                                        CancelToken cancel) {
  WallTimer timer;
  pivot = resolve_pivot_policy(pivot, sym.a);
  CholeskyFactor factor(sym);
  std::span<real_t> d;
  if (kind == FactorKind::kLdlt) d = factor.allocate_diag();
  AbftEngine engine(sym, kind, pivot, options, factor, d, checksums);
  engine.run(cancel);
  if (stats != nullptr) {
    stats->seconds = timer.seconds();
    stats->flops = sym.total_flops;
    stats->peak_update_bytes = engine.peak_update_bytes();
    stats->pivot_perturbations = engine.perturbations();
    stats->abft_checks = engine.checks;
    stats->abft_detections = engine.detections;
    stats->fronts_recomputed = engine.fronts_recomputed;
  }
  return factor;
}

FactorChecksums compute_factor_checksums(const SymbolicFactor& sym,
                                         const CholeskyFactor& factor) {
  FactorChecksums out;
  out.col_sum.assign(static_cast<std::size_t>(sym.n), 0.0);
  out.col_abs.assign(static_cast<std::size_t>(sym.n), 0.0);
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    const ConstMatrixView panel = factor.panel(s);
    const index_t first = sym.sn_start[s];
    for (index_t j = 0; j < panel.cols; ++j) {
      real_t sum = 0.0;
      real_t abs = 0.0;
      for (index_t i = j; i < panel.rows; ++i) {
        const real_t v = panel.at(i, j);
        sum += v;
        abs += std::abs(v);
      }
      out.col_sum[static_cast<std::size_t>(first + j)] = sum;
      out.col_abs[static_cast<std::size_t>(first + j)] = abs;
    }
  }
  return out;
}

index_t verify_factor(const SymbolicFactor& sym, const CholeskyFactor& factor,
                      const FactorChecksums& checksums, real_t tolerance) {
  PARFACT_CHECK(!checksums.empty());
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    const ConstMatrixView panel = factor.panel(s);
    const index_t first = sym.sn_start[s];
    for (index_t j = 0; j < panel.cols; ++j) {
      real_t sum = 0.0;
      for (index_t i = j; i < panel.rows; ++i) sum += panel.at(i, j);
      const std::size_t g = static_cast<std::size_t>(first + j);
      if (abft_mismatch(sum, checksums.col_sum[g], checksums.col_abs[g],
                        tolerance)) {
        return s;
      }
    }
  }
  return kNone;
}

index_t first_descendant(const SymbolicFactor& sym, index_t s) {
  const auto children = detail::build_children(sym);
  index_t t = s;
  while (!children[t].empty()) t = children[t].front();
  return t;
}

count_t recompute_subtree(const SymbolicFactor& sym, index_t root,
                          FactorKind kind, PivotPolicy pivot,
                          CholeskyFactor& factor,
                          FactorChecksums* checksums) {
  pivot = resolve_pivot_policy(pivot, sym.a);
  const auto children = detail::build_children(sym);
  index_t lo = root;
  while (!children[lo].empty()) lo = children[lo].front();

  std::span<real_t> d = factor.mutable_diag();
  std::vector<std::vector<real_t>> update_of(
      static_cast<std::size_t>(sym.n_supernodes));
  detail::FrontScratch scratch(sym.n);
  for (index_t t = lo; t <= root; ++t) {
    MatrixView panel = factor.panel(t);
    panel.fill(0.0);
    (void)detail::eliminate_front(sym, t, update_of, children, panel,
                                  update_of[t], scratch, kind, d, pivot);
    for (const index_t c : children[t]) update_of[c] = {};
  }

  if (checksums != nullptr && !checksums->empty()) {
    for (index_t t = lo; t <= root; ++t) {
      const ConstMatrixView panel = factor.panel(t);
      const index_t first = sym.sn_start[t];
      for (index_t j = 0; j < panel.cols; ++j) {
        real_t sum = 0.0;
        real_t abs = 0.0;
        for (index_t i = j; i < panel.rows; ++i) {
          const real_t v = panel.at(i, j);
          sum += v;
          abs += std::abs(v);
        }
        checksums->col_sum[static_cast<std::size_t>(first + j)] = sum;
        checksums->col_abs[static_cast<std::size_t>(first + j)] = abs;
      }
    }
  }
  return root - lo + 1;
}

index_t inject_factor_bitflip(const SymbolicFactor& sym,
                              CholeskyFactor& factor,
                              const SdcInjection& injection) {
  index_t s = injection.supernode;
  if (s == kNone) {
    s = static_cast<index_t>(mix64(injection.seed) %
                             static_cast<std::uint64_t>(sym.n_supernodes));
  }
  MatrixView panel = factor.panel(s);
  const std::uint64_t h1 = mix64(injection.seed ^ 0x5bf03635ull);
  const std::uint64_t h2 = mix64(h1);
  const index_t j = static_cast<index_t>(h1 % panel.cols);
  const index_t i =
      j + static_cast<index_t>(h2 % static_cast<std::uint64_t>(panel.rows - j));
  panel.at(i, j) = flip_bit(panel.at(i, j), injection.bit);
  return s;
}

}  // namespace parfact
