#include "mf/abft.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "dense/kernels.h"
#include "mf/front_driver.h"
#include "support/checksum.h"
#include "support/error.h"

namespace parfact {
namespace {

using detail::ColSums;

// splitmix64: seeds the deterministic choice of the flipped element.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// The colsum helpers stream one contiguous column at a time (the views are
// column-major); the checks are O(front^2) against O(front^3) kernels and
// must stay memory-bound, not stride-bound, for the overhead budget to hold.
//
// The per-element loops below are the entire ABFT cost, so they carry
// runtime ISA dispatch (GCC ifunc clones) where available: the build stays
// a portable baseline binary, but a machine with wider vectors runs the
// checks at its native width. The loops are element-wise (or fixed-lane)
// streams, so every clone performs the identical FP operations in the
// identical order — the dispatch never changes a computed sum. (Not under
// ThreadSanitizer, whose binaries crash in the ifunc resolvers.)
#if defined(__x86_64__) && defined(__ELF__) && defined(__GNUC__) && \
    !defined(__clang__) && !defined(__SANITIZE_THREAD__)
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

// The one per-column checksum helper: sums of the lower trapezoid (rows >=
// col) of `m`, column j into sum[j] / abs[j].
void lower_colsums(ConstMatrixView m, real_t* sum, real_t* abs) {
  for (index_t j = 0; j < m.cols; ++j) {
    const real_t* col = m.data + static_cast<std::size_t>(j) * m.ld;
    sum_abs(col + j, m.rows - j, sum[j], abs[j]);
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

// The campaign's target front: the named supernode, or one drawn from the
// seed.
index_t injection_target(const SymbolicFactor& sym, const SdcInjection& inj) {
  if (inj.supernode != kNone) return inj.supernode;
  return static_cast<index_t>(mix64(inj.seed) %
                              static_cast<std::uint64_t>(sym.n_supernodes));
}

// The campaign's cell in the lower trapezoid of `m`, drawn from the seed.
real_t& injection_cell(MatrixView m, const SdcInjection& inj) {
  const std::uint64_t h1 = mix64(inj.seed ^ 0x5bf03635ull);
  const std::uint64_t h2 = mix64(h1);
  const index_t j = static_cast<index_t>(h1 % m.cols);
  const index_t i =
      j + static_cast<index_t>(h2 % static_cast<std::uint64_t>(m.rows - j));
  return m.at(i, j);
}

// Supernode s's panel sums, into the factor columns it owns.
void panel_checksums(const SymbolicFactor& sym, index_t s,
                     ConstMatrixView panel, FactorChecksums& out) {
  const std::size_t first = static_cast<std::size_t>(sym.sn_start[s]);
  lower_colsums(panel, out.col_sum.data() + first, out.col_abs.data() + first);
}

}  // namespace

namespace detail {

AbftFront::AbftFront(const SymbolicFactor& sym, const AbftOptions& options)
    : sym_(sym),
      options_(options),
      carried_(static_cast<std::size_t>(sym.n_supernodes)) {
  if (options_.checksums != nullptr) {
    options_.checksums->col_sum.assign(static_cast<std::size_t>(sym.n), 0.0);
    options_.checksums->col_abs.assign(static_cast<std::size_t>(sym.n), 0.0);
  }
}

bool AbftFront::column_ok(real_t actual, real_t predicted,
                          real_t scale) const {
  return !abft_mismatch(actual, predicted, scale, options_.tolerance);
}

// ---- fault injection -------------------------------------------------

// Flips one element of the site's region if this front is the campaign
// target. Non-sticky faults strike once; sticky faults re-strike on every
// (re)computation of the front. Only the target front's own task ever
// flips, but every front reads the one-shot flag, hence the atomic.
void AbftFront::maybe_inject(SdcSite site, index_t s, MatrixView panel,
                             MatrixView update) {
  const SdcInjection* inj = options_.inject;
  if (inj == nullptr || inj->site != site || injection_fired_.load()) return;
  if (injection_target(sym_, *inj) != s) return;
  const index_t p = sym_.sn_cols(s);
  const index_t b = sym_.sn_below(s);
  real_t* cell = nullptr;
  switch (site) {
    case SdcSite::kAssembly:
      cell = &injection_cell(panel, *inj);
      break;
    case SdcSite::kPotrf:
      cell = &injection_cell(panel.block(0, 0, p, p), *inj);
      break;
    case SdcSite::kTrsm: {
      if (b == 0) return;
      const std::uint64_t h1 = mix64(inj->seed ^ 0x5bf03635ull);
      cell = &panel.at(p + static_cast<index_t>(mix64(h1) % b),
                       static_cast<index_t>(h1 % p));
      break;
    }
    case SdcSite::kUpdate:
      if (b == 0) return;
      cell = &injection_cell(update, *inj);
      break;
    case SdcSite::kStoredFactor:
      return;  // applied outside the engine, after factorize
  }
  *cell = flip_bit(*cell, inj->bit);
  if (!inj->sticky) injection_fired_.store(true);
}

// ---- per-stage checks ------------------------------------------------

// Assembly-stage verification, fused with the extend-add: the child
// update blocks' split column sums arrive in cs.asm_sums, taken from the
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
// Fills cs.asm_pred (predicted lower A11 sums), cs.a11_pre (actual
// SYMMETRIC A11 sums — the POTRF baseline, built from the same read),
// cs.a21_pre (A21 column sums) and cs.u0 (lower update-seed sums). On
// mismatch the caller re-verifies the children's blocks and recomputes any
// corrupt child subtree.
bool AbftFront::check_assembly(const FrontRun& run, index_t s,
                               ConstMatrixView panel, CheckScratch& cs) {
  ++checks;
  const index_t p = sym_.sn_cols(s);
  const index_t b = sym_.sn_below(s);
  cs.asm_pred.reset(p);
  cs.a21_pre.reset(p);
  cs.u0.reset(b);
  const SparseMatrix& a = sym_.a;
  const index_t first = sym_.sn_start[s];
  const index_t bound = sym_.sn_start[s + 1];
  for (index_t j = first; j < bound; ++j) {
    for (index_t q = a.col_ptr[j]; q < a.col_ptr[j + 1]; ++q) {
      const index_t gi = a.row_ind[static_cast<std::size_t>(q)];
      const real_t v = a.values[static_cast<std::size_t>(q)];
      if (gi < bound) {
        cs.asm_pred.add(j - first, v);
      } else {
        cs.a21_pre.add(j - first, v);
      }
    }
  }
  const auto prows = sym_.below_rows(s);
  std::size_t ic = 0;
  for (const index_t c : run.children[s]) {
    ++checks;  // the child block's UPDATE identity, checked at consumption
    const auto crows = sym_.below_rows(c);
    const index_t cb = sym_.sn_below(c);
    const std::vector<real_t>& sums = cs.asm_sums.per_child[ic++];
    const ColSums& want = carried_[c];
    // Both row lists are ascending, so a single merge walk maps the
    // seed-landing child columns onto this front's update rows.
    index_t pi = 0;
    for (index_t cj = 0; cj < cb; ++cj) {
      const std::size_t uc = static_cast<std::size_t>(cj);
      const real_t* o = sums.data() + uc * 4;
      if (!column_ok(o[0] + o[2], want.sum[uc], want.abs[uc])) return false;
      const index_t g = crows[cj];
      if (g < bound) {
        // Panel-mapped child column: its panel-landing rows are A11
        // rows, its seed-landing rows are A21 rows of this front.
        const index_t lj = g - first;
        cs.asm_pred.sum[lj] += o[0];
        cs.asm_pred.abs[lj] += o[1];
        cs.a21_pre.sum[lj] += o[2];
        cs.a21_pre.abs[lj] += o[3];
      } else {
        while (prows[pi] < g) ++pi;
        cs.u0.sum[pi] += o[2];
        cs.u0.abs[pi] += o[3];
      }
    }
  }
  // Read back the A11 block only: lower sums feed the per-column
  // assembly comparison; the symmetric completion (a second sweep of the
  // L1-hot column) builds the POTRF baseline from the same read.
  cs.a11_pre.reset(p);
  for (index_t j = 0; j < p; ++j) {
    const real_t* col = panel.data + static_cast<std::size_t>(j) * panel.ld;
    real_t s11 = 0.0;
    real_t m11 = 0.0;
    sum_abs(col + j, p - j, s11, m11);
    real_t* as = cs.a11_pre.sum.data();
    real_t* aa = cs.a11_pre.abs.data();
    accum_abs(as + j + 1, aa + j + 1, col + j + 1, p - j - 1);
    as[j] += s11;
    aa[j] += m11;
    const std::size_t uj = static_cast<std::size_t>(j);
    if (!column_ok(s11, cs.asm_pred.sum[uj], cs.asm_pred.abs[uj])) {
      return false;
    }
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
bool AbftFront::check_stages(const FrontRun& run, index_t s,
                             ConstMatrixView l11, ConstMatrixView l21,
                             ConstMatrixView m, count_t boosted,
                             CheckScratch& cs) {
  const index_t p = l11.cols;
  const index_t b = sym_.sn_below(s);
  const index_t first = sym_.sn_start[s];
  if (boosted == 0) ++checks;  // POTRF
  if (b > 0) ++checks;         // TRSM (UPDATE is counted at consumption)

  // Pass 1: UPDATE prediction + L21/M column sums.
  cs.update_pred = cs.u0;
  real_t* pred = cs.update_pred.sum.data();
  real_t* scale = cs.update_pred.abs.data();
  if (b > 0) {
    if (run.kind == FactorKind::kCholesky) {
      predict_update_lower(l21, m, pred, scale, cs.msums);
    } else {
      predict_update_lower(l21, m, pred, scale, cs.l21sums);
      rect_colsums(m, cs.msums);
    }
  } else {
    cs.msums.reset(p);
  }

  // Pass 2: L11 column sums + both triangular predictions.
  cs.l11sums.reset(p);
  cs.potrf_pred.reset(p);
  cs.trsm_pred.reset(p);
  real_t* p2 = cs.potrf_pred.sum.data();
  real_t* s2 = cs.potrf_pred.abs.data();
  real_t* p3 = cs.trsm_pred.sum.data();
  real_t* s3 = cs.trsm_pred.abs.data();
  for (index_t k = 0; k < p; ++k) {
    const real_t* col = l11.data + static_cast<std::size_t>(k) * l11.ld;
    real_t sum = 0.0;
    real_t mag = 0.0;
    sum_abs(col + k, p - k, sum, mag);
    const std::size_t uk = static_cast<std::size_t>(k);
    cs.l11sums.sum[uk] = sum;
    cs.l11sums.abs[uk] = mag;
    real_t w1 = sum;
    real_t w1a = mag;
    if (run.kind == FactorKind::kLdlt) {
      const real_t dk = run.d[static_cast<std::size_t>(first + k)];
      w1 *= dk;
      w1a *= std::abs(dk);
    }
    const real_t w2 = cs.msums.sum[uk];
    const real_t w2a = cs.msums.abs[uk];
    accum_two_weighted(p2 + k, s2 + k, p3 + k, s3 + k, col + k, p - k, w1,
                       w1a, w2, w2a);
  }
  if (boosted == 0) {
    for (index_t j = 0; j < p; ++j) {
      const std::size_t uj = static_cast<std::size_t>(j);
      if (!column_ok(cs.a11_pre.sum[uj], p2[j], cs.a11_pre.abs[uj] + s2[j])) {
        return false;
      }
    }
  }
  ColSums& car = carried_[s];
  if (b == 0) {
    car.reset(0);
    return true;
  }
  for (index_t j = 0; j < p; ++j) {
    const std::size_t uj = static_cast<std::size_t>(j);
    if (!column_ok(cs.a21_pre.sum[uj], p3[j], cs.a21_pre.abs[uj] + s3[j])) {
      return false;
    }
  }
  if (run.kind == FactorKind::kLdlt) {
    for (index_t k = 0; k < p; ++k) {
      const std::size_t uk = static_cast<std::size_t>(k);
      const real_t dk = run.d[static_cast<std::size_t>(first + k)];
      if (!column_ok(cs.l21sums.sum[uk] * dk, cs.msums.sum[uk],
                     cs.l21sums.abs[uk] * std::abs(dk) + cs.msums.abs[uk])) {
        return false;
      }
    }
  }

  // Carry the UPDATE-identity prediction (value + tolerance scale) to
  // the parent; it is the truth the block's actual sums are verified
  // against when the parent's extend-add reads them.
  car = cs.update_pred;
  return true;
}

// ---- detect -> localize -> recompute ---------------------------------

// Re-verifies the in-memory update blocks of s's children against their
// carried predictions and re-runs the subtree of any corrupt child. Every
// front of that subtree has completed (s depends on all of them) and no
// other task reads its panels, so the repair is private to s's caller.
void AbftFront::repair_children(FrontRun& run, index_t s,
                                FrontScratch& scratch) {
  for (const index_t c : run.children[s]) {
    const index_t cb = sym_.sn_below(c);
    const ConstMatrixView cu{run.update_of[c].data(), cb, cb, cb};
    ColSums actual;
    actual.reset(cb);
    lower_colsums(cu, actual.sum.data(), actual.abs.data());
    const ColSums& want = carried_[c];
    bool ok = true;
    for (index_t j = 0; j < cb && ok; ++j) {
      const std::size_t uj = static_cast<std::size_t>(j);
      ok = column_ok(actual.sum[uj], want.sum[uj], want.abs[uj]);
    }
    if (ok) continue;
    fronts_recomputed += c - run.first[c] + 1;
    run_fronts(run, run.first[c], c, scratch);
  }
}

count_t AbftFront::eliminate(FrontRun& run, index_t s, MatrixView panel,
                             FrontScratch& scratch) {
  const index_t p = sym_.sn_cols(s);
  const index_t b = sym_.sn_below(s);
  const index_t first = sym_.sn_start[s];
  CheckScratch& cs = scratch.check;
  std::vector<real_t>& upd = run.update_of[s];

  for (int attempt = 0;; ++attempt) {
    if (attempt >= options_.max_front_attempts) {
      std::ostringstream os;
      os << "abft: persistent corruption at retry of supernode " << s
         << " after " << attempt << " recompute attempt(s)";
      throw StatusError(
          Status::failure(StatusCode::kDataCorruption, os.str(), s));
    }
    if (attempt > 0) {
      ++fronts_recomputed;
      panel.fill(0.0);  // assemble_front scatters with +=
    }
    assemble_front(sym_, s, run.update_of, run.children, panel, upd, scratch,
                   &cs.asm_sums);
    MatrixView update{upd.data(), b, b, b};
    maybe_inject(SdcSite::kAssembly, s, panel, update);
    if (!check_assembly(run, s, panel, cs)) {
      ++detections;
      repair_children(run, s, scratch);
      continue;
    }

    const count_t boosted =
        factor_front_diag(sym_, s, panel, run.kind, run.d, run.pivot);
    MatrixView l11 = panel.block(0, 0, p, p);
    maybe_inject(SdcSite::kPotrf, s, panel, update);

    MatrixView l21{};
    ConstMatrixView m{};
    if (b > 0) {
      l21 = panel.block(p, 0, b, p);
      trsm_right_lower_trans(l11, l21);
      m = l21;
      if (run.kind == FactorKind::kLdlt) {
        ldlt_scale_panel(l21, run.d, first, cs.mstore);
        m = ConstMatrixView{cs.mstore.data(), b, p, b};
      }
      maybe_inject(SdcSite::kTrsm, s, panel, update);

      if (run.kind == FactorKind::kCholesky) {
        syrk_lower_update(update, l21);
      } else {
        gemm_nt_update(update, l21, m);
      }
      maybe_inject(SdcSite::kUpdate, s, panel, update);
    }
    if (!check_stages(run, s, l11, l21, m, boosted, cs)) {
      // Stage baselines are predictions built from the children's carried
      // sums, so a mismatch here may equally mean a corrupt child block
      // (e.g. an assembled-A21 or update-seed flip): re-verify the
      // children before retrying, recomputing any corrupt subtree.
      ++detections;
      repair_children(run, s, scratch);
      continue;
    }

    // The children's verified blocks are consumed; a later repair that
    // revisits their subtrees regenerates the predictions with them.
    for (const index_t c : run.children[s]) carried_[c] = ColSums{};
    if (options_.checksums != nullptr) {
      // The stored-factor checksums are the L11 sums refreshed after the
      // diagonal kernel plus the L21 sums from the TRSM check — the panel
      // is not re-read.
      const ColSums* l21s =
          b > 0 ? (run.kind == FactorKind::kCholesky ? &cs.msums
                                                     : &cs.l21sums)
                : nullptr;
      for (index_t j = 0; j < p; ++j) {
        const std::size_t g = static_cast<std::size_t>(first + j);
        const std::size_t uj = static_cast<std::size_t>(j);
        options_.checksums->col_sum[g] =
            cs.l11sums.sum[uj] + (l21s != nullptr ? l21s->sum[uj] : 0.0);
        options_.checksums->col_abs[g] =
            cs.l11sums.abs[uj] + (l21s != nullptr ? l21s->abs[uj] : 0.0);
      }
    }
    return boosted;
  }
}

}  // namespace detail

CholeskyFactor multifrontal_factor_abft(const SymbolicFactor& sym,
                                        FactorStats* stats, FactorKind kind,
                                        PivotPolicy pivot,
                                        const AbftOptions& options,
                                        FactorChecksums* checksums,
                                        CancelToken cancel) {
  AbftOptions run_options = options;
  if (checksums != nullptr) run_options.checksums = checksums;
  return multifrontal_factor(sym, stats, kind, pivot, std::move(cancel),
                             &run_options);
}

FactorChecksums compute_factor_checksums(const SymbolicFactor& sym,
                                         const CholeskyFactor& factor) {
  FactorChecksums out;
  out.col_sum.assign(static_cast<std::size_t>(sym.n), 0.0);
  out.col_abs.assign(static_cast<std::size_t>(sym.n), 0.0);
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    panel_checksums(sym, s, factor.panel(s), out);
  }
  return out;
}

index_t verify_factor(const SymbolicFactor& sym, const CholeskyFactor& factor,
                      const FactorChecksums& checksums, real_t tolerance) {
  PARFACT_CHECK(!checksums.empty());
  const FactorChecksums now = compute_factor_checksums(sym, factor);
  for (std::size_t j = 0; j < now.col_sum.size(); ++j) {
    if (abft_mismatch(now.col_sum[j], checksums.col_sum[j],
                      checksums.col_abs[j], tolerance)) {
      return sym.sn_of[j];
    }
  }
  return kNone;
}

index_t first_descendant(const SymbolicFactor& sym, index_t s) {
  return detail::first_descendants(sym)[static_cast<std::size_t>(s)];
}

count_t recompute_subtree(const SymbolicFactor& sym, index_t root,
                          FactorKind kind, PivotPolicy pivot,
                          CholeskyFactor& factor,
                          FactorChecksums* checksums) {
  detail::FrontRun run(sym, kind, factor.mutable_diag(),
                       resolve_pivot_policy(pivot, sym.a));
  run.factor = &factor;
  const index_t lo = run.first[static_cast<std::size_t>(root)];
  detail::FrontScratch scratch(sym.n);
  detail::run_fronts(run, lo, root, scratch);
  if (checksums != nullptr && !checksums->empty()) {
    for (index_t t = lo; t <= root; ++t) {
      panel_checksums(sym, t, factor.panel(t), *checksums);
    }
  }
  return root - lo + 1;
}

index_t inject_factor_bitflip(const SymbolicFactor& sym,
                              CholeskyFactor& factor,
                              const SdcInjection& injection) {
  const index_t s = injection_target(sym, injection);
  real_t& cell = injection_cell(factor.panel(s), injection);
  cell = flip_bit(cell, injection.bit);
  return s;
}

}  // namespace parfact
