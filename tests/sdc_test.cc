// Tests for the silent-data-corruption defense (DESIGN.md §5f): the shared
// checksum primitives, the ABFT checksum-carrying factorization with its
// detect → localize → recompute repair, at-rest factor verification, the
// mpsim single-bit wire/checkpoint fault injection, and the Solver facade's
// post-solve verify-and-repair. The acceptance bar everywhere mirrors the
// repo's standing contract: an injected flip is either healed (result
// bitwise identical to the clean run) or surfaces as a diagnosed Status —
// never a silent wrong answer.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/solver.h"
#include "dist/dist_factor.h"
#include "dist/mapping.h"
#include "mf/abft.h"
#include "mf/governed.h"
#include "mf/multifrontal.h"
#include "mpsim/machine.h"
#include "sparse/gen.h"
#include "sparse/ops.h"
#include "support/checksum.h"
#include "support/error.h"
#include "support/prng.h"
#include "support/status.h"

namespace parfact {
namespace {

std::vector<real_t> random_vector(index_t n, std::uint64_t seed) {
  Prng rng(seed);
  std::vector<real_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.next_real(-1, 1);
  return v;
}

SparseMatrix test_matrix() { return grid_laplacian_2d(12, 11, 5); }

void expect_factors_bitwise_equal(const SymbolicFactor& sym,
                                  const CholeskyFactor& a,
                                  const CholeskyFactor& b) {
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    const ConstMatrixView pa = a.panel(s);
    const ConstMatrixView pb = b.panel(s);
    for (index_t j = 0; j < pa.cols; ++j) {
      for (index_t i = j; i < pa.rows; ++i) {
        ASSERT_EQ(pa.at(i, j), pb.at(i, j))
            << "supernode " << s << " (" << i << "," << j << ")";
      }
    }
  }
}

// A supernode with a nonempty below-diagonal block: kTrsm/kUpdate faults
// have somewhere to strike there.
index_t supernode_with_below(const SymbolicFactor& sym) {
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    if (sym.sn_below(s) > 0) return s;
  }
  return kNone;
}

FrontMap spread_map(const SymbolicFactor& sym, int p) {
  return build_front_map(sym, p, MappingStrategy::kSubtree2d, 8, 1e3);
}

// --- support/checksum primitives -------------------------------------------

TEST(Checksum, Fnv1aKnownValuesAndChaining) {
  // Empty input returns the seed unchanged.
  EXPECT_EQ(fnv1a(nullptr, 0), kFnv1aOffsetBasis);
  // Reference digest of "a" (FNV-1a 64-bit test vector).
  EXPECT_EQ(fnv1a("a", 1), 0xaf63dc4c8601ec8cull);
  const char data[] = "parfact";
  const std::uint64_t whole = fnv1a(data, 7);
  // Chaining ranges through the seed matches hashing the whole buffer.
  EXPECT_EQ(fnv1a(data + 3, 4, fnv1a(data, 3)), whole);
  // Any flipped bit changes the digest.
  char copy[7];
  std::memcpy(copy, data, 7);
  copy[5] = static_cast<char>(copy[5] ^ 0x10);
  EXPECT_NE(fnv1a(copy, 7), whole);
}

std::vector<unsigned char> digest_pattern(std::size_t bytes) {
  std::vector<unsigned char> buf(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    buf[i] = static_cast<unsigned char>(i * 31 + 7);
  }
  return buf;
}

TEST(Checksum, PayloadDigestKnownValues) {
  // Pinned values (little-endian word loads): a change to the rounds, the
  // tail handling or the length fold shows up here first.
  EXPECT_EQ(payload_digest(nullptr, 0), 0xedba5dcc54aea9c3ull);
  EXPECT_EQ(payload_digest("parfact payload digest", 22),
            0x3d003817fe32d720ull);
  const std::vector<unsigned char> buf = digest_pattern(1027);
  EXPECT_EQ(payload_digest(buf.data(), buf.size()), 0xc3bab5d85e5da673ull);
}

TEST(Checksum, PayloadDigestCatchesEverySingleBitFlip) {
  // 1,027 bytes = 32 blocks of 32 bytes plus a 3-byte partial word; 59
  // bytes = one block, three whole tail words and a 3-byte partial word.
  // Together the flips strike every lane, the tail words and the padding.
  for (const std::size_t bytes : {std::size_t{1027}, std::size_t{59}}) {
    std::vector<unsigned char> buf = digest_pattern(bytes);
    const std::uint64_t clean = payload_digest(buf.data(), buf.size());
    int missed = 0;
    for (std::size_t byte = 0; byte < buf.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        buf[byte] ^= static_cast<unsigned char>(1u << bit);
        if (payload_digest(buf.data(), buf.size()) == clean) ++missed;
        buf[byte] ^= static_cast<unsigned char>(1u << bit);
      }
    }
    EXPECT_EQ(missed, 0) << bytes << " bytes";
    // An unaligned view hashes the same bytes the same way.
    std::vector<unsigned char> shifted(buf.size() + 1);
    std::memcpy(shifted.data() + 1, buf.data(), buf.size());
    EXPECT_EQ(payload_digest(shifted.data() + 1, buf.size()), clean);
  }
}

TEST(Checksum, PayloadDigestIsOrderAndLengthSensitive) {
  std::vector<unsigned char> buf = digest_pattern(1027);
  const std::uint64_t clean = payload_digest(buf.data(), buf.size());
  // Swapping two 8-byte words: same lane (words 1 and 5) and different
  // lanes (words 2 and 3).
  for (const auto& [i, j] : {std::pair{1, 5}, std::pair{2, 3}}) {
    std::vector<unsigned char> swapped = buf;
    std::swap_ranges(swapped.begin() + 8 * i, swapped.begin() + 8 * i + 8,
                     swapped.begin() + 8 * j);
    EXPECT_NE(payload_digest(swapped.data(), swapped.size()), clean)
        << "words " << i << " and " << j;
  }
  // Appending a zero byte pads the partial word to the same value; the
  // folded length must still tell them apart.
  buf.push_back(0);
  EXPECT_NE(payload_digest(buf.data(), buf.size()), clean);
}

TEST(Checksum, AbftMismatchPredicate) {
  EXPECT_FALSE(abft_mismatch(1.0, 1.0, 1.0, 1e-8));
  EXPECT_FALSE(abft_mismatch(1.0 + 1e-12, 1.0, 1.0, 1e-8));
  EXPECT_TRUE(abft_mismatch(1.0 + 1e-3, 1.0, 1.0, 1e-8));
  // NaN / Inf on either side must read as mismatch.
  const real_t nan = std::numeric_limits<real_t>::quiet_NaN();
  const real_t inf = std::numeric_limits<real_t>::infinity();
  EXPECT_TRUE(abft_mismatch(nan, 1.0, 1.0, 1e-8));
  EXPECT_TRUE(abft_mismatch(1.0, nan, 1.0, 1e-8));
  EXPECT_TRUE(abft_mismatch(inf, 1.0, 1.0, 1e-8));
}

TEST(Checksum, FlipBitRoundTrip) {
  const real_t v = 3.25;
  for (const int bit : {0, 31, 52, 62, 63}) {
    const real_t flipped = flip_bit(v, bit);
    EXPECT_NE(flipped, v) << "bit " << bit;
    EXPECT_EQ(flip_bit(flipped, bit), v) << "bit " << bit;
  }
  // Bit 62 of 0.0 sets the top exponent bit: exactly 2.0.
  EXPECT_EQ(flip_bit(0.0, 62), 2.0);
}

TEST(Checksum, FlipBitInBytesMatchesScalarFlip) {
  std::vector<real_t> buf = {1.0, -2.5, 3.75, 0.5};
  const std::vector<real_t> orig = buf;
  // word wraps modulo the buffer size: word 6 strikes element 2.
  flip_bit_in_bytes(buf.data(), buf.size() * sizeof(real_t), 6, 62);
  EXPECT_EQ(buf[2], flip_bit(orig[2], 62));
  for (const int i : {0, 1, 3}) EXPECT_EQ(buf[i], orig[i]);
  flip_bit_in_bytes(nullptr, 0, 0, 0);  // empty buffer: no-op
}

// --- ABFT factorization: clean runs ----------------------------------------

TEST(Abft, CleanRunBitwiseIdenticalCholesky) {
  const SparseMatrix a = test_matrix();
  const SymbolicFactor sym = analyze(a);
  const CholeskyFactor reference = multifrontal_factor(sym);
  FactorStats stats;
  FactorChecksums sums;
  const CholeskyFactor guarded = multifrontal_factor_abft(
      sym, &stats, FactorKind::kCholesky, {}, {}, &sums);
  expect_factors_bitwise_equal(sym, reference, guarded);
  EXPECT_GT(stats.abft_checks, 0);
  EXPECT_EQ(stats.abft_detections, 0);
  EXPECT_EQ(stats.fronts_recomputed, 0);
  ASSERT_FALSE(sums.empty());
  EXPECT_EQ(verify_factor(sym, guarded, sums), kNone);
}

TEST(Abft, CleanRunBitwiseIdenticalLdlt) {
  const SparseMatrix a = test_matrix();
  const SymbolicFactor sym = analyze(a);
  FactorStats ref_stats;
  const CholeskyFactor reference =
      multifrontal_factor(sym, &ref_stats, FactorKind::kLdlt);
  FactorStats stats;
  const CholeskyFactor guarded =
      multifrontal_factor_abft(sym, &stats, FactorKind::kLdlt);
  expect_factors_bitwise_equal(sym, reference, guarded);
  ASSERT_EQ(reference.diag().size(), guarded.diag().size());
  for (std::size_t k = 0; k < reference.diag().size(); ++k) {
    EXPECT_EQ(reference.diag()[k], guarded.diag()[k]);
  }
  EXPECT_EQ(stats.abft_detections, 0);
}

TEST(Abft, BoostedPivotsStillCleanAndBitwiseIdentical) {
  // Static pivoting deliberately breaks the POTRF identity on boosted
  // fronts (the check is skipped there); the run must stay detection-free
  // and bitwise identical, with the same perturbation count.
  const SparseMatrix a =
      append_decoupled_rows(grid_laplacian_2d(9, 8, 5), 3, 1e-30);
  const SymbolicFactor sym = analyze(a);
  PivotPolicy pivot;
  pivot.boost = true;
  FactorStats ref_stats;
  const CholeskyFactor reference =
      multifrontal_factor(sym, &ref_stats, FactorKind::kCholesky, pivot);
  EXPECT_GT(ref_stats.pivot_perturbations, 0);
  FactorStats stats;
  const CholeskyFactor guarded = multifrontal_factor_abft(
      sym, &stats, FactorKind::kCholesky, pivot);
  expect_factors_bitwise_equal(sym, reference, guarded);
  EXPECT_EQ(stats.pivot_perturbations, ref_stats.pivot_perturbations);
  EXPECT_EQ(stats.abft_detections, 0);
}

// --- ABFT factorization: injected faults -----------------------------------

class AbftSiteP : public ::testing::TestWithParam<SdcSite> {};

TEST_P(AbftSiteP, SingleFlipDetectedAndHealedBitwiseIdentical) {
  const SparseMatrix a = test_matrix();
  const SymbolicFactor sym = analyze(a);
  const CholeskyFactor reference = multifrontal_factor(sym);
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    SdcInjection inject;
    inject.site = GetParam();
    inject.seed = seed;
    inject.bit = 62;
    inject.supernode = supernode_with_below(sym);
    ASSERT_NE(inject.supernode, kNone);
    AbftOptions options;
    options.inject = &inject;
    FactorStats stats;
    const CholeskyFactor healed = multifrontal_factor_abft(
        sym, &stats, FactorKind::kCholesky, {}, options);
    EXPECT_GE(stats.abft_detections, 1) << "seed " << seed;
    EXPECT_GE(stats.fronts_recomputed, 1) << "seed " << seed;
    expect_factors_bitwise_equal(sym, reference, healed);
  }
}

INSTANTIATE_TEST_SUITE_P(Sites, AbftSiteP,
                         ::testing::Values(SdcSite::kAssembly, SdcSite::kPotrf,
                                           SdcSite::kTrsm, SdcSite::kUpdate));

TEST(Abft, LdltFlipDetectedAndHealed) {
  const SparseMatrix a = test_matrix();
  const SymbolicFactor sym = analyze(a);
  const CholeskyFactor reference =
      multifrontal_factor(sym, nullptr, FactorKind::kLdlt);
  SdcInjection inject;
  inject.site = SdcSite::kTrsm;
  inject.supernode = supernode_with_below(sym);
  AbftOptions options;
  options.inject = &inject;
  FactorStats stats;
  const CholeskyFactor healed = multifrontal_factor_abft(
      sym, &stats, FactorKind::kLdlt, {}, options);
  EXPECT_GE(stats.abft_detections, 1);
  expect_factors_bitwise_equal(sym, reference, healed);
}

TEST(Abft, StickyFaultSurfacesAsDataCorruption) {
  const SparseMatrix a = test_matrix();
  const SymbolicFactor sym = analyze(a);
  SdcInjection inject;
  inject.site = SdcSite::kPotrf;
  inject.supernode = supernode_with_below(sym);
  inject.sticky = true;  // re-strikes on every recompute: a hard fault
  AbftOptions options;
  options.inject = &inject;
  try {
    (void)multifrontal_factor_abft(sym, nullptr, FactorKind::kCholesky, {},
                                   options);
    FAIL() << "expected kDataCorruption";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code, StatusCode::kDataCorruption);
    EXPECT_EQ(e.status().failed_supernode, inject.supernode);
  }
}

// --- At-rest verification and localized repair ------------------------------

TEST(Abft, VerifyFactorLocalizesAndRecomputeSubtreeHeals) {
  const SparseMatrix a = test_matrix();
  const SymbolicFactor sym = analyze(a);
  const CholeskyFactor reference = multifrontal_factor(sym);
  CholeskyFactor victim = multifrontal_factor(sym);
  FactorChecksums sums = compute_factor_checksums(sym, victim);
  EXPECT_EQ(verify_factor(sym, victim, sums), kNone);

  SdcInjection inject;
  inject.site = SdcSite::kStoredFactor;
  inject.supernode = sym.n_supernodes / 2;
  const index_t struck = inject_factor_bitflip(sym, victim, inject);
  EXPECT_EQ(struck, inject.supernode);
  const index_t bad = verify_factor(sym, victim, sums);
  ASSERT_EQ(bad, struck);

  const count_t healed =
      recompute_subtree(sym, bad, FactorKind::kCholesky, {}, victim, &sums);
  EXPECT_GE(healed, 1);
  EXPECT_EQ(healed, bad - first_descendant(sym, bad) + 1);
  EXPECT_EQ(verify_factor(sym, victim, sums), kNone);
  expect_factors_bitwise_equal(sym, reference, victim);
}

TEST(Abft, FirstDescendantSpansContiguousSubtrees) {
  const SparseMatrix a = test_matrix();
  const SymbolicFactor sym = analyze(a);
  // Root subtree is the whole postorder; leaves are their own subtree.
  EXPECT_EQ(first_descendant(sym, sym.n_supernodes - 1), 0);
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    const index_t fd = first_descendant(sym, s);
    EXPECT_GE(fd, 0);
    EXPECT_LE(fd, s);
  }
}

// --- Solver facade: ABFT option, injection, verify-and-repair ---------------

TEST(SolverSdc, AbftFactorizeMatchesPlainAndSolves) {
  const SparseMatrix a = test_matrix();
  const std::vector<real_t> b = random_vector(a.rows, 3);

  Solver plain;
  plain.analyze(a);
  ASSERT_TRUE(plain.factorize().ok());

  SolverOptions options;
  options.abft = true;
  Solver guarded(options);
  guarded.analyze(a);
  ASSERT_TRUE(guarded.factorize().ok());
  EXPECT_GT(guarded.report().abft_checks, 0);
  EXPECT_EQ(guarded.report().abft_detections, 0);
  EXPECT_FALSE(guarded.report().corruption_detected);
  expect_factors_bitwise_equal(guarded.symbolic(), plain.factor(),
                               guarded.factor());

  const std::vector<real_t> x = guarded.solve(b);
  EXPECT_LT(guarded.residual(x, b), 1e-10);
}

// --- ABFT on every engine and every rung of the governed ladder -------------

// The bitwise oracle: plain serial multifrontal_factor on the solver's own
// analysis (threads > 1 orders with the parallel ND, so each solver needs
// its own reference), under the Solver's default static pivoting.
CholeskyFactor serial_reference(const Solver& solver, FactorKind kind) {
  PivotPolicy pivot;
  pivot.boost = true;
  return multifrontal_factor(solver.symbolic(), nullptr, kind, pivot);
}

void expect_abft_factor_is_serial(const Solver& solver,
                                  const CholeskyFactor& got, FactorKind kind) {
  const CholeskyFactor want = serial_reference(solver, kind);
  expect_factors_bitwise_equal(solver.symbolic(), want, got);
  ASSERT_EQ(want.diag().size(), got.diag().size());
  for (std::size_t k = 0; k < want.diag().size(); ++k) {
    ASSERT_EQ(want.diag()[k], got.diag()[k]) << "d[" << k << "]";
  }
  EXPECT_GT(solver.report().abft_checks, 0);
  EXPECT_EQ(solver.report().abft_detections, 0);
}

SolverOptions abft_options(FactorKind kind, int threads) {
  SolverOptions options;
  options.abft = true;
  options.factor_kind = kind;
  options.threads = threads;
  return options;
}

class AbftEngineP : public ::testing::TestWithParam<FactorKind> {};

TEST_P(AbftEngineP, BitwiseSerialAtEveryThreadCount) {
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    Solver solver(abft_options(GetParam(), threads));
    solver.analyze(test_matrix());
    ASSERT_TRUE(solver.factorize().ok());
    EXPECT_EQ(solver.report().admission, Admission::kUnlimited);
    expect_abft_factor_is_serial(solver, solver.factor(), GetParam());
  }
}

TEST_P(AbftEngineP, BitwiseSerialUnderInCoreBudget) {
  Solver solver(abft_options(GetParam(), 4));
  solver.analyze(test_matrix());
  const WorkingSetEstimate est = estimate_working_set(
      solver.symbolic(), GetParam() == FactorKind::kLdlt);
  solver.set_memory_budget_bytes(est.peak_incore_bytes);
  ASSERT_TRUE(solver.factorize().ok());
  EXPECT_EQ(solver.report().admission, Admission::kInCore);
  expect_abft_factor_is_serial(solver, solver.factor(), GetParam());
}

TEST_P(AbftEngineP, BitwiseSerialOnSpillRung) {
  Solver solver(abft_options(GetParam(), 4));
  solver.analyze(test_matrix());
  const WorkingSetEstimate est = estimate_working_set(
      solver.symbolic(), GetParam() == FactorKind::kLdlt);
  solver.set_memory_budget_bytes(est.peak_incore_bytes - 1);
  ASSERT_TRUE(solver.factorize().ok());
  EXPECT_EQ(solver.report().admission, Admission::kSpill);
  ASSERT_TRUE(solver.factor_spilled());
  CholeskyFactor readback(solver.symbolic(), CholeskyFactor::Uninitialized{});
  solver.ooc_factor().read_factor(readback);
  expect_abft_factor_is_serial(solver, readback, GetParam());
}

TEST_P(AbftEngineP, BitwiseSerialAfterRefactorize) {
  const SparseMatrix a = test_matrix();
  SparseMatrix scaled = a;
  for (real_t& v : scaled.values) v *= 3.0;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    Solver solver(abft_options(GetParam(), threads));
    solver.analyze(a);
    ASSERT_TRUE(solver.factorize().ok());
    ASSERT_TRUE(solver.refactorize(scaled.values).ok());
    // The report is per numeric call: these checks are the refactorize's.
    expect_abft_factor_is_serial(solver, solver.factor(), GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, AbftEngineP,
                         ::testing::Values(FactorKind::kCholesky,
                                           FactorKind::kLdlt));

// A fault campaign on the 4-thread task DAG, aimed at a front with a
// below-diagonal block of that solver's own analysis.
SolverOptions threaded_campaign(SdcSite site, std::uint64_t seed,
                                bool sticky) {
  SolverOptions options = abft_options(FactorKind::kCholesky, 4);
  Solver probe(options);
  probe.analyze(test_matrix());
  options.inject_sdc = SdcInjection{};
  options.inject_sdc->site = site;
  options.inject_sdc->seed = seed;
  options.inject_sdc->supernode = supernode_with_below(probe.symbolic());
  options.inject_sdc->sticky = sticky;
  return options;
}

TEST_P(AbftSiteP, FlipOnTaskDagHealedBitwiseIdentical) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    SCOPED_TRACE(seed);
    Solver solver(threaded_campaign(GetParam(), seed, false));
    solver.analyze(test_matrix());
    ASSERT_TRUE(solver.factorize().ok());
    EXPECT_GE(solver.report().abft_detections, 1);
    EXPECT_GE(solver.report().fronts_recomputed, 1);
    expect_factors_bitwise_equal(
        solver.symbolic(), serial_reference(solver, FactorKind::kCholesky),
        solver.factor());
  }
}

TEST(SolverSdc, RepairedBoostedSubtreeOnTaskDagCountsOnce) {
  // Boosted pivots are counted per front, so a front that a repair
  // recomputes contributes its boosts once. Scaling one row and column
  // down to ~1e-30 forces a boost without decoupling the front; a flip in
  // that front's update block makes its parent re-run the subtree.
  SparseMatrix a = test_matrix();
  const index_t tiny = a.cols / 3;
  for (index_t j = 0; j < a.cols; ++j) {
    for (index_t q = a.col_ptr[j]; q < a.col_ptr[j + 1]; ++q) {
      if (j == tiny || a.row_ind[q] == tiny) a.values[q] *= 1e-30;
    }
  }
  SolverOptions options = abft_options(FactorKind::kCholesky, 4);
  Solver clean(options);
  clean.analyze(a);
  const Status clean_status = clean.factorize();
  ASSERT_FALSE(clean_status.failed()) << clean_status.to_string();
  const count_t boosts = clean.report().pivot_perturbations;
  ASSERT_GT(boosts, 0);
  const SymbolicFactor& sym = clean.symbolic();
  index_t target = kNone;
  for (index_t j = 0; j < sym.n && target == kNone; ++j) {
    if (std::abs(sym.a.values[sym.a.col_ptr[j]]) < 1e-20) target = sym.sn_of[j];
  }
  ASSERT_NE(target, kNone);
  ASSERT_GT(sym.sn_below(target), 0);

  options.inject_sdc = SdcInjection{};
  options.inject_sdc->site = SdcSite::kUpdate;
  options.inject_sdc->supernode = target;
  Solver struck(options);
  struck.analyze(a);
  const Status st = struck.factorize();
  ASSERT_FALSE(st.failed()) << st.to_string();
  EXPECT_GE(struck.report().abft_detections, 1);
  EXPECT_GE(struck.report().fronts_recomputed, 1);
  EXPECT_EQ(struck.report().pivot_perturbations, boosts);
  expect_factors_bitwise_equal(sym, clean.factor(), struck.factor());
}

TEST(SolverSdc, StickyFlipOnTaskDagReturnsDataCorruption) {
  const SolverOptions options = threaded_campaign(SdcSite::kPotrf, 1, true);
  Solver solver(options);
  solver.analyze(test_matrix());
  const Status status = solver.factorize();
  EXPECT_EQ(status.code, StatusCode::kDataCorruption);
  EXPECT_EQ(status.failed_supernode, options.inject_sdc->supernode);
  EXPECT_FALSE(solver.has_factor());
}

TEST(SolverSdc, FactorizationSiteInjectionRequiresAbft) {
  SolverOptions options;
  options.inject_sdc = SdcInjection{};  // kPotrf, abft not enabled
  Solver solver(options);
  solver.analyze(test_matrix());
  const Status status = solver.factorize();
  EXPECT_EQ(status.code, StatusCode::kInvalidInput);
}

TEST(SolverSdc, FactorTimeFlipHealedThroughFacade) {
  const SparseMatrix a = test_matrix();
  Solver plain;
  plain.analyze(a);
  ASSERT_TRUE(plain.factorize().ok());

  SolverOptions options;
  options.abft = true;
  options.inject_sdc = SdcInjection{};
  options.inject_sdc->site = SdcSite::kPotrf;
  options.inject_sdc->supernode = 0;
  Solver struck(options);
  struck.analyze(a);
  ASSERT_TRUE(struck.factorize().ok());
  EXPECT_TRUE(struck.report().corruption_detected);
  EXPECT_GE(struck.report().abft_detections, 1);
  EXPECT_GE(struck.report().fronts_recomputed, 1);
  expect_factors_bitwise_equal(struck.symbolic(), plain.factor(),
                               struck.factor());
}

TEST(SolverSdc, StoredFactorFlipHealedByLocalizedRecompute) {
  // abft arms the at-rest checksums, so the post-solve verifier localizes
  // the struck supernode and recomputes only its subtree.
  const SparseMatrix a = test_matrix();
  const std::vector<real_t> b = random_vector(a.rows, 5);

  Solver reference;
  reference.analyze(a);
  ASSERT_TRUE(reference.factorize().ok());
  const std::vector<real_t> want = reference.solve(b);

  SolverOptions options;
  options.abft = true;
  options.verify = SolverOptions::Verify::kSampled;
  options.inject_sdc = SdcInjection{};
  options.inject_sdc->site = SdcSite::kStoredFactor;
  options.inject_sdc->supernode = 1;
  Solver solver(options);
  solver.analyze(a);
  ASSERT_TRUE(solver.factorize().ok());
  const std::vector<real_t> x = solver.solve(b);
  EXPECT_TRUE(solver.report().corruption_detected);
  EXPECT_GE(solver.report().fronts_recomputed, 1);
  EXPECT_LT(solver.report().fronts_recomputed, solver.report().n_supernodes)
      << "repair should be localized, not a full refactorize";
  EXPECT_LE(solver.report().verify_residual, options.verify_tolerance);
  ASSERT_EQ(x.size(), want.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], want[i]);
}

TEST(SolverSdc, StoredFactorChecksumsSurviveSpillAndReload) {
  // A verified reload restores the factor bitwise, so the at-rest sums
  // taken at factorize still localize the flip after an eviction.
  const SparseMatrix a = test_matrix();
  const std::vector<real_t> b = random_vector(a.rows, 5);

  Solver reference;
  reference.analyze(a);
  ASSERT_TRUE(reference.factorize().ok());
  const std::vector<real_t> want = reference.solve(b);

  SolverOptions options;
  options.abft = true;
  options.verify = SolverOptions::Verify::kSampled;
  options.inject_sdc = SdcInjection{};
  options.inject_sdc->site = SdcSite::kStoredFactor;
  options.inject_sdc->supernode = 1;
  Solver solver(options);
  solver.analyze(a);
  ASSERT_TRUE(solver.factorize().ok());
  ASSERT_TRUE(solver.spill_factor().ok());
  ASSERT_TRUE(solver.unspill_factor().ok());
  const std::vector<real_t> x = solver.solve(b);
  EXPECT_TRUE(solver.report().corruption_detected);
  EXPECT_GE(solver.report().fronts_recomputed, 1);
  EXPECT_LT(solver.report().fronts_recomputed, solver.report().n_supernodes)
      << "repair should be localized, not a full refactorize";
  ASSERT_EQ(x.size(), want.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], want[i]);
}

TEST(SolverSdc, StoredFactorFlipHealedByFullRecomputeWithoutChecksums) {
  // Without abft there are no at-rest checksums: the verifier falls back
  // to recomputing the whole factor, which still restores the bitwise
  // reference answer.
  const SparseMatrix a = test_matrix();
  const std::vector<real_t> b = random_vector(a.rows, 6);

  Solver reference;
  reference.analyze(a);
  ASSERT_TRUE(reference.factorize().ok());
  const std::vector<real_t> want = reference.solve(b);

  SolverOptions options;
  options.verify = SolverOptions::Verify::kSampled;
  options.inject_sdc = SdcInjection{};
  options.inject_sdc->site = SdcSite::kStoredFactor;
  options.inject_sdc->supernode = 1;
  Solver solver(options);
  solver.analyze(a);
  ASSERT_TRUE(solver.factorize().ok());
  const std::vector<real_t> x = solver.solve(b);
  EXPECT_TRUE(solver.report().corruption_detected);
  EXPECT_EQ(solver.report().fronts_recomputed, solver.report().n_supernodes);
  ASSERT_EQ(x.size(), want.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], want[i]);
}

TEST(SolverSdc, CleanVerifiedSolveReportsResidualOnly) {
  SolverOptions options;
  options.verify = SolverOptions::Verify::kFull;
  Solver solver(options);
  const SparseMatrix a = test_matrix();
  solver.analyze(a);
  ASSERT_TRUE(solver.factorize().ok());
  const std::vector<real_t> b = random_vector(a.rows, 9);
  (void)solver.solve_multi(b, 1);
  EXPECT_FALSE(solver.report().corruption_detected);
  EXPECT_GT(solver.report().verify_residual, 0.0);
  EXPECT_LE(solver.report().verify_residual, options.verify_tolerance);
}

// --- mpsim wire-level bit flips --------------------------------------------

TEST(MpsimSdc, WireFlipWithChecksumsHealsTransparently) {
  const std::vector<double> payload = random_vector(64, 11);
  mpsim::FaultPlan plan;
  plan.bit_flips.push_back({/*rank=*/0, /*at=*/0.0, /*site=*/0,
                            /*word=*/5, /*bit=*/62});
  std::vector<double> received;
  const mpsim::RunStats stats =
      mpsim::run_spmd(2, {}, plan, [&](mpsim::Comm& comm) {
        if (comm.rank() == 0) {
          comm.send_vec(1, 7, payload);
        } else {
          received = comm.recv_vec<double>(0, 7);
        }
      });
  ASSERT_EQ(received.size(), payload.size());
  for (std::size_t i = 0; i < payload.size(); ++i) {
    EXPECT_EQ(received[i], payload[i]) << "element " << i;
  }
  EXPECT_EQ(stats.total_bit_flips, 1);
  EXPECT_GE(stats.total_corrupt_discarded, 1);
  EXPECT_GE(stats.total_retransmits, 1);
}

TEST(MpsimSdc, WireFlipWithoutChecksumsDeliversSilently) {
  // The undefended wire: the corrupted copy is delivered and the flip is
  // exactly the selected word/bit — what the downstream ABFT/verify layers
  // must catch.
  const std::vector<double> payload = random_vector(64, 12);
  mpsim::FaultPlan plan;
  plan.wire_checksums = false;
  plan.bit_flips.push_back({/*rank=*/0, /*at=*/0.0, /*site=*/0,
                            /*word=*/5, /*bit=*/62});
  std::vector<double> received;
  const mpsim::RunStats stats =
      mpsim::run_spmd(2, {}, plan, [&](mpsim::Comm& comm) {
        if (comm.rank() == 0) {
          comm.send_vec(1, 7, payload);
        } else {
          received = comm.recv_vec<double>(0, 7);
        }
      });
  ASSERT_EQ(received.size(), payload.size());
  EXPECT_EQ(received[5], flip_bit(payload[5], 62));
  for (std::size_t i = 0; i < payload.size(); ++i) {
    if (i != 5) {
      EXPECT_EQ(received[i], payload[i]) << "element " << i;
    }
  }
  EXPECT_EQ(stats.total_bit_flips, 1);
  EXPECT_EQ(stats.total_corrupt_discarded, 0);
}

TEST(MpsimSdc, BitFlipPlanValidation) {
  const auto run = [](const mpsim::FaultPlan& plan) {
    (void)mpsim::run_spmd(2, {}, plan, [](mpsim::Comm&) {});
  };
  const auto expect_invalid = [&](mpsim::FaultPlan::BitFlip flip) {
    mpsim::FaultPlan plan;
    plan.bit_flips.push_back(flip);
    try {
      run(plan);
      FAIL() << "expected kInvalidInput";
    } catch (const StatusError& e) {
      EXPECT_EQ(e.status().code, StatusCode::kInvalidInput);
    }
  };
  expect_invalid({/*rank=*/2, 0.0, 0, 0, 62});    // rank out of range
  expect_invalid({/*rank=*/-1, 0.0, 0, 0, 62});   // negative rank
  expect_invalid({0, 0.0, /*site=*/2, 0, 62});    // unknown site
  expect_invalid({0, 0.0, 0, 0, /*bit=*/64});     // bit out of range
  expect_invalid({0, 0.0, 0, 0, /*bit=*/-1});
  expect_invalid({0, /*at=*/-1.0, 0, 0, 62});     // negative fire time
  // A well-formed entry passes validation.
  mpsim::FaultPlan ok;
  ok.bit_flips.push_back({0, 0.0, 1, 3, 62});
  run(ok);
}

TEST(MpsimSdc, CheckpointSaveWithOutstandingIrecvDiagnosed) {
  // Composing buddy checkpoints with nonblocking lookahead receives is a
  // protocol error; it must come back as kInvalidInput, not an abort.
  try {
    (void)mpsim::run_spmd(2, {}, [](mpsim::Comm& comm) {
      if (comm.rank() == 0) {
        mpsim::Request r = comm.irecv(1, 3);
        comm.checkpoint_save(1, std::vector<std::byte>(8));
        (void)comm.wait(r);
      } else {
        const std::vector<double> one(1, 1.0);
        comm.send_vec(0, 3, one);
      }
    });
    FAIL() << "expected kInvalidInput";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code, StatusCode::kInvalidInput);
  }
}

// --- Distributed factorization under bit flips ------------------------------

TEST(DistSdc, WireFlipHealedFactorBitwiseIdentical) {
  const SparseMatrix a = grid_laplacian_2d(9, 8, 5);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map = spread_map(sym, 4);
  const DistFactorResult clean = distributed_factor(sym, map);
  ASSERT_TRUE(clean.status.ok());

  for (const int victim : {0, 1, 2}) {
    mpsim::FaultPlan plan;
    plan.bit_flips.push_back({victim, 0.0, /*site=*/0, /*word=*/3,
                              /*bit=*/62});
    const DistFactorResult flipped = distributed_factor(
        sym, map, {}, FactorKind::kCholesky, {}, plan);
    ASSERT_TRUE(flipped.status.ok()) << flipped.status.to_string();
    expect_factors_bitwise_equal(sym, clean.factor, flipped.factor);
    if (flipped.run.total_bit_flips > 0) {
      EXPECT_GE(flipped.run.total_corrupt_discarded, 1) << "rank " << victim;
    }
  }
}

TEST(DistSdc, CorruptCheckpointBlobDiagnosedOnRestore) {
  const SparseMatrix a = grid_laplacian_2d(9, 8, 5);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map = spread_map(sym, 4);
  ResiliencePolicy resilience;
  resilience.buddy_checkpoint = true;
  resilience.checkpoint_interval = 2;

  // Probe the clean resilient run for the victim's busy time, then corrupt
  // every checkpoint the victim stores (one fired entry each) and crash it
  // mid-run: the spare restores from a corrupt blob and the codec must
  // diagnose kDataCorruption — never resume from garbage state.
  const int victim = 1;
  const DistFactorResult probe = distributed_factor(
      sym, map, {}, FactorKind::kCholesky, {}, {}, resilience);
  ASSERT_TRUE(probe.status.ok());
  ASSERT_GT(probe.run.checkpoints_stored, 0);
  mpsim::FaultPlan plan;
  plan.crashes.push_back(
      {victim, 0.6 * probe.run.rank_time[static_cast<std::size_t>(victim)]});
  plan.spare_ranks = 1;
  for (int i = 0; i < 64; ++i) {
    plan.bit_flips.push_back({victim, 0.0, /*site=*/1,
                              /*word=*/static_cast<std::uint64_t>(i),
                              /*bit=*/7});
  }
  const DistFactorResult result = distributed_factor_checked(
      sym, map, {}, FactorKind::kCholesky, {}, plan, resilience);
  ASSERT_TRUE(result.status.failed());
  EXPECT_EQ(result.status.code, StatusCode::kDataCorruption)
      << result.status.to_string();
  // The aborted run surfaces no RunStats (the exception preempts them), so
  // the diagnosed Status is the whole observable outcome — as intended.
}

TEST(DistSdc, ResilienceComposesWithLookaheadSchedule) {
  // Satellite of the checkpoint/irecv fix: the lookahead schedule drains
  // its preposted receives before every front boundary, so buddy
  // checkpointing composes with it cleanly (no kInvalidInput) and a crash
  // recovery under lookahead is still bitwise identical.
  const SparseMatrix a = grid_laplacian_2d(9, 8, 5);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map = spread_map(sym, 4);
  DistConfig config;
  config.schedule = DistConfig::Schedule::kLookahead;
  ResiliencePolicy resilience;
  resilience.buddy_checkpoint = true;
  resilience.checkpoint_interval = 2;

  const DistFactorResult clean = distributed_factor(sym, map);
  ASSERT_TRUE(clean.status.ok());
  const DistFactorResult probe = distributed_factor(
      sym, map, {}, FactorKind::kCholesky, {}, {}, resilience, config);
  ASSERT_TRUE(probe.status.ok());
  ASSERT_GT(probe.run.checkpoints_stored, 0);

  mpsim::FaultPlan plan;
  plan.crashes.push_back({1, 0.5 * probe.run.rank_time[1]});
  plan.spare_ranks = 1;
  const DistFactorResult crashed = distributed_factor_checked(
      sym, map, {}, FactorKind::kCholesky, {}, plan, resilience, config);
  ASSERT_TRUE(crashed.status.ok()) << crashed.status.to_string();
  EXPECT_EQ(crashed.run.ranks_recovered, 1);
  expect_factors_bitwise_equal(sym, clean.factor, crashed.factor);
}

// --- Chaos soak -------------------------------------------------------------

TEST(ChaosSoak, MixedFaultsBitwiseIdenticalOrCleanStatus) {
  // Drop/duplicate/delay/ack-loss/crash/bit-flip combined over a seed
  // sweep, wire checksums on. Every run must end in either a factor
  // bitwise identical to the clean run or a diagnosed Status — completing
  // the sweep at all also proves no hang.
  const SparseMatrix a = grid_laplacian_2d(9, 8, 5);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map = spread_map(sym, 4);
  ResiliencePolicy resilience;
  resilience.buddy_checkpoint = true;
  resilience.checkpoint_interval = 4;
  const DistFactorResult clean = distributed_factor(sym, map);
  ASSERT_TRUE(clean.status.ok());
  const DistFactorResult probe = distributed_factor(
      sym, map, {}, FactorKind::kCholesky, {}, {}, resilience);
  ASSERT_TRUE(probe.status.ok());

  int healed = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    mpsim::FaultPlan plan;
    plan.seed = seed;
    plan.drop_rate = 0.05;
    plan.duplicate_rate = 0.05;
    plan.delay_rate = 0.10;
    plan.ack_drop_rate = 0.02;
    const int flip_rank = static_cast<int>(seed % 4);
    plan.bit_flips.push_back({flip_rank, 0.0, /*site=*/0, /*word=*/seed,
                              /*bit=*/static_cast<int>(seed * 6 % 64)});
    if (seed % 2 == 0) {
      const int crash_rank = static_cast<int>((seed / 2) % 4);
      plan.crashes.push_back(
          {crash_rank,
           0.5 * probe.run.rank_time[static_cast<std::size_t>(crash_rank)]});
      plan.spare_ranks = 1;
    }
    const DistFactorResult run = distributed_factor_checked(
        sym, map, {}, FactorKind::kCholesky, {}, plan, resilience);
    if (run.status.ok()) {
      expect_factors_bitwise_equal(sym, clean.factor, run.factor);
      ++healed;
    } else {
      EXPECT_NE(run.status.code, StatusCode::kOk);
      EXPECT_FALSE(run.status.message.empty());
    }
  }
  // The defenses are expected to heal the large majority of these seeds.
  EXPECT_GE(healed, 5);
}

}  // namespace
}  // namespace parfact
