// Tests for the symbolic-reuse serving engine: pattern keys, the shared
// analysis cache, the refactorize fast path, factor spill/reload, and the
// multi-session SolverService. The standing contract threads through all
// of it: a cache-hit analyze and an in-place refactorize are bitwise
// identical to their cold counterparts, across every engine, and a session
// job never observes a torn factor — it gets one of the consistent answers
// or a diagnosed Status.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/service.h"
#include "api/solver.h"
#include "api/symbolic_cache.h"
#include "mf/multifrontal.h"
#include "sparse/gen.h"
#include "support/resource.h"
#include "support/status.h"
#include "symbolic/pattern_key.h"
#include "symbolic/working_set.h"

namespace parfact {
namespace {

void expect_panels_bitwise_equal(const SymbolicFactor& sym,
                                 const CholeskyFactor& a,
                                 const CholeskyFactor& b) {
  ASSERT_EQ(a.is_ldlt(), b.is_ldlt());
  if (a.is_ldlt()) {
    const auto da = a.diag();
    const auto db = b.diag();
    ASSERT_EQ(da.size(), db.size());
    ASSERT_EQ(std::memcmp(da.data(), db.data(), da.size() * sizeof(real_t)),
              0);
  }
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    const ConstMatrixView pa = a.panel(s);
    const ConstMatrixView pb = b.panel(s);
    ASSERT_EQ(std::memcmp(pa.data, pb.data,
                          static_cast<std::size_t>(pa.rows) * pa.cols *
                              sizeof(real_t)),
              0)
        << "supernode " << s;
  }
}

SparseMatrix scaled_values(const SparseMatrix& a, real_t scale) {
  SparseMatrix out = a;
  for (real_t& v : out.values) v *= scale;
  return out;
}

/// Flips one bit in the middle of supernode `s`'s panel inside a spilled
/// scratch file (panels sit back to back in supernode order).
void flip_bit_in_spilled_panel(const std::string& path,
                               const SymbolicFactor& sym, index_t s) {
  auto panel_bytes = [&sym](index_t t) {
    return static_cast<long>(sym.front_order(t)) * sym.sn_cols(t) *
           static_cast<long>(sizeof(real_t));
  };
  long offset = panel_bytes(s) / 2;
  for (index_t t = 0; t < s; ++t) offset += panel_bytes(t);
  std::FILE* fp = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(fp, nullptr) << path;
  ASSERT_EQ(std::fseek(fp, offset, SEEK_SET), 0);
  const int byte = std::fgetc(fp);
  ASSERT_NE(byte, EOF);
  ASSERT_EQ(std::fseek(fp, offset, SEEK_SET), 0);
  ASSERT_NE(std::fputc(byte ^ 0x10, fp), EOF);
  std::fclose(fp);
}

/// A directory path that does not exist, so scratch files cannot be made.
std::string missing_dir() {
  const std::string dir = "serving_test_no_such_dir";
  std::filesystem::remove_all(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// PatternKey

TEST(PatternKeyTest, IdentifiesStructureNotValues) {
  const SparseMatrix a = grid_laplacian_2d(20, 20);
  const SparseMatrix b = scaled_values(a, 3.5);
  EXPECT_EQ(pattern_key(a), pattern_key(b));
  EXPECT_EQ(PatternKeyHash{}(pattern_key(a)),
            PatternKeyHash{}(pattern_key(b)));
}

TEST(PatternKeyTest, DiscriminatesStructureAndConfig) {
  const SparseMatrix a = grid_laplacian_2d(20, 20);
  const SparseMatrix b = grid_laplacian_2d(21, 20);
  const SparseMatrix c = grid_laplacian_3d(5, 5, 5);
  EXPECT_FALSE(pattern_key(a) == pattern_key(b));
  EXPECT_FALSE(pattern_key(a) == pattern_key(c));
  // Same structure, different configuration digest.
  EXPECT_FALSE(pattern_key(a, 1) == pattern_key(a, 2));
  // Collision guards carried verbatim.
  const PatternKey ka = pattern_key(a);
  EXPECT_EQ(ka.n, a.rows);
  EXPECT_EQ(ka.nnz, a.nnz());
}

// ---------------------------------------------------------------------------
// SymbolicCache

std::shared_ptr<const CachedAnalysis> make_entry(const SparseMatrix& lower) {
  Solver probe;  // cold analyze to manufacture a valid entry
  probe.analyze(lower);
  SymbolicFactor sym = probe.symbolic();
  std::fill(sym.a.values.begin(), sym.a.values.end(), 0.0);
  std::vector<index_t> vmap(sym.a.values.size());
  // Identity-ish map is fine for cache-mechanics tests.
  for (std::size_t q = 0; q < vmap.size(); ++q) {
    vmap[q] = static_cast<index_t>(q);
  }
  return std::make_shared<CachedAnalysis>(std::move(sym), probe.permutation(),
                                          std::move(vmap),
                                          SolveScheduleOptions{}, 0.0);
}

TEST(SymbolicCacheTest, HitMissCountsAndLruEviction) {
  const SparseMatrix g1 = grid_laplacian_2d(8, 8);
  const SparseMatrix g2 = grid_laplacian_2d(9, 9);
  const SparseMatrix g3 = grid_laplacian_2d(10, 10);
  SymbolicCache cache(2);
  EXPECT_EQ(cache.lookup(pattern_key(g1)), nullptr);
  EXPECT_EQ(cache.misses(), 1);
  cache.insert(pattern_key(g1), make_entry(g1));
  cache.insert(pattern_key(g2), make_entry(g2));
  EXPECT_NE(cache.lookup(pattern_key(g1)), nullptr);  // g1 now most recent
  EXPECT_EQ(cache.hits(), 1);
  cache.insert(pattern_key(g3), make_entry(g3));  // evicts LRU = g2
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.lookup(pattern_key(g2)), nullptr);
  EXPECT_NE(cache.lookup(pattern_key(g1)), nullptr);
  EXPECT_NE(cache.lookup(pattern_key(g3)), nullptr);
}

TEST(SymbolicCacheTest, InsertRaceIncumbentWins) {
  const SparseMatrix g = grid_laplacian_2d(8, 8);
  SymbolicCache cache(4);
  const auto first = cache.insert(pattern_key(g), make_entry(g));
  const auto second = cache.insert(pattern_key(g), make_entry(g));
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.size(), 1u);
}

// ---------------------------------------------------------------------------
// Cache-assisted analyze: bitwise identity with the cold path

class CachedAnalyzeTest : public ::testing::TestWithParam<int> {};

TEST_P(CachedAnalyzeTest, HitIsBitwiseIdenticalToCold) {
  const int threads = GetParam();
  const SparseMatrix a = grid_laplacian_2d(40, 40);
  SymbolicCache cache(8);
  SolverOptions copt;
  copt.threads = threads;
  copt.symbolic_cache = &cache;

  Solver miss(copt);
  miss.analyze(a);
  ASSERT_TRUE(miss.factorize().ok());
  EXPECT_EQ(miss.report().symbolic_cache_misses, 1);
  EXPECT_EQ(miss.report().symbolic_cache_hits, 0);

  Solver hit(copt);
  hit.analyze(a);
  ASSERT_TRUE(hit.factorize().ok());
  EXPECT_EQ(hit.report().symbolic_cache_hits, 1);

  // The adopted analysis equals the cold one exactly: structure, values,
  // permutation, and the factor computed from it.
  EXPECT_EQ(miss.symbolic().a.col_ptr, hit.symbolic().a.col_ptr);
  EXPECT_EQ(miss.symbolic().a.row_ind, hit.symbolic().a.row_ind);
  EXPECT_EQ(miss.symbolic().a.values, hit.symbolic().a.values);
  EXPECT_EQ(miss.permutation(), hit.permutation());
  expect_panels_bitwise_equal(miss.symbolic(), miss.factor(), hit.factor());

  // And against a solver with no cache at all.
  SolverOptions cold_opt;
  cold_opt.threads = threads;
  Solver cold(cold_opt);
  cold.analyze(a);
  ASSERT_TRUE(cold.factorize().ok());
  EXPECT_EQ(cold.symbolic().a.values, hit.symbolic().a.values);
  expect_panels_bitwise_equal(cold.symbolic(), cold.factor(), hit.factor());
}

INSTANTIATE_TEST_SUITE_P(SerialAndParallel, CachedAnalyzeTest,
                         ::testing::Values(1, 4));

// ---------------------------------------------------------------------------
// Refactorize: bitwise identity across engines

struct EngineCase {
  const char* name;
  int threads;
};

class RefactorizeEngineTest : public ::testing::TestWithParam<EngineCase> {};

TEST_P(RefactorizeEngineTest, BitwiseIdenticalToColdFactorize) {
  const EngineCase ec = GetParam();
  const SparseMatrix a = grid_laplacian_2d(36, 36);
  const SparseMatrix a2 = scaled_values(a, 1.75);

  SolverOptions opt;
  opt.threads = ec.threads;

  Solver solver(opt);
  solver.analyze(a);
  ASSERT_TRUE(solver.factorize().ok());
  const Status st = solver.refactorize(a2.values);
  ASSERT_TRUE(st.ok()) << st.to_string();
  EXPECT_EQ(solver.report().refactorizes, 1);

  Solver cold(opt);
  cold.analyze(a2);
  ASSERT_TRUE(cold.factorize().ok());
  expect_panels_bitwise_equal(cold.symbolic(), cold.factor(),
                              solver.factor());
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows), 1.0);
  EXPECT_EQ(cold.solve(b), solver.solve(b));
}

INSTANTIATE_TEST_SUITE_P(
    Engines, RefactorizeEngineTest,
    ::testing::Values(EngineCase{"serial", 1}, EngineCase{"taskdag", 4}),
    [](const ::testing::TestParamInfo<EngineCase>& info) {
      return info.param.name;
    });

TEST(RefactorizeTest, OocSpillPathIdentity) {
  // A budget that admits only the spill rung: refactorize degrades to the
  // governed path and the re-spilled factor matches a cold spilled run.
  const SparseMatrix a = grid_laplacian_2d(28, 28);
  const SparseMatrix a2 = scaled_values(a, 2.25);

  SolverOptions opt;
  opt.spill_path = "serving_test_ooc_a.bin";
  Solver solver(opt);
  solver.analyze(a);
  const WorkingSetEstimate est =
      estimate_working_set(solver.symbolic(), /*ldlt=*/false);
  solver.set_memory_budget_bytes(est.peak_incore_bytes - 1);
  ASSERT_TRUE(solver.factorize().ok());
  ASSERT_EQ(solver.report().admission, Admission::kSpill);
  ASSERT_TRUE(solver.refactorize(a2.values).ok());
  ASSERT_EQ(solver.report().admission, Admission::kSpill);
  ASSERT_TRUE(solver.factor_spilled());

  SolverOptions copt;
  copt.spill_path = "serving_test_ooc_b.bin";
  Solver cold(copt);
  cold.analyze(a2);
  cold.set_memory_budget_bytes(est.peak_incore_bytes - 1);
  ASSERT_TRUE(cold.factorize().ok());
  ASSERT_TRUE(cold.factor_spilled());

  const SymbolicFactor& sym = cold.symbolic();
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    const index_t rows = sym.front_order(s);
    const index_t cols = sym.sn_cols(s);
    std::vector<real_t> pa(static_cast<std::size_t>(rows) * cols);
    std::vector<real_t> pb(pa.size());
    solver.ooc_factor().read_panel(s, MatrixView{pa.data(), rows, cols, rows});
    cold.ooc_factor().read_panel(s, MatrixView{pb.data(), rows, cols, rows});
    ASSERT_EQ(std::memcmp(pa.data(), pb.data(), pa.size() * sizeof(real_t)),
              0)
        << "supernode " << s;
  }
}

TEST(RefactorizeTest, KktPerturbationCountIdentity) {
  // Decoupled near-singular rows produce a deterministic perturbation
  // count; refactorize must report exactly what a cold run reports.
  const index_t kDecoupled = 5;
  const SparseMatrix base = saddle_point_kkt(80, 40, 3, 17);
  const SparseMatrix a = append_decoupled_rows(base, kDecoupled, 1e-30);
  const SparseMatrix a2 = scaled_values(a, 1.5);

  SolverOptions opt;
  opt.factor_kind = FactorKind::kLdlt;
  opt.threads = 2;
  Solver solver(opt);
  solver.analyze(a);
  const Status first = solver.factorize();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.perturbations, kDecoupled);

  const Status re = solver.refactorize(a2.values);
  ASSERT_TRUE(re.ok());

  Solver cold(opt);
  cold.analyze(a2);
  const Status cs = cold.factorize();
  ASSERT_TRUE(cs.ok());
  EXPECT_EQ(re.perturbations, cs.perturbations);
  EXPECT_EQ(solver.report().pivot_perturbations,
            cold.report().pivot_perturbations);
  expect_panels_bitwise_equal(cold.symbolic(), cold.factor(),
                              solver.factor());
}

TEST(RefactorizeTest, ValueLengthMismatchDiagnosed) {
  const SparseMatrix a = grid_laplacian_2d(12, 12);
  Solver solver;
  solver.analyze(a);
  ASSERT_TRUE(solver.factorize().ok());
  std::vector<real_t> short_values(a.values.size() - 1, 1.0);
  const Status st = solver.refactorize(short_values);
  EXPECT_EQ(st.code, StatusCode::kInvalidInput);
  // The previous factor is untouched and still solves.
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows), 1.0);
  const std::vector<real_t> x = solver.solve(b);
  EXPECT_LT(solver.residual(x, b), 1e-12);
}

TEST(RefactorizeTest, AfterCancelReproducesUnbudgetedFactor) {
  const SparseMatrix a = grid_laplacian_2d(30, 30);
  const SparseMatrix a2 = scaled_values(a, 1.25);
  Solver solver;
  solver.analyze(a);
  ASSERT_TRUE(solver.factorize().ok());

  solver.cancel();
  const Status cancelled = solver.refactorize(a2.values);
  EXPECT_EQ(cancelled.code, StatusCode::kCancelled);
  EXPECT_FALSE(solver.has_factor());

  // The solver is immediately reusable and the retry is bitwise identical
  // to an uninterrupted cold run on the same values.
  const Status retry = solver.refactorize(a2.values);
  ASSERT_TRUE(retry.ok()) << retry.to_string();
  Solver cold;
  cold.analyze(a2);
  ASSERT_TRUE(cold.factorize().ok());
  expect_panels_bitwise_equal(cold.symbolic(), cold.factor(),
                              solver.factor());
}

// ---------------------------------------------------------------------------
// Explicit spill / unspill

TEST(SpillFactorTest, RoundtripPreservesSolvesBitwise) {
  const SparseMatrix a = grid_laplacian_2d(24, 24);
  SolverOptions opt;
  opt.spill_path = "serving_test_spill.bin";
  Solver solver(opt);
  EXPECT_ANY_THROW((void)solver.spill_factor());  // before analyze: assert

  solver.analyze(a);
  EXPECT_EQ(solver.spill_factor().code, StatusCode::kInvalidInput);
  EXPECT_EQ(solver.unspill_factor().code, StatusCode::kInvalidInput);
  ASSERT_TRUE(solver.factorize().ok());
  const std::size_t incore_bytes = solver.factor_bytes();
  EXPECT_GT(incore_bytes, 0u);

  const std::vector<real_t> b(static_cast<std::size_t>(a.rows), 1.0);
  const std::vector<real_t> x_incore = solver.solve(b);

  ASSERT_TRUE(solver.spill_factor().ok());
  EXPECT_TRUE(solver.factor_spilled());
  ASSERT_TRUE(solver.spill_factor().ok());  // idempotent
  EXPECT_EQ(solver.solve(b), x_incore);     // streamed solve, same answer

  ASSERT_TRUE(solver.unspill_factor().ok());
  EXPECT_FALSE(solver.factor_spilled());
  EXPECT_EQ(solver.factor_bytes(), incore_bytes);
  EXPECT_EQ(solver.solve(b), x_incore);
}

TEST(SpillFactorTest, UnwritableScratchReturnsStatusAndKeepsFactor) {
  const SparseMatrix a = grid_laplacian_2d(24, 24);
  SolverOptions opt;
  opt.spill_path = missing_dir() + "/spill.bin";
  Solver solver(opt);
  solver.analyze(a);
  ASSERT_TRUE(solver.factorize().ok());
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows), 1.0);
  const std::vector<real_t> x_incore = solver.solve(b);
  const std::size_t incore_bytes = solver.factor_bytes();

  Status status;
  EXPECT_NO_THROW(status = solver.spill_factor());
  EXPECT_EQ(status.code, StatusCode::kResourceExhausted);
  EXPECT_NE(status.message.find(opt.spill_path), std::string::npos)
      << status.message;
  EXPECT_FALSE(solver.factor_spilled());
  EXPECT_EQ(solver.factor_bytes(), incore_bytes);
  EXPECT_EQ(solver.solve(b), x_incore);
}

TEST(SpillFactorTest, CorruptedScratchNamesThePanel) {
  const SparseMatrix a = grid_laplacian_2d(24, 24);
  SolverOptions opt;
  opt.spill_path = "serving_test_corrupt_spill.bin";
  Solver solver(opt);
  solver.analyze(a);
  ASSERT_TRUE(solver.factorize().ok());
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows), 1.0);
  const std::vector<real_t> x_incore = solver.solve(b);
  ASSERT_TRUE(solver.spill_factor().ok());

  const SymbolicFactor& sym = solver.symbolic();
  ASSERT_GE(sym.n_supernodes, 3);
  const index_t mid = sym.n_supernodes / 2;
  flip_bit_in_spilled_panel(solver.ooc_factor().path(), sym, mid);

  const Status status = solver.unspill_factor();
  EXPECT_EQ(status.code, StatusCode::kDataCorruption);
  EXPECT_EQ(status.failed_supernode, mid);
  // The spilled state is kept for the caller to decide what to do.
  EXPECT_TRUE(solver.factor_spilled());
  ASSERT_TRUE(solver.factorize().ok());
  EXPECT_EQ(solver.solve(b), x_incore);
}

// ---------------------------------------------------------------------------
// Clean eviction: a reloaded factor keeps its scratch copy, and every path
// that changes the factor's values must drop it — otherwise the next
// eviction would free the new factor and a reload would bring back the old.

/// Fresh-Solver reference: factorize `a` (shared-memory or distributed
/// engine) and solve `b`.
std::vector<real_t> fresh_solve(const SparseMatrix& a,
                                const std::vector<real_t>& b,
                                bool distributed) {
  SolverOptions opt;
  opt.threads = 2;
  Solver solver(opt);
  solver.analyze(a);
  const Status st =
      distributed ? solver.factorize_distributed(4) : solver.factorize();
  EXPECT_TRUE(st.ok()) << st.to_string();
  return solver.solve(b);
}

/// Evicts and reloads `solver`, checking that the eviction wrote a fresh
/// copy (the numeric call dropped the stale one) and that the streamed and
/// reloaded solves both equal `want`.
void expect_evict_reload_solves(Solver& solver, const std::vector<real_t>& b,
                                const std::vector<real_t>& want) {
  EXPECT_FALSE(solver.factor_on_disk()) << "stale scratch copy kept";
  ASSERT_TRUE(solver.spill_factor().ok());
  EXPECT_EQ(solver.solve(b), want);
  ASSERT_TRUE(solver.unspill_factor().ok());
  EXPECT_TRUE(solver.factor_on_disk());
  EXPECT_EQ(solver.solve(b), want);
}

TEST(CleanEvictionTest, FastPathRefactorizeDropsStaleCopy) {
  const SparseMatrix a = grid_laplacian_2d(24, 24);
  const SparseMatrix a2 = scaled_values(a, 3.0);
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows), 1.0);
  const std::vector<real_t> want = fresh_solve(a2, b, false);
  ASSERT_NE(want, fresh_solve(a, b, false));

  SolverOptions opt;
  opt.threads = 2;
  opt.spill_path = "serving_test_clean_refac.bin";
  Solver solver(opt);
  solver.analyze(a);
  ASSERT_TRUE(solver.factorize().ok());
  ASSERT_TRUE(solver.spill_factor().ok());
  ASSERT_TRUE(solver.unspill_factor().ok());
  ASSERT_TRUE(solver.factor_on_disk());
  ASSERT_TRUE(solver.refactorize(a2.values).ok());  // in-place fast path
  expect_evict_reload_solves(solver, b, want);
}

// The distributed factor differs from the shared-memory one in the last
// bits, so a copy made by one engine is stale for the other even on the
// same values: each numeric entry point must drop it.
TEST(CleanEvictionTest, EveryNumericEntryPointDropsStaleCopy) {
  const SparseMatrix a = grid_laplacian_3d(9, 9, 9);
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows), 1.0);
  const std::vector<real_t> x_shared = fresh_solve(a, b, false);
  const std::vector<real_t> x_dist = fresh_solve(a, b, true);
  ASSERT_NE(x_shared, x_dist) << "engines agree bitwise: test is vacuous";

  struct Case {
    const char* name;
    bool copy_from_distributed;
    std::function<Status(Solver&)> call;
  };
  const std::vector<Case> cases = {
      {"factorize", true, [](Solver& s) { return s.factorize(); }},
      {"factorize_and_solve", true,
       [&b](Solver& s) {
         std::vector<real_t> x;
         return s.factorize_and_solve(b, 1, x);
       }},
      {"factorize_distributed", false,
       [](Solver& s) { return s.factorize_distributed(4); }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    SolverOptions opt;
    opt.threads = 2;
    opt.spill_path = std::string("serving_test_clean_") + c.name + ".bin";
    Solver solver(opt);
    solver.analyze(a);
    ASSERT_TRUE((c.copy_from_distributed ? solver.factorize_distributed(4)
                                         : solver.factorize())
                    .ok());
    ASSERT_TRUE(solver.spill_factor().ok());
    ASSERT_TRUE(solver.unspill_factor().ok());
    ASSERT_TRUE(solver.factor_on_disk());
    const Status st = c.call(solver);
    ASSERT_TRUE(st.ok()) << st.to_string();
    expect_evict_reload_solves(solver, b,
                               c.copy_from_distributed ? x_shared : x_dist);
  }
}

TEST(CleanEvictionTest, VerifyRepairDropsCopyOfCorruptFactor) {
  // A stored-factor flip is spilled and reloaded intact (the checksums
  // cover what was written); the verified solve repairs it in place. The
  // next eviction must write the repaired factor, not free it cleanly.
  const SparseMatrix a = grid_laplacian_2d(24, 24);
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows), 1.0);
  Solver reference;
  reference.analyze(a);
  ASSERT_TRUE(reference.factorize().ok());
  const std::vector<real_t> want = reference.solve(b);

  SolverOptions opt;
  opt.verify = SolverOptions::Verify::kFull;
  opt.inject_sdc = SdcInjection{};
  opt.inject_sdc->site = SdcSite::kStoredFactor;
  opt.inject_sdc->supernode = 1;
  opt.spill_path = "serving_test_clean_repair.bin";
  Solver solver(opt);
  solver.analyze(a);
  ASSERT_TRUE(solver.factorize().ok());
  ASSERT_TRUE(solver.spill_factor().ok());
  ASSERT_TRUE(solver.unspill_factor().ok());
  EXPECT_EQ(solver.solve(b), want);
  EXPECT_TRUE(solver.report().corruption_detected);

  ASSERT_FALSE(solver.factor_on_disk());
  ASSERT_TRUE(solver.spill_factor().ok());
  ASSERT_TRUE(solver.unspill_factor().ok());
  expect_panels_bitwise_equal(reference.symbolic(), reference.factor(),
                              solver.factor());
  const count_t recomputed = solver.report().fronts_recomputed;
  EXPECT_EQ(solver.solve(b), want);
  EXPECT_EQ(solver.report().fronts_recomputed, recomputed);
}

// ---------------------------------------------------------------------------
// factorize_and_solve: the fused entry shares every numeric call's
// bookkeeping (stale-factor reset, cancel scope, Status-only failures)

TEST(FactorizeAndSolveTest, ReplacesSpilledFactor) {
  const SparseMatrix a = grid_laplacian_2d(24, 24);
  SolverOptions opt;
  opt.threads = 2;
  opt.spill_path = "serving_test_fused_spill.bin";
  Solver solver(opt);
  solver.analyze(a);
  ASSERT_TRUE(solver.factorize().ok());
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows), 1.0);
  const std::vector<real_t> x_ref = solver.solve(b);
  ASSERT_TRUE(solver.spill_factor().ok());
  ASSERT_TRUE(solver.factor_spilled());

  std::vector<real_t> x;
  const Status st = solver.factorize_and_solve(b, 1, x);
  ASSERT_TRUE(st.ok()) << st.to_string();
  EXPECT_FALSE(solver.factor_spilled());
  EXPECT_EQ(x, x_ref);
  EXPECT_EQ(solver.solve(b), x_ref);
}

TEST(FactorizeAndSolveTest, HonoursAndClearsCancel) {
  const SparseMatrix a = grid_laplacian_2d(24, 24);
  SolverOptions opt;
  opt.threads = 2;
  Solver solver(opt);
  solver.analyze(a);
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows), 1.0);

  solver.cancel();
  std::vector<real_t> x;
  const Status cancelled = solver.factorize_and_solve(b, 1, x);
  EXPECT_EQ(cancelled.code, StatusCode::kCancelled) << cancelled.to_string();
  EXPECT_FALSE(solver.has_factor());

  // The cancel was consumed: the next call runs to completion.
  const Status retry = solver.factorize();
  EXPECT_TRUE(retry.ok()) << retry.to_string();
}

TEST(FactorizeAndSolveTest, KeepsAbftChecksWhenRequested) {
  // The fused graph has no checksum stages: with options.abft the call
  // must take the ABFT factorize() path instead of skipping the checks.
  const SparseMatrix a = grid_laplacian_2d(24, 24);
  SolverOptions opt;
  opt.threads = 2;
  opt.abft = true;
  Solver solver(opt);
  solver.analyze(a);
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows), 1.0);
  std::vector<real_t> x;
  const Status st = solver.factorize_and_solve(b, 1, x);
  ASSERT_TRUE(st.ok()) << st.to_string();
  EXPECT_GT(solver.report().abft_checks, 0);
  EXPECT_LT(solver.residual(x, b), 1e-12);
}

TEST(FactorizeAndSolveTest, BreakdownIsReturnedNotThrown) {
  const SparseMatrix a = saddle_point_kkt(30, 15, 3, 5);
  SolverOptions opt;
  opt.threads = 2;
  opt.static_pivoting = false;
  Solver solver(opt);
  solver.analyze(a);
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows), 1.0);
  std::vector<real_t> x;
  Status st;
  EXPECT_NO_THROW(st = solver.factorize_and_solve(b, 1, x));
  EXPECT_EQ(st.code, StatusCode::kBreakdown) << st.to_string();
  EXPECT_GE(st.failed_supernode, 0);
  EXPECT_FALSE(solver.has_factor());
}

// ---------------------------------------------------------------------------
// SolverService

TEST(SolverServiceTest, SessionLifecycleAndDiagnosedErrors) {
  const SparseMatrix a = grid_laplacian_2d(16, 16);
  SolverService svc;
  std::vector<real_t> x;
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows), 1.0);

  EXPECT_EQ(svc.solve(42, b, x).code, StatusCode::kInvalidInput);
  EXPECT_EQ(svc.factorize(42).code, StatusCode::kInvalidInput);
  EXPECT_EQ(svc.close(42).code, StatusCode::kInvalidInput);

  SessionId id = 0;
  ASSERT_TRUE(svc.open(a, id).ok());
  EXPECT_EQ(svc.solve(id, b, x).code, StatusCode::kInvalidInput);  // no factor
  ASSERT_TRUE(svc.factorize(id).ok());
  ASSERT_TRUE(svc.solve(id, b, x).ok());

  Solver reference;
  reference.analyze(a);
  ASSERT_TRUE(reference.factorize().ok());
  EXPECT_EQ(x, reference.solve(b));

  SolverReport report;
  ASSERT_TRUE(svc.report(id, report).ok());
  EXPECT_EQ(report.n, a.rows);
  ASSERT_TRUE(svc.close(id).ok());
  EXPECT_EQ(svc.close(id).code, StatusCode::kInvalidInput);
  EXPECT_EQ(svc.stats().sessions_open, 0);
}

TEST(SolverServiceTest, SymbolicReuseAcrossSessions) {
  const SparseMatrix a = grid_laplacian_2d(24, 24);
  const count_t kSessions = 6;
  SolverService svc;
  for (count_t i = 0; i < kSessions; ++i) {
    SessionId id = 0;
    ASSERT_TRUE(svc.open(a, id).ok());
    ASSERT_TRUE(svc.factorize(id).ok());
  }
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.symbolic_cache_misses, 1);
  EXPECT_EQ(stats.symbolic_cache_hits, kSessions - 1);
  EXPECT_EQ(stats.sessions_open, kSessions);
}

TEST(SolverServiceTest, LruEvictionSpillsAndReloadsTransparently) {
  const SparseMatrix a = grid_laplacian_2d(30, 30);
  Solver probe;
  probe.analyze(a);
  ASSERT_TRUE(probe.factorize().ok());
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows), 1.0);
  const std::vector<real_t> x_ref = probe.solve(b);

  ServiceOptions opt;
  // Room for two resident factors: the third factorize must evict.
  opt.factor_cache_bytes = probe.factor_bytes() * 2 + 1024;
  SolverService svc(opt);
  SessionId ids[3];
  for (SessionId& id : ids) {
    ASSERT_TRUE(svc.open(a, id).ok());
    ASSERT_TRUE(svc.factorize(id).ok());
  }
  const ServiceStats stats = svc.stats();
  EXPECT_GE(stats.sessions_evicted, 1);
  EXPECT_LE(stats.factor_cache_bytes, opt.factor_cache_bytes);

  // Touching the evicted (coldest) session still returns the exact answer —
  // reloaded in-core (evicting someone else) or streamed from disk.
  std::vector<real_t> x;
  ASSERT_TRUE(svc.solve(ids[0], b, x).ok());
  EXPECT_EQ(x, x_ref);
  SolverReport report;
  ASSERT_TRUE(svc.report(ids[0], report).ok());
  EXPECT_GE(report.sessions_evicted, 1);
}

TEST(SolverServiceTest, UnwritableSpillDirNeverThrows) {
  const SparseMatrix a = grid_laplacian_2d(30, 30);
  Solver probe;
  probe.analyze(a);
  ASSERT_TRUE(probe.factorize().ok());
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows), 1.0);
  const std::vector<real_t> x_ref = probe.solve(b);

  ServiceOptions opt;
  opt.spill_dir = missing_dir();
  // Room for one resident factor: the second factorize tries to evict the
  // first, whose spill cannot create its scratch file.
  opt.factor_cache_bytes = probe.factor_bytes() + 1024;
  SolverService svc(opt);
  SessionId ids[2];
  for (SessionId& id : ids) {
    ASSERT_TRUE(svc.open(a, id).ok());
    Status status;
    EXPECT_NO_THROW(status = svc.factorize(id));
    EXPECT_TRUE(status.ok()) << status.to_string();
  }
  EXPECT_EQ(svc.stats().sessions_evicted, 0);
  for (const SessionId id : ids) {
    std::vector<real_t> x;
    Status status;
    EXPECT_NO_THROW(status = svc.solve(id, b, x));
    ASSERT_TRUE(status.ok()) << status.to_string();
    EXPECT_EQ(x, x_ref);
  }
}

TEST(SolverServiceTest, CorruptedSpillIsRefactorizedOnNextSolve) {
  const SparseMatrix a = grid_laplacian_2d(30, 30);
  Solver probe;
  probe.analyze(a);
  ASSERT_TRUE(probe.factorize().ok());
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows), 1.0);
  const std::vector<real_t> x_ref = probe.solve(b);

  const std::filesystem::path dir = "serving_test_corrupt_dir";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ServiceOptions opt;
  opt.spill_dir = dir.string();
  opt.factor_cache_bytes = probe.factor_bytes() + 1024;  // one resident
  {
    SolverService svc(opt);
    SessionId ids[2];
    for (SessionId& id : ids) {
      ASSERT_TRUE(svc.open(a, id).ok());
      ASSERT_TRUE(svc.factorize(id).ok());
    }
    ASSERT_EQ(svc.stats().sessions_evicted, 1);  // ids[0] went to disk

    // The only scratch file is the evicted session's.
    std::vector<std::filesystem::path> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      files.push_back(entry.path());
    }
    ASSERT_EQ(files.size(), 1u);
    const SymbolicFactor& sym = probe.symbolic();
    ASSERT_GE(sym.n_supernodes, 3);
    flip_bit_in_spilled_panel(files[0].string(), sym, sym.n_supernodes / 2);

    // Reloading fails its checksum; the service re-factorizes the session
    // from its matrix and answers exactly as a fresh solver does.
    std::vector<real_t> x;
    const Status status = svc.solve(ids[0], b, x);
    ASSERT_TRUE(status.ok()) << status.to_string();
    EXPECT_EQ(x, x_ref);
  }
  std::filesystem::remove_all(dir);
}

/// The service's scratch file for session `id` in `dir`.
std::filesystem::path session_file(const std::filesystem::path& dir,
                                   SessionId id) {
  std::string suffix = std::to_string(id);
  suffix.insert(0, 1, '_');
  suffix.append(".bin");
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().ends_with(suffix)) {
      return entry.path();
    }
  }
  return {};
}

std::string file_bytes(const std::filesystem::path& path) {
  std::FILE* fp = std::fopen(path.string().c_str(), "rb");
  if (fp == nullptr) return {};
  std::string bytes;
  char buf[1 << 14];
  for (std::size_t got; (got = std::fread(buf, 1, sizeof buf, fp)) > 0;) {
    bytes.append(buf, got);
  }
  std::fclose(fp);
  return bytes;
}

TEST(SolverServiceTest, CleanEvictionWritesNothing) {
  const SparseMatrix a = grid_laplacian_2d(30, 30);
  Solver probe;
  probe.analyze(a);
  ASSERT_TRUE(probe.factorize().ok());
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows), 1.0);
  const std::vector<real_t> x_ref = probe.solve(b);

  const std::filesystem::path dir = "serving_test_clean_dir";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ServiceOptions opt;
  opt.spill_dir = dir.string();
  opt.factor_cache_bytes = probe.factor_bytes() + 1024;  // one resident
  {
    SolverService svc(opt);
    SessionId ids[2];
    for (SessionId& id : ids) {
      ASSERT_TRUE(svc.open(a, id).ok());
      ASSERT_TRUE(svc.factorize(id).ok());
    }
    std::vector<real_t> x;
    ASSERT_TRUE(svc.solve(ids[0], b, x).ok());  // reload 0, evict 1
    EXPECT_EQ(x, x_ref);
    ServiceStats stats = svc.stats();
    ASSERT_EQ(stats.sessions_evicted, 2);
    EXPECT_EQ(stats.evictions_clean, 0);  // both factors were new

    // Session 0 is resident and keeps its reloaded file as its copy.
    const std::filesystem::path file0 = session_file(dir, ids[0]);
    ASSERT_FALSE(file0.empty());
    const std::string before = file_bytes(file0);
    const auto mtime = std::filesystem::last_write_time(file0);
    ASSERT_TRUE(svc.solve(ids[1], b, x).ok());  // reload 1, evict 0 clean
    EXPECT_EQ(x, x_ref);
    stats = svc.stats();
    EXPECT_EQ(stats.sessions_evicted, 3);
    EXPECT_EQ(stats.evictions_clean, 1);
    EXPECT_EQ(std::filesystem::file_size(file0), before.size());
    EXPECT_EQ(std::filesystem::last_write_time(file0), mtime);
    EXPECT_EQ(file_bytes(file0), before);

    // A refactorize changes session 1's values: its next eviction writes.
    ASSERT_TRUE(svc.refactorize(ids[1], a.values).ok());
    ASSERT_TRUE(svc.solve(ids[0], b, x).ok());  // reload 0, evict 1 dirty
    EXPECT_EQ(x, x_ref);
    stats = svc.stats();
    EXPECT_EQ(stats.sessions_evicted, 4);
    EXPECT_EQ(stats.evictions_clean, 1);
  }
  std::filesystem::remove_all(dir);
}

TEST(SolverServiceTest, CorruptionAfterCleanEvictionIsRefactorized) {
  const SparseMatrix a = grid_laplacian_2d(30, 30);
  Solver probe;
  probe.analyze(a);
  ASSERT_TRUE(probe.factorize().ok());
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows), 1.0);
  const std::vector<real_t> x_ref = probe.solve(b);

  const std::filesystem::path dir = "serving_test_clean_corrupt_dir";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ServiceOptions opt;
  opt.spill_dir = dir.string();
  opt.factor_cache_bytes = probe.factor_bytes() + 1024;  // one resident
  {
    SolverService svc(opt);
    SessionId ids[2];
    for (SessionId& id : ids) {
      ASSERT_TRUE(svc.open(a, id).ok());
      ASSERT_TRUE(svc.factorize(id).ok());
    }
    std::vector<real_t> x;
    ASSERT_TRUE(svc.solve(ids[0], b, x).ok());  // reload 0, evict 1

    // Corrupt session 0's kept copy while it is resident, then evict it
    // cleanly: the bad file stays as it is and the reload must catch it.
    const SymbolicFactor& sym = probe.symbolic();
    ASSERT_GE(sym.n_supernodes, 3);
    flip_bit_in_spilled_panel(session_file(dir, ids[0]).string(), sym,
                              sym.n_supernodes / 2);
    ASSERT_TRUE(svc.solve(ids[1], b, x).ok());  // reload 1, evict 0 clean
    ASSERT_EQ(svc.stats().evictions_clean, 1);

    const Status status = svc.solve(ids[0], b, x);
    ASSERT_TRUE(status.ok()) << status.to_string();
    EXPECT_EQ(x, x_ref);
  }
  std::filesystem::remove_all(dir);
}

TEST(SolverServiceTest, RefactorizeThroughService) {
  const SparseMatrix a = grid_laplacian_2d(20, 20);
  const SparseMatrix a2 = scaled_values(a, 4.0);
  SolverService svc;
  SessionId id = 0;
  ASSERT_TRUE(svc.open(a, id).ok());
  ASSERT_TRUE(svc.factorize(id).ok());
  ASSERT_TRUE(svc.refactorize(id, a2.values).ok());

  Solver cold;
  cold.analyze(a2);
  ASSERT_TRUE(cold.factorize().ok());
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows), 1.0);
  std::vector<real_t> x;
  ASSERT_TRUE(svc.solve(id, b, x).ok());
  EXPECT_EQ(x, cold.solve(b));
  EXPECT_EQ(svc.stats().refactorizes, 1);

  std::vector<real_t> short_values(a.values.size() - 1, 1.0);
  EXPECT_EQ(svc.refactorize(id, short_values).code,
            StatusCode::kInvalidInput);
}

// The hardening contract: solves racing a pending refactorize on one
// session serialize — every returned solution is exactly one of the two
// consistent answers, never a mix of old and new factor panels.
TEST(SolverServiceTest, ConcurrentSolveDuringRefactorizeNeverTears) {
  const SparseMatrix a = grid_laplacian_2d(24, 24);
  const SparseMatrix a2 = scaled_values(a, 2.0);
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows), 1.0);

  Solver ref1;
  ref1.analyze(a);
  ASSERT_TRUE(ref1.factorize().ok());
  const std::vector<real_t> x1 = ref1.solve(b);
  Solver ref2;
  ref2.analyze(a2);
  ASSERT_TRUE(ref2.factorize().ok());
  const std::vector<real_t> x2 = ref2.solve(b);
  ASSERT_NE(x1, x2);

  ServiceOptions opt;
  opt.max_concurrent_jobs = 4;
  SolverService svc(opt);
  SessionId id = 0;
  ASSERT_TRUE(svc.open(a, id).ok());
  ASSERT_TRUE(svc.factorize(id).ok());

  std::atomic<int> inconsistent{0};
  std::atomic<int> failures{0};
  const int kSolvers = 3;
  const int kRounds = 25;
  std::vector<std::thread> threads;
  threads.reserve(kSolvers + 1);
  for (int t = 0; t < kSolvers; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        std::vector<real_t> x;
        if (!svc.solve(id, b, x).ok()) {
          ++failures;
        } else if (x != x1 && x != x2) {
          ++inconsistent;
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < kRounds; ++i) {
      if (!svc.refactorize(id, (i % 2 != 0) ? a.values : a2.values).ok()) {
        ++failures;
      }
    }
  });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(inconsistent.load(), 0);
  EXPECT_EQ(svc.stats().jobs_completed,
            static_cast<count_t>(kSolvers * kRounds + kRounds + 1));
}

TEST(SolverServiceTest, BatchSolveMatchesSolverBatch) {
  const SparseMatrix a = grid_laplacian_2d(18, 18);
  const index_t nrhs = 5;
  std::vector<real_t> b(static_cast<std::size_t>(a.rows) * nrhs);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<real_t>(i % 13) - 6.0;
  }
  SolverService svc;
  SessionId id = 0;
  ASSERT_TRUE(svc.open(a, id).ok());
  ASSERT_TRUE(svc.factorize(id).ok());
  std::vector<real_t> x;
  ASSERT_TRUE(svc.solve_batch(id, b, nrhs, x).ok());

  Solver reference;
  reference.analyze(a);
  ASSERT_TRUE(reference.factorize().ok());
  EXPECT_EQ(x, reference.solve_batch(b, nrhs));
}

// Serving counters survive analyze()'s report reset and accumulate.
TEST(SolverReportTest, ServingCountersAccumulate) {
  const SparseMatrix a = grid_laplacian_2d(14, 14);
  const SparseMatrix a2 = scaled_values(a, 1.5);
  SymbolicCache cache(4);
  SolverOptions opt;
  opt.symbolic_cache = &cache;
  Solver solver(opt);
  solver.analyze(a);
  ASSERT_TRUE(solver.factorize().ok());
  ASSERT_TRUE(solver.refactorize(a2.values).ok());
  solver.analyze(a);  // hit (same pattern), counters must accumulate
  EXPECT_EQ(solver.report().symbolic_cache_misses, 1);
  EXPECT_EQ(solver.report().symbolic_cache_hits, 1);
  EXPECT_EQ(solver.report().refactorizes, 1);
}

}  // namespace
}  // namespace parfact
