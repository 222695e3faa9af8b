// Tests for the out-of-core factorization and the Schur complement API.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <vector>

#include <gtest/gtest.h>

#include "api/schur.h"
#include "dense/kernels.h"
#include "api/solver.h"
#include "mf/multifrontal.h"
#include "mf/ooc.h"
#include "solve/solve.h"
#include "sparse/gen.h"
#include "sparse/ops.h"
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

std::string scratch_path(const char* name) {
  return std::string("/tmp/parfact_ooc_test_") + name + ".bin";
}

TEST(Ooc, PanelsMatchInCoreFactor) {
  const SparseMatrix a = grid_laplacian_2d(15, 14, 5);
  const SymbolicFactor sym = analyze(a);
  const CholeskyFactor in_core = multifrontal_factor(sym);
  FactorStats stats;
  const OocCholeskyFactor ooc =
      multifrontal_factor_ooc(sym, scratch_path("match"), &stats);
  // Disk footprint = full (rows x cols) panels, which is at least the
  // stored factor entries.
  EXPECT_GE(ooc.bytes_on_disk(),
            sym.nnz_stored * static_cast<count_t>(sizeof(real_t)));

  std::vector<real_t> buf;
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    const index_t f = sym.front_order(s);
    const index_t p = sym.sn_cols(s);
    buf.assign(static_cast<std::size_t>(f) * p, 0.0);
    MatrixView panel{buf.data(), f, p, f};
    ooc.read_panel(s, panel);
    const ConstMatrixView ref = in_core.panel(s);
    for (index_t j = 0; j < p; ++j) {
      for (index_t i = j; i < f; ++i) {
        ASSERT_EQ(panel.at(i, j), ref.at(i, j)) << "sn " << s;
      }
    }
  }
}

TEST(Ooc, SolveMatchesInCore) {
  const SparseMatrix a = elasticity_3d(4, 3, 3);
  const SymbolicFactor sym = analyze_nested_dissection(a);
  const CholeskyFactor in_core = multifrontal_factor(sym);
  const OocCholeskyFactor ooc =
      multifrontal_factor_ooc(sym, scratch_path("solve"));
  const index_t nrhs = 3;
  std::vector<real_t> b = random_vector(sym.n * nrhs, 7);
  std::vector<real_t> x1 = b;
  std::vector<real_t> x2 = b;
  solve_in_place(in_core, MatrixView{x1.data(), sym.n, nrhs, sym.n});
  ooc_solve_in_place(ooc, MatrixView{x2.data(), sym.n, nrhs, sym.n});
  for (std::size_t i = 0; i < x1.size(); ++i) ASSERT_EQ(x1[i], x2[i]);
}

TEST(Ooc, ResidentMemoryBelowFactorAndRatioImprovesWithSize) {
  // The resident peak (active front + update stack) must be below the
  // factor size, and the ratio must improve as the problem grows — the
  // point of the OOC mode.
  const auto ratio = [](index_t g) {
    const SparseMatrix a = grid_laplacian_3d(g, g, g, 7);
    const SymbolicFactor sym = analyze_nested_dissection(a);
    FactorStats stats;
    const OocCholeskyFactor ooc =
        multifrontal_factor_ooc(sym, scratch_path("mem"), &stats);
    EXPECT_GT(ooc.bytes_on_disk(),
              sym.nnz_stored * static_cast<count_t>(sizeof(real_t)));
    return static_cast<double>(stats.peak_update_bytes) /
           static_cast<double>(ooc.bytes_on_disk());
  };
  // Panel-level OOC keeps the active front + update stack resident, so the
  // resident fraction stays clearly below 1 (it does not vanish: the root
  // front shares the factor's asymptotic growth on 3-D problems).
  EXPECT_LT(ratio(10), 0.85);
  EXPECT_LT(ratio(16), 0.85);
}

TEST(Ooc, FileIsRemovedOnDestruction) {
  const std::string path = scratch_path("cleanup");
  {
    const SparseMatrix a = banded_spd(30, 2);
    const SymbolicFactor sym = analyze(a);
    const OocCholeskyFactor ooc = multifrontal_factor_ooc(sym, path);
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_EQ(f, nullptr);
  if (f != nullptr) std::fclose(f);
}

TEST(Ooc, ChecksumDetectsExternalCorruption) {
  const std::string path = scratch_path("corrupt");
  const SparseMatrix a = grid_laplacian_2d(10, 10, 5);
  const SymbolicFactor sym = analyze(a);
  const OocCholeskyFactor ooc = multifrontal_factor_ooc(sym, path);

  // Clean read-back works.
  const index_t f0 = sym.front_order(0);
  const index_t p0 = sym.sn_cols(0);
  std::vector<real_t> buf(static_cast<std::size_t>(f0) * p0, 0.0);
  MatrixView panel{buf.data(), f0, p0, f0};
  ooc.read_panel(0, panel);

  // Corrupt the whole scratch file behind the factor's back (a torn write,
  // bit rot, or another process scribbling on the spill path).
  {
    std::FILE* fp = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(fp, nullptr);
    std::fseek(fp, 0, SEEK_END);
    const long size = std::ftell(fp);
    ASSERT_GT(size, 0);
    std::fseek(fp, 0, SEEK_SET);
    std::vector<unsigned char> junk(static_cast<std::size_t>(size), 0xA5);
    ASSERT_EQ(std::fwrite(junk.data(), 1, junk.size(), fp), junk.size());
    std::fclose(fp);
  }

  // The checksum must catch it — after the one re-read retry — and
  // diagnose the panel, never return garbage numbers.
  try {
    ooc.read_panel(0, panel);
    FAIL() << "corrupted panel read succeeded";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code, StatusCode::kDataCorruption);
    EXPECT_EQ(e.status().failed_supernode, 0);
    EXPECT_NE(e.status().message.find("checksum mismatch"),
              std::string::npos);
  }
}

TEST(Ooc, WholeFactorRoundTripIsBitwise) {
  const std::string path = scratch_path("whole");
  const SparseMatrix a = grid_laplacian_2d(12, 13, 5);
  const SymbolicFactor sym = analyze(a);
  for (const FactorKind kind : {FactorKind::kCholesky, FactorKind::kLdlt}) {
    const CholeskyFactor factor = multifrontal_factor(sym, nullptr, kind);
    OocCholeskyFactor ooc(sym, path);
    ooc.write_factor(factor);
    EXPECT_EQ(ooc.is_ldlt(), factor.is_ldlt());

    CholeskyFactor back(sym, CholeskyFactor::Uninitialized{});
    ooc.read_factor(back);
    ASSERT_EQ(back.values().size(), factor.values().size());
    EXPECT_EQ(std::memcmp(back.values().data(), factor.values().data(),
                          factor.values().size_bytes()),
              0);
    ASSERT_EQ(back.diag().size(), factor.diag().size());
    EXPECT_TRUE(std::equal(back.diag().begin(), back.diag().end(),
                           factor.diag().begin()));

    // The whole-factor checksums are the ones per-panel reads verify.
    const ConstMatrixView ref = factor.panel(sym.n_supernodes - 1);
    std::vector<real_t> buf(static_cast<std::size_t>(ref.rows) * ref.cols);
    MatrixView panel{buf.data(), ref.rows, ref.cols, ref.rows};
    EXPECT_NO_THROW(ooc.read_panel(sym.n_supernodes - 1, panel));
  }
}

TEST(Ooc, WholeFactorShortReadNamesFirstMissingPanel) {
  const std::string path = scratch_path("short");
  const SparseMatrix a = grid_laplacian_2d(12, 13, 5);
  const SymbolicFactor sym = analyze(a);
  const CholeskyFactor factor = multifrontal_factor(sym);
  OocCholeskyFactor ooc(sym, path);
  ooc.write_factor(factor);

  // Truncate the scratch file at the start of a middle panel: the bulk
  // read comes up short, and that panel's own re-read cannot heal it.
  const index_t mid = sym.n_supernodes / 2;
  std::uintmax_t cut = 0;
  for (index_t s = 0; s < mid; ++s) {
    cut += static_cast<std::uintmax_t>(sym.front_order(s)) * sym.sn_cols(s) *
           sizeof(real_t);
  }
  std::filesystem::resize_file(path, cut);

  CholeskyFactor back(sym, CholeskyFactor::Uninitialized{});
  try {
    ooc.read_factor(back);
    FAIL() << "truncated factor read succeeded";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code, StatusCode::kDataCorruption);
    EXPECT_EQ(e.status().failed_supernode, mid);
  }
}

// --- Clean eviction: a reloaded factor keeps its verified scratch copy --------

std::string file_bytes(const std::string& path) {
  std::FILE* fp = std::fopen(path.c_str(), "rb");
  if (fp == nullptr) return {};
  std::string bytes;
  char buf[1 << 14];
  for (std::size_t got; (got = std::fread(buf, 1, sizeof buf, fp)) > 0;) {
    bytes.append(buf, got);
  }
  std::fclose(fp);
  return bytes;
}

TEST(Ooc, CleanEvictionLeavesScratchFileUntouched) {
  const std::string path = scratch_path("clean_evict");
  const SparseMatrix a = grid_laplacian_2d(20, 21, 5);
  SolverOptions opt;
  opt.spill_path = path;
  Solver solver(opt);
  solver.analyze(a);
  ASSERT_TRUE(solver.factorize().ok());
  EXPECT_FALSE(solver.factor_on_disk());
  const std::vector<real_t> b = random_vector(a.rows, 3);
  const std::vector<real_t> x_incore = solver.solve(b);

  ASSERT_TRUE(solver.spill_factor().ok());  // first eviction writes
  const std::string written = file_bytes(path);
  ASSERT_EQ(written.size(),
            static_cast<std::size_t>(solver.ooc_factor().bytes_on_disk()));
  const auto mtime = std::filesystem::last_write_time(path);
  ASSERT_TRUE(solver.unspill_factor().ok());
  EXPECT_FALSE(solver.factor_spilled());
  EXPECT_TRUE(solver.factor_on_disk());  // the verified copy is kept

  ASSERT_TRUE(solver.spill_factor().ok());  // clean: no write
  EXPECT_TRUE(solver.factor_spilled());
  EXPECT_EQ(std::filesystem::last_write_time(path), mtime);
  EXPECT_EQ(file_bytes(path), written);
  EXPECT_EQ(solver.solve(b), x_incore);  // streamed from the kept file
  ASSERT_TRUE(solver.unspill_factor().ok());
  EXPECT_EQ(solver.solve(b), x_incore);
}

TEST(Ooc, CorruptionAfterCleanEvictionIsCaughtOnReload) {
  const std::string path = scratch_path("clean_corrupt");
  const SparseMatrix a = grid_laplacian_2d(20, 21, 5);
  SolverOptions opt;
  opt.spill_path = path;
  Solver solver(opt);
  solver.analyze(a);
  ASSERT_TRUE(solver.factorize().ok());
  ASSERT_TRUE(solver.spill_factor().ok());
  ASSERT_TRUE(solver.unspill_factor().ok());

  // Scribble on the kept copy while the factor is resident; the clean
  // eviction must not rewrite (and so silently heal) it.
  const SymbolicFactor& sym = solver.symbolic();
  ASSERT_GE(sym.n_supernodes, 3);
  const index_t mid = sym.n_supernodes / 2;
  long offset = 0;
  for (index_t s = 0; s < mid; ++s) {
    offset += static_cast<long>(sym.front_order(s)) * sym.sn_cols(s) *
              static_cast<long>(sizeof(real_t));
  }
  {
    std::FILE* fp = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(fp, nullptr);
    ASSERT_EQ(std::fseek(fp, offset, SEEK_SET), 0);
    const int byte = std::fgetc(fp);
    ASSERT_NE(byte, EOF);
    ASSERT_EQ(std::fseek(fp, offset, SEEK_SET), 0);
    ASSERT_NE(std::fputc(byte ^ 0x04, fp), EOF);
    std::fclose(fp);
  }
  ASSERT_TRUE(solver.spill_factor().ok());
  const Status status = solver.unspill_factor();
  EXPECT_EQ(status.code, StatusCode::kDataCorruption);
  EXPECT_EQ(status.failed_supernode, mid);
  EXPECT_TRUE(solver.factor_spilled());
}

// --- Schur complement ---------------------------------------------------------

TEST(Schur, MatchesDenseComputation) {
  const index_t n = 40, k = 7;
  const SparseMatrix a = random_spd(n, 4, 13);
  const std::vector<real_t> s = schur_complement(a, k);

  // Dense reference: S = A22 - A21 A11^{-1} A12 via full dense inversion.
  const SparseMatrix full = symmetrize_full(a);
  const index_t m = n - k;
  std::vector<std::vector<real_t>> dense(
      static_cast<std::size_t>(n), std::vector<real_t>(n, 0.0));
  for (index_t j = 0; j < n; ++j) {
    for (index_t p = full.col_ptr[j]; p < full.col_ptr[j + 1]; ++p) {
      dense[full.row_ind[p]][j] = full.values[p];
    }
  }
  // Gaussian elimination of the first m columns (no pivoting; SPD).
  for (index_t c = 0; c < m; ++c) {
    const real_t piv = dense[c][c];
    ASSERT_GT(piv, 0.0);
    for (index_t i = c + 1; i < n; ++i) {
      const real_t factor = dense[i][c] / piv;
      if (factor == 0.0) continue;
      for (index_t j = c; j < n; ++j) dense[i][j] -= factor * dense[c][j];
    }
  }
  for (index_t j = 0; j < k; ++j) {
    for (index_t i = j; i < k; ++i) {
      EXPECT_NEAR(s[static_cast<std::size_t>(j) * k + i],
                  dense[m + i][m + j], 1e-9)
          << "(" << i << "," << j << ")";
    }
  }
}

TEST(Schur, SchurOfSpdIsSpd) {
  const SparseMatrix a = grid_laplacian_2d(12, 12, 5);
  const index_t k = 10;
  std::vector<real_t> s = schur_complement(a, k);
  // Mirror to full and Cholesky-factor it: must succeed.
  std::vector<real_t> fullbuf(static_cast<std::size_t>(k) * k);
  for (index_t j = 0; j < k; ++j) {
    for (index_t i = j; i < k; ++i) {
      fullbuf[static_cast<std::size_t>(j) * k + i] =
          s[static_cast<std::size_t>(j) * k + i];
    }
  }
  MatrixView sv{fullbuf.data(), k, k, k};
  EXPECT_EQ(potrf_lower(sv), kNone);
}

TEST(Schur, EdgeCases) {
  const SparseMatrix a = banded_spd(10, 2);
  // k == 0: empty result.
  EXPECT_TRUE(schur_complement(a, 0).empty());
  // k == n: Schur is A22 == A itself (no elimination).
  const auto s = schur_complement(a, 10);
  for (index_t j = 0; j < 10; ++j) {
    for (index_t i = j; i < 10; ++i) {
      EXPECT_DOUBLE_EQ(s[static_cast<std::size_t>(j) * 10 + i], a.at(i, j));
    }
  }
}

TEST(Schur, SolveViaSchurMatchesDirectSolve) {
  // Block elimination: solve A x = b by factoring A11, forming S, solving
  // S x2 = b2 - A21 A11^{-1} b1, then back-substituting. Must agree with
  // the direct solve — an end-to-end consistency check of the Schur API.
  const index_t n = 60, k = 6, m = n - k;
  const SparseMatrix a = random_spd(n, 3, 29);
  const auto b = random_vector(n, 31);

  Solver direct;
  direct.analyze(a);
  direct.factorize();
  const auto x_ref = direct.solve(b);

  // Split pieces.
  TripletBuilder b11(m, m);
  std::vector<std::vector<std::pair<index_t, real_t>>> a21(
      static_cast<std::size_t>(k));
  for (index_t j = 0; j < n; ++j) {
    for (index_t p = a.col_ptr[j]; p < a.col_ptr[j + 1]; ++p) {
      const index_t i = a.row_ind[p];
      if (j < m && i < m) b11.add(i, j, a.values[p]);
      if (j < m && i >= m) a21[i - m].emplace_back(j, a.values[p]);
    }
  }
  Solver s11;
  s11.analyze(b11.build());
  s11.factorize();

  std::vector<real_t> schur = schur_complement(a, k);
  MatrixView sv{schur.data(), k, k, k};

  // rhs2 = b2 - A21 A11^{-1} b1.
  const std::vector<real_t> b1(b.begin(), b.begin() + m);
  const auto w = s11.solve(b1);
  std::vector<real_t> rhs2(static_cast<std::size_t>(k));
  for (index_t i = 0; i < k; ++i) {
    real_t dot = 0.0;
    for (const auto& [col, v] : a21[i]) dot += v * w[col];
    rhs2[i] = b[m + i] - dot;
  }
  ASSERT_EQ(potrf_lower(sv), kNone);
  MatrixView x2v{rhs2.data(), k, 1, k};
  trsm_left_lower(sv, x2v);
  trsm_left_lower_trans(sv, x2v);
  for (index_t i = 0; i < k; ++i) {
    EXPECT_NEAR(rhs2[i], x_ref[m + i], 1e-8);
  }
}

}  // namespace
}  // namespace parfact
