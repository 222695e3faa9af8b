// R4 — Silent-data-corruption defense: ABFT overhead and detection
// coverage.
//
// Part 1 measures the cost of checksum-carrying fronts: plain vs ABFT
// factorization on 3-D grid problems, timed as interleaved best-of-N
// pairs (this machine's run-to-run noise is far larger than the effect, so
// only paired minima are meaningful). Part 2 sweeps seeded single-bit
// flips over every injection site (assembled panel, POTRF, TRSM, UPDATE,
// stored factor) x flipped bit x seed, and classifies each run: detected
// faults must heal to a factor bitwise identical to the clean run;
// undetected faults (low mantissa bits below the checksum tolerance) must
// be numerically harmless.
//
// `--smoke` pins the acceptance criteria as a ctest check (r4_sdc_smoke):
// 100% detection + bitwise-identical repair for top-exponent-bit flips at
// every site, and ABFT factor-time overhead <= 5% (best-of-9 interleaved
// pairs, retried to ride out scheduler noise).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench/common.h"
#include "mf/abft.h"
#include "mf/multifrontal.h"
#include "sparse/gen.h"
#include "support/thread_pool.h"
#include "support/timer.h"
#include "symbolic/symbolic_factor.h"

using namespace parfact;

namespace {

bool factors_identical(const SymbolicFactor& sym, const CholeskyFactor& a,
                       const CholeskyFactor& b) {
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    const ConstMatrixView pa = a.panel(s);
    const ConstMatrixView pb = b.panel(s);
    for (index_t j = 0; j < pa.cols; ++j) {
      for (index_t i = j; i < pa.rows; ++i) {
        if (pa.at(i, j) != pb.at(i, j)) return false;
      }
    }
  }
  return true;
}

// Largest relative elementwise deviation between two factors — the
// "harmless" gauge for flips below the checksum tolerance.
double max_rel_dev(const SymbolicFactor& sym, const CholeskyFactor& a,
                   const CholeskyFactor& b) {
  double worst = 0.0;
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    const ConstMatrixView pa = a.panel(s);
    const ConstMatrixView pb = b.panel(s);
    for (index_t j = 0; j < pa.cols; ++j) {
      for (index_t i = j; i < pa.rows; ++i) {
        const double d = std::abs(pa.at(i, j) - pb.at(i, j)) /
                         (std::abs(pb.at(i, j)) + 1.0);
        worst = std::max(worst, d);
      }
    }
  }
  return worst;
}

// A supernode with a nonempty below block — every injection site has a
// target region there. Pick the widest one so the flip lands mid-pipeline.
index_t fattest_supernode(const SymbolicFactor& sym) {
  index_t best = kNone;
  index_t best_b = 0;
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    if (sym.sn_below(s) > best_b) {
      best_b = sym.sn_below(s);
      best = s;
    }
  }
  return best;
}

// One interleaved best-of-N timing attempt; returns overhead in percent
// and reports the paired minima. With a pool both sides run on the task
// DAG, where ABFT emits every front as one fused task.
double overhead_attempt(const SymbolicFactor& sym, ThreadPool* pool, int reps,
                        double* plain_ms, double* abft_ms) {
  const AbftOptions abft;
  double tp = 1e30;
  double ta = 1e30;
  for (int i = 0; i < reps; ++i) {
    {
      WallTimer t;
      if (pool != nullptr) {
        (void)multifrontal_factor_parallel(sym, *pool);
      } else {
        (void)multifrontal_factor(sym);
      }
      tp = std::min(tp, t.seconds());
    }
    {
      WallTimer t;
      if (pool != nullptr) {
        (void)multifrontal_factor_parallel(sym, *pool, nullptr,
                                           FactorKind::kCholesky,
                                           kCoopFrontFlops, {}, {}, &abft);
      } else {
        (void)multifrontal_factor_abft(sym);
      }
      ta = std::min(ta, t.seconds());
    }
  }
  *plain_ms = tp * 1e3;
  *abft_ms = ta * 1e3;
  return (ta / tp - 1.0) * 100.0;
}

const char* site_name(SdcSite site) {
  switch (site) {
    case SdcSite::kAssembly: return "assembly";
    case SdcSite::kPotrf: return "potrf";
    case SdcSite::kTrsm: return "trsm";
    case SdcSite::kUpdate: return "update";
    case SdcSite::kStoredFactor: return "stored";
  }
  return "?";
}

struct SweepCell {
  int runs = 0;
  int detected = 0;
  int healed_identical = 0;
  double worst_undetected_dev = 0.0;
};

// Runs one in-pipeline injection campaign cell (site x bit over seeds).
SweepCell sweep_site(const SymbolicFactor& sym, const CholeskyFactor& ref,
                     SdcSite site, int bit, index_t target) {
  SweepCell cell;
  for (const std::uint64_t seed : {1ull, 7ull, 13ull}) {
    SdcInjection inject;
    inject.site = site;
    inject.seed = seed;
    inject.bit = bit;
    inject.supernode = target;
    AbftOptions options;
    options.inject = &inject;
    FactorStats stats;
    const CholeskyFactor out =
        multifrontal_factor_abft(sym, &stats, FactorKind::kCholesky, {},
                                 options);
    ++cell.runs;
    if (stats.abft_detections > 0) {
      ++cell.detected;
      if (factors_identical(sym, ref, out)) ++cell.healed_identical;
    } else {
      cell.worst_undetected_dev =
          std::max(cell.worst_undetected_dev, max_rel_dev(sym, out, ref));
    }
  }
  return cell;
}

// At-rest campaign: flip a stored-factor bit, localize with the factor
// checksums, repair with a subtree recompute.
SweepCell sweep_stored(const SymbolicFactor& sym, const CholeskyFactor& ref,
                       int bit, index_t target) {
  SweepCell cell;
  for (const std::uint64_t seed : {1ull, 7ull, 13ull}) {
    FactorChecksums sums;
    CholeskyFactor factor = multifrontal_factor_abft(
        sym, nullptr, FactorKind::kCholesky, {}, {}, &sums);
    SdcInjection inject;
    inject.site = SdcSite::kStoredFactor;
    inject.seed = seed;
    inject.bit = bit;
    inject.supernode = target;
    (void)inject_factor_bitflip(sym, factor, inject);
    ++cell.runs;
    const index_t hit = verify_factor(sym, factor, sums);
    if (hit != kNone) {
      ++cell.detected;
      (void)recompute_subtree(sym, hit, FactorKind::kCholesky, {}, factor,
                              &sums);
      if (factors_identical(sym, ref, factor) &&
          verify_factor(sym, factor, sums) == kNone) {
        ++cell.healed_identical;
      }
    } else {
      cell.worst_undetected_dev =
          std::max(cell.worst_undetected_dev, max_rel_dev(sym, factor, ref));
    }
  }
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  bench::JsonEmitter json("r4_sdc");
  int failures = 0;

  // ---- Part 1: ABFT overhead --------------------------------------------
  bench::heading("R4: ABFT factor-time overhead (interleaved best-of-N)");
  std::printf("%-12s %7s %10s %10s %10s %8s %8s\n", "case", "threads",
              "plain[ms]", "abft[ms]", "overhead", "checks", "gate");
  ThreadPool pool(4);
  struct GridCase {
    const char* name;
    int dim;
  };
  const GridCase cases[] = {{"grid3d_16", 16}, {"grid3d_20", 20},
                            {"grid3d_24", 24}};
  for (const GridCase& c : cases) {
    // The smoke gate pins one representative case; the larger sweeps are
    // paper-table material (the relative overhead only shrinks with size:
    // the checks are O(front^2) against O(front^3) kernels).
    if (smoke && c.dim != 20) continue;
    const SparseMatrix a = grid_laplacian_3d(c.dim, c.dim, c.dim);
    const SymbolicFactor sym = analyze(a);
    FactorStats stats;
    (void)multifrontal_factor_abft(sym, &stats);
    // The gate is on the serial engine; the 4-thread row is table material.
    for (const int threads : {1, 4}) {
      if (smoke && threads != 1) continue;
      // Machine noise on shared boxes dwarfs a 5% effect; a gate on a
      // single attempt would flake. Retry the whole interleaved-best-of
      // measurement and accept the cleanest attempt.
      const int attempts = smoke ? 3 : 1;
      const int reps = 9;
      double best = 1e30;
      double plain_ms = 0.0;
      double abft_ms = 0.0;
      for (int t = 0; t < attempts && best > 5.0; ++t) {
        double pm = 0.0;
        double am = 0.0;
        const double ovh = overhead_attempt(
            sym, threads > 1 ? &pool : nullptr, reps, &pm, &am);
        if (ovh < best) {
          best = ovh;
          plain_ms = pm;
          abft_ms = am;
        }
      }
      const bool pass = best <= 5.0;
      if (smoke && !pass) ++failures;
      std::printf("%-12s %7d %10.2f %10.2f %+9.2f%% %8lld %8s\n", c.name,
                  threads, plain_ms, abft_ms, best,
                  static_cast<long long>(stats.abft_checks),
                  smoke ? (pass ? "<=5% ok" : "FAIL") : "-");
      json.row()
          .field("section", "overhead")
          .field("case", c.name)
          .field("threads", threads)
          .field("plain_ms", plain_ms)
          .field("abft_ms", abft_ms)
          .field("overhead_pct", best)
          .field("abft_checks", stats.abft_checks);
    }
  }

  // ---- Part 2: detection-coverage sweep ---------------------------------
  bench::heading("R4: single-bit-flip coverage (site x bit x 3 seeds)");
  const SparseMatrix a = grid_laplacian_3d(10, 10, 10);
  const SymbolicFactor sym = analyze(a);
  const CholeskyFactor ref = multifrontal_factor(sym);
  const index_t target = fattest_supernode(sym);
  const SdcSite sites[] = {SdcSite::kAssembly, SdcSite::kPotrf,
                           SdcSite::kTrsm, SdcSite::kUpdate,
                           SdcSite::kStoredFactor};
  std::printf("%-10s %5s %9s %15s %16s\n", "site", "bit", "detected",
              "healed-bitwise", "undetected-dev");
  for (const SdcSite site : sites) {
    for (const int bit : {62, 52, 40, 8}) {
      // Smoke pins the acceptance bit (62, top exponent: any strike is a
      // huge perturbation and MUST be caught); the low-bit rows document
      // the tolerance floor and are table material.
      if (smoke && bit != 62) continue;
      const SweepCell cell =
          site == SdcSite::kStoredFactor
              ? sweep_stored(sym, ref, bit, target)
              : sweep_site(sym, ref, site, bit, target);
      const bool gate = cell.detected == cell.runs &&
                        cell.healed_identical == cell.detected;
      if (smoke && !gate) ++failures;
      std::printf("%-10s %5d %5d/%-3d %11d/%-3d %16.3e%s\n", site_name(site),
                  bit, cell.detected, cell.runs, cell.healed_identical,
                  cell.detected, cell.worst_undetected_dev,
                  smoke ? (gate ? "  ok" : "  FAIL") : "");
      json.row()
          .field("section", "coverage")
          .field("site", site_name(site))
          .field("bit", bit)
          .field("runs", cell.runs)
          .field("detected", cell.detected)
          .field("healed_identical", cell.healed_identical)
          .field("worst_undetected_dev", cell.worst_undetected_dev);
      // Undetected flips must be harmless: below the checksum tolerance by
      // construction, so far below any solve-accuracy requirement.
      if (cell.worst_undetected_dev > 1e-6) {
        std::printf("  ^ undetected flip not harmless!\n");
        ++failures;
      }
    }
  }

  json.flush();
  if (failures > 0) {
    std::printf("\nR4 FAILED: %d gate(s)\n", failures);
    return 1;
  }
  std::printf("\nR4 ok\n");
  return 0;
}
