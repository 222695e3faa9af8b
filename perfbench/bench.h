// Shared pieces of the parfact benchmark program: run configuration, the
// metric sink, timing and statistics helpers, seeded inputs and the
// correctness oracles every workload uses.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mf/factor.h"
#include "sparse/sparse_matrix.h"
#include "support/types.h"
#include "symbolic/symbolic_factor.h"

namespace pb {

using parfact::index_t;
using parfact::real_t;

/// Scaled residual bound every operation must meet.
inline constexpr double kResidualBound = 1e-10;

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;         ///< self-check scale: tiny inputs, short runs
  std::string scratch_dir;   ///< spill files and trace output
};

/// One measured number with its unit and the samples behind it.
struct Metric {
  double value = 0.0;
  std::string unit;
  long samples = 0;  ///< 0 = a count or a derived ratio, not a sampled time
};

/// Everything a workload run reports.
struct Results {
  std::map<std::string, Metric> metrics;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions

  void set(const std::string& name, double value, const std::string& unit,
           long samples = 0) {
    metrics[name] = Metric{value, unit, samples};
  }
  /// Records one operation's outcome; `what` describes a failure.
  void op(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
};

inline double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
/// Interquartile mean: the mean of the samples between the first and third
/// quartiles (a quarter trimmed from each end, at least one sample kept).
/// Unlike the median it moves smoothly when samples fall into two clusters,
/// and unlike the mean it ignores the slowest and fastest quarter.
double interquartile_mean(std::vector<double> v);

/// Runs `fn` `reps` times and returns the median wall time in seconds.
template <class Fn>
double median_time(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now();
    fn();
    t.push_back(now() - t0);
  }
  return median(t);
}

/// Seeded SPD-preserving value perturbation: D·A·D with D = diag(d),
/// d_i uniform in [0.5, 2]. The pattern is unchanged; every value moves.
std::vector<real_t> scaled_values(const parfact::SparseMatrix& lower,
                                  std::uint64_t seed);
parfact::SparseMatrix with_values(const parfact::SparseMatrix& lower,
                                  std::vector<real_t> values);
/// n*nrhs uniform [-1, 1] right-hand sides.
std::vector<real_t> seeded_rhs(index_t n, index_t nrhs, std::uint64_t seed);

/// Worst componentwise-scaled residual over the columns of a block.
double worst_residual(const parfact::SparseMatrix& lower,
                      std::span<const real_t> x, std::span<const real_t> b,
                      index_t nrhs);

/// Bitwise equality of two factors of the same symbolic structure.
bool factors_equal(const parfact::SymbolicFactor& sym,
                   const parfact::CholeskyFactor& a,
                   const parfact::CholeskyFactor& b);

/// Largest entrywise relative difference |a−b|/|a| of two factors (NaN
/// counts as infinite).
double max_rel_diff(const parfact::SymbolicFactor& sym,
                    const parfact::CholeskyFactor& a,
                    const parfact::CholeskyFactor& b);

/// Peak resident set size of this process in MB (ru_maxrss).
double peak_rss_mb();

/// Mixes a run seed with a stream id into an independent sub-seed.
std::uint64_t subseed(std::uint64_t seed, std::uint64_t stream);

}  // namespace pb
