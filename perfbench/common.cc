#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "bench.h"
#include "solve/solve.h"
#include "support/prng.h"

namespace pb {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t trim = v.size() / 4;
  double sum = 0.0;
  for (std::size_t i = trim; i < v.size() - trim; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * trim);
}

std::uint64_t subseed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 finalizer over the combined word.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<real_t> scaled_values(const parfact::SparseMatrix& lower,
                                  std::uint64_t seed) {
  parfact::Prng rng(seed);
  std::vector<real_t> d(static_cast<std::size_t>(lower.rows));
  for (real_t& v : d) v = rng.next_real(0.5, 2.0);
  std::vector<real_t> out(lower.values.size());
  for (index_t j = 0; j < lower.cols; ++j) {
    for (index_t p = lower.col_ptr[j]; p < lower.col_ptr[j + 1]; ++p) {
      out[p] = lower.values[p] * d[j] * d[lower.row_ind[p]];
    }
  }
  return out;
}

parfact::SparseMatrix with_values(const parfact::SparseMatrix& lower,
                                  std::vector<real_t> values) {
  parfact::SparseMatrix out = lower;
  out.values = std::move(values);
  return out;
}

std::vector<real_t> seeded_rhs(index_t n, index_t nrhs, std::uint64_t seed) {
  parfact::Prng rng(seed);
  std::vector<real_t> b(static_cast<std::size_t>(n) * nrhs);
  for (real_t& v : b) v = rng.next_real(-1.0, 1.0);
  return b;
}

double worst_residual(const parfact::SparseMatrix& lower,
                      std::span<const real_t> x, std::span<const real_t> b,
                      index_t nrhs) {
  const auto n = static_cast<std::size_t>(lower.rows);
  double worst = 0.0;
  for (index_t c = 0; c < nrhs; ++c) {
    const double r = parfact::relative_residual(
        lower, x.subspan(c * n, n), b.subspan(c * n, n));
    // NaN compares false: treat it as the worst possible residual.
    worst = std::isnan(r) ? INFINITY : std::max(worst, r);
  }
  return worst;
}

bool factors_equal(const parfact::SymbolicFactor& sym,
                   const parfact::CholeskyFactor& a,
                   const parfact::CholeskyFactor& b) {
  if (a.is_ldlt() != b.is_ldlt()) return false;
  const auto da = a.diag();
  const auto db = b.diag();
  if (da.size() != db.size() ||
      (!da.empty() &&
       std::memcmp(da.data(), db.data(), da.size() * sizeof(real_t)) != 0)) {
    return false;
  }
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    const parfact::ConstMatrixView pa = a.panel(s);
    const parfact::ConstMatrixView pb = b.panel(s);
    if (pa.rows != pb.rows || pa.cols != pb.cols) return false;
    for (index_t c = 0; c < pa.cols; ++c) {
      if (std::memcmp(pa.data + static_cast<std::size_t>(c) * pa.ld,
                      pb.data + static_cast<std::size_t>(c) * pb.ld,
                      static_cast<std::size_t>(pa.rows) * sizeof(real_t)) !=
          0) {
        return false;
      }
    }
  }
  return true;
}

double max_rel_diff(const parfact::SymbolicFactor& sym,
                    const parfact::CholeskyFactor& a,
                    const parfact::CholeskyFactor& b) {
  double worst = 0.0;
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    const parfact::ConstMatrixView pa = a.panel(s);
    const parfact::ConstMatrixView pb = b.panel(s);
    for (index_t c = 0; c < pa.cols; ++c) {
      for (index_t r = 0; r < pa.rows; ++r) {
        const double x = pa.data[static_cast<std::size_t>(c) * pa.ld + r];
        const double y = pb.data[static_cast<std::size_t>(c) * pb.ld + r];
        if (x == y) continue;
        const double d = std::fabs(x - y) / std::max(std::fabs(x), 1e-300);
        if (!(d <= worst)) worst = std::isnan(d) ? INFINITY : d;
      }
    }
  }
  return worst;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace pb
