#include "mf/ooc.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <utility>

#include "dense/kernels.h"
#include "mf/front_driver.h"
#include "support/checksum.h"
#include "support/error.h"
#include "support/status.h"
#include "support/timer.h"

// Scratch bytes are guarded by the shared support/checksum payload_digest:
// word-parallel, so checksumming runs at memory bandwidth and costs less
// than the write it protects, and any single-bit flip changes the digest.

namespace parfact {

namespace {

[[noreturn]] void throw_corrupt_panel(index_t s, const std::string& path) {
  std::ostringstream os;
  os << "checksum mismatch reading panel of supernode " << s << " from "
     << path << " (after one re-read retry)";
  throw StatusError(
      Status::failure(StatusCode::kDataCorruption, os.str(), s));
}

}  // namespace

OocCholeskyFactor::OocCholeskyFactor(const SymbolicFactor& sym,
                                     std::string path)
    : sym_(&sym), path_(std::move(path)) {
  file_ = std::fopen(path_.c_str(), "wb+");
  if (file_ == nullptr) {
    throw StatusError(Status::failure(StatusCode::kResourceExhausted,
                                      "cannot create scratch file " + path_));
  }
  // Unbuffered: panels and whole factors are written/read in one call each,
  // so stdio buffering buys nothing — and the read-back checksum must
  // verify the bytes actually on disk, not a stale stdio cache that would
  // mask external corruption.
  std::setvbuf(file_, nullptr, _IONBF, 0);
  offset_.resize(static_cast<std::size_t>(sym.n_supernodes) + 1);
  checksum_.assign(static_cast<std::size_t>(sym.n_supernodes), 0);
  offset_[0] = 0;
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    const count_t panel_bytes = static_cast<count_t>(sym.front_order(s)) *
                                sym.sn_cols(s) *
                                static_cast<count_t>(sizeof(real_t));
    offset_[s + 1] = offset_[s] + panel_bytes;
  }
}

OocCholeskyFactor::~OocCholeskyFactor() {
  if (file_ != nullptr) {
    std::fclose(file_);
    std::remove(path_.c_str());
  }
}

OocCholeskyFactor::OocCholeskyFactor(OocCholeskyFactor&& other) noexcept
    : sym_(other.sym_),
      path_(std::move(other.path_)),
      file_(std::exchange(other.file_, nullptr)),
      d_(std::move(other.d_)),
      offset_(std::move(other.offset_)),
      checksum_(std::move(other.checksum_)) {}

OocCholeskyFactor& OocCholeskyFactor::operator=(
    OocCholeskyFactor&& other) noexcept {
  if (this == &other) return *this;
  if (file_ != nullptr) {
    std::fclose(file_);
    std::remove(path_.c_str());
  }
  sym_ = other.sym_;
  path_ = std::move(other.path_);
  file_ = std::exchange(other.file_, nullptr);
  d_ = std::move(other.d_);
  offset_ = std::move(other.offset_);
  checksum_ = std::move(other.checksum_);
  return *this;
}

std::span<real_t> OocCholeskyFactor::allocate_diag() {
  d_.assign(static_cast<std::size_t>(sym_->n), 0.0);
  return d_;
}

count_t OocCholeskyFactor::bytes_on_disk() const { return offset_.back(); }

void OocCholeskyFactor::write_at(count_t offset, const void* data,
                                 std::size_t bytes) {
  PARFACT_CHECK(std::fseek(file_, static_cast<long>(offset), SEEK_SET) == 0);
  // Flush so the bytes are visible to external readers (and corruptible by
  // external writers — which is exactly how the integrity tests exercise
  // the read-back verification).
  if (std::fwrite(data, 1, bytes, file_) != bytes ||
      std::fflush(file_) != 0) {
    throw StatusError(Status::failure(StatusCode::kResourceExhausted,
                                      "short write to scratch file " + path_));
  }
}

void OocCholeskyFactor::write_panel(index_t s, ConstMatrixView panel) {
  PARFACT_CHECK(panel.rows == sym_->front_order(s) &&
                panel.cols == sym_->sn_cols(s) && panel.ld == panel.rows);
  write_at(offset_[s], panel.data, panel_bytes(s));
  checksum_[s] = payload_digest(panel.data, panel_bytes(s));
}

void OocCholeskyFactor::write_factor(const CholeskyFactor& factor) {
  const std::span<const real_t> values = factor.values();
  PARFACT_CHECK(factor.symbolic().n_supernodes == sym_->n_supernodes &&
                static_cast<count_t>(values.size_bytes()) == offset_.back());
  write_at(0, values.data(), values.size_bytes());
  for (index_t s = 0; s < sym_->n_supernodes; ++s) {
    checksum_[s] = payload_digest(values.data() + panel_start(s),
                                  panel_bytes(s));
  }
  if (factor.is_ldlt()) {
    const std::span<const real_t> d = factor.diag();
    std::copy(d.begin(), d.end(), allocate_diag().begin());
  }
}

bool OocCholeskyFactor::load_panel(index_t s, real_t* dst) const {
  const std::size_t bytes = panel_bytes(s);
  PARFACT_CHECK(std::fseek(file_, static_cast<long>(offset_[s]), SEEK_SET) ==
                0);
  return std::fread(dst, 1, bytes, file_) == bytes &&
         payload_digest(dst, bytes) == checksum_[s];
}

void OocCholeskyFactor::read_panel(index_t s, MatrixView out) const {
  PARFACT_CHECK(out.rows == sym_->front_order(s) &&
                out.cols == sym_->sn_cols(s) && out.ld == out.rows);
  // One silent retry covers a transient short/failed read; a checksum that
  // is still wrong after re-reading means the bytes on disk are damaged.
  if (load_panel(s, out.data) || load_panel(s, out.data)) return;
  throw_corrupt_panel(s, path_);
}

void OocCholeskyFactor::read_factor(CholeskyFactor& out) const {
  const std::span<real_t> values = out.values();
  PARFACT_CHECK(out.symbolic().n_supernodes == sym_->n_supernodes &&
                static_cast<count_t>(values.size_bytes()) == offset_.back());
  PARFACT_CHECK(std::fseek(file_, 0, SEEK_SET) == 0);
  // The bulk read is every panel's first attempt: a short read leaves the
  // (zeroed) tail panels failing their checksums, and each gets its one
  // re-read.
  const std::size_t got =
      std::fread(values.data(), 1, values.size_bytes(), file_);
  if (got < values.size_bytes()) {
    std::memset(reinterpret_cast<unsigned char*>(values.data()) + got, 0,
                values.size_bytes() - got);
  }
  for (index_t s = 0; s < sym_->n_supernodes; ++s) {
    real_t* panel = values.data() + panel_start(s);
    if (payload_digest(panel, panel_bytes(s)) == checksum_[s]) continue;
    if (!load_panel(s, panel)) throw_corrupt_panel(s, path_);
  }
  if (is_ldlt()) std::copy(d_.begin(), d_.end(), out.allocate_diag().begin());
}

OocCholeskyFactor multifrontal_factor_ooc(const SymbolicFactor& sym,
                                          const std::string& path,
                                          FactorStats* stats,
                                          PivotPolicy pivot, FactorKind kind,
                                          CancelToken cancel,
                                          const AbftOptions* abft) {
  WallTimer timer;
  OocCholeskyFactor factor(sym, path);
  std::span<real_t> d;
  if (kind == FactorKind::kLdlt) d = factor.allocate_diag();
  detail::FrontRun run(sym, kind, d, resolve_pivot_policy(pivot, sym.a),
                       abft);
  run.ooc = &factor;
  detail::FrontScratch scratch(sym.n);
  detail::run_fronts(run, 0, sym.n_supernodes - 1, scratch, cancel);
  run.report(stats, timer);
  return factor;
}

void ooc_solve_in_place(const OocCholeskyFactor& factor, MatrixView x) {
  const SymbolicFactor& sym = factor.symbolic();
  PARFACT_CHECK(x.rows == sym.n);
  std::vector<real_t> panel_buf;
  std::vector<real_t> gathered;

  // Forward sweep (panels streamed in supernode order).
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    const index_t p = sym.sn_cols(s);
    const index_t b = sym.sn_below(s);
    const index_t f = p + b;
    panel_buf.resize(static_cast<std::size_t>(f) * p);
    MatrixView panel{panel_buf.data(), f, p, f};
    factor.read_panel(s, panel);
    MatrixView x1 = x.block(sym.sn_start[s], 0, p, x.cols);
    trsm_left_lower(panel.block(0, 0, p, p), x1);
    if (b == 0) continue;
    gathered.assign(static_cast<std::size_t>(b) * x.cols, 0.0);
    MatrixView t{gathered.data(), b, x.cols, b};
    gemm_nn_update(t, panel.block(p, 0, b, p), x1);
    const auto rows = sym.below_rows(s);
    for (index_t c = 0; c < x.cols; ++c) {
      for (index_t i = 0; i < b; ++i) x.at(rows[i], c) += t.at(i, c);
    }
  }
  // LDLᵀ: divide by the resident diagonal between the sweeps.
  if (factor.is_ldlt()) {
    const std::span<const real_t> d = factor.diag();
    for (index_t c = 0; c < x.cols; ++c) {
      for (index_t i = 0; i < x.rows; ++i) x.at(i, c) /= d[i];
    }
  }
  // Backward sweep (reverse streaming).
  for (index_t s = sym.n_supernodes - 1; s >= 0; --s) {
    const index_t p = sym.sn_cols(s);
    const index_t b = sym.sn_below(s);
    const index_t f = p + b;
    panel_buf.resize(static_cast<std::size_t>(f) * p);
    MatrixView panel{panel_buf.data(), f, p, f};
    factor.read_panel(s, panel);
    MatrixView x1 = x.block(sym.sn_start[s], 0, p, x.cols);
    if (b > 0) {
      const auto rows = sym.below_rows(s);
      gathered.resize(static_cast<std::size_t>(b) * x.cols);
      MatrixView t{gathered.data(), b, x.cols, b};
      for (index_t c = 0; c < x.cols; ++c) {
        for (index_t i = 0; i < b; ++i) t.at(i, c) = x.at(rows[i], c);
      }
      gemm_tn_update(x1, panel.block(p, 0, b, p), t);
    }
    trsm_left_lower_trans(panel.block(0, 0, p, p), x1);
  }
}

}  // namespace parfact
