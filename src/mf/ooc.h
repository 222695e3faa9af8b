// Out-of-core factorization — the WSMP-lineage mode for problems whose
// factor exceeds memory: each supernode panel is streamed to a scratch file
// the moment it is eliminated, so resident memory holds only the active
// front and the multifrontal update stack. The triangular solves stream the
// panels back (forward sweep reads the file front-to-back, backward sweep
// back-to-front).
#pragma once

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "dense/matrix_view.h"
#include "mf/factor.h"
#include "mf/multifrontal.h"
#include "symbolic/symbolic_factor.h"

namespace parfact {

/// Disk-backed supernodal Cholesky factor. Panel layout on disk matches
/// CholeskyFactor's in-memory layout (column-major trapezoid per supernode,
/// concatenated in supernode order). The scratch file is deleted on
/// destruction.
///
/// Integrity: every panel write records a 64-bit `payload_digest` of the
/// panel in memory; every read-back verifies it, re-reading that panel once
/// (transient I/O) and then throwing StatusError(kDataCorruption) naming
/// its supernode. The checksums live in memory rather than on disk because
/// they guard the scratch file's round-trip within one process lifetime —
/// the file does not outlive the object.
///
/// I/O failures (the scratch file cannot be created, a write comes up
/// short) throw StatusError(kResourceExhausted) naming the path.
class OocCholeskyFactor {
 public:
  /// Creates/truncates the scratch file. `sym` must outlive this object.
  /// Throws StatusError(kResourceExhausted) if the file cannot be created.
  OocCholeskyFactor(const SymbolicFactor& sym, std::string path);
  ~OocCholeskyFactor();

  OocCholeskyFactor(const OocCholeskyFactor&) = delete;
  OocCholeskyFactor& operator=(const OocCholeskyFactor&) = delete;
  OocCholeskyFactor(OocCholeskyFactor&& other) noexcept;
  OocCholeskyFactor& operator=(OocCholeskyFactor&& other) noexcept;

  [[nodiscard]] const SymbolicFactor& symbolic() const { return *sym_; }
  [[nodiscard]] count_t bytes_on_disk() const;
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Writes supernode s's panel (front_order x sn_cols) to its file slot,
  /// recording its checksum. Flushes so the bytes are externally visible.
  void write_panel(index_t s, ConstMatrixView panel);
  /// Reads supernode s's panel into `out` (same shape, ld == rows) and
  /// verifies its checksum; one silent re-read on mismatch, then throws
  /// StatusError with StatusCode::kDataCorruption.
  void read_panel(index_t s, MatrixView out) const;

  /// Whole-factor spill: writes every panel of `factor` (whose contiguous
  /// value array is exactly the file layout) with one write, checksums the
  /// panels in memory, and copies D for LDLᵀ. `factor` must share this
  /// object's symbolic shape.
  void write_factor(const CholeskyFactor& factor);
  /// Whole-factor reload into `out` (built from the same symbolic factor;
  /// its values may be uninitialized): one read, then per-panel
  /// verification. A panel that fails is re-read once on its own, then
  /// StatusError(kDataCorruption) names its supernode. Copies D for LDLᵀ.
  void read_factor(CholeskyFactor& out) const;

  /// LDLᵀ support, mirroring CholeskyFactor: panels on disk hold the
  /// unit-diagonal L while D stays resident (n doubles — negligible next to
  /// the spilled panels).
  [[nodiscard]] bool is_ldlt() const { return !d_.empty(); }
  [[nodiscard]] std::span<const real_t> diag() const { return d_; }
  std::span<real_t> allocate_diag();

 private:
  const SymbolicFactor* sym_;
  std::string path_;
  std::FILE* file_ = nullptr;
  std::vector<real_t> d_;        ///< LDLᵀ diagonal (resident)
  std::vector<count_t> offset_;  ///< per-supernode byte offset
  std::vector<std::uint64_t> checksum_;  ///< per-supernode panel digest

  [[nodiscard]] std::size_t panel_start(index_t s) const {
    return static_cast<std::size_t>(offset_[s]) / sizeof(real_t);
  }
  [[nodiscard]] std::size_t panel_bytes(index_t s) const {
    return static_cast<std::size_t>(offset_[s + 1] - offset_[s]);
  }
  /// One positioned read of supernode s's panel into `dst`; true when the
  /// read is complete and the bytes match the recorded checksum.
  bool load_panel(index_t s, real_t* dst) const;
  /// Writes `bytes` at `offset`; throws kResourceExhausted on a short write.
  void write_at(count_t offset, const void* data, std::size_t bytes);
};

/// Out-of-core serial multifrontal factorization (Cholesky or LDLᵀ): the
/// serial front driver with each panel streamed to the scratch file.
/// `stats->peak_update_bytes` reports the resident peak — update stack plus
/// the streamed panel buffer — the number that stays small while the
/// factor itself goes to disk. Polls `cancel` once per supernode. `abft`
/// as for multifrontal_factor; a repair rewrites the affected panels.
[[nodiscard]] OocCholeskyFactor multifrontal_factor_ooc(
    const SymbolicFactor& sym, const std::string& path,
    FactorStats* stats = nullptr, PivotPolicy pivot = {},
    FactorKind kind = FactorKind::kCholesky, CancelToken cancel = {},
    const AbftOptions* abft = nullptr);

/// x := A⁻¹ x with panels streamed from disk (x is n x nrhs).
void ooc_solve_in_place(const OocCholeskyFactor& factor, MatrixView x);

}  // namespace parfact
