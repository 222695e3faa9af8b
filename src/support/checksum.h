// Shared integrity primitives for the corruption-defense layer.
//
// Three families live here. `payload_digest` guards *stored or
// transmitted* bytes (OOC panels, checkpoint blobs, mpsim wire payloads):
// it reads the buffer a 64-bit word at a time into four independent lanes,
// so it runs at memory speed, and every step is a bijection of the lane
// state, so any change confined to one 8-byte word — every single-bit flip
// among them — changes the digest with certainty. `fnv1a` is the
// byte-serial hash kept for *identity* digests (the symbolic-cache pattern
// key, the solver configuration hash, test goldens), whose values must not
// change. The ABFT helpers guard *computed* numbers, where a hash is
// useless because the bits legitimately change: Huang-Abraham column-sum
// identities relate kernel outputs to inputs through the same linear
// algebra the kernel performs, so a corrupted output breaks the identity by
// far more than rounding ever can. The mismatch predicate and the bit-flip
// injectors used by the fault campaigns are here too, so every module
// agrees on one tolerance rule and one flip encoding.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "support/types.h"

namespace parfact {

/// Word-parallel 64-bit digest of a byte range, for integrity checks on
/// bulk payloads. Four lanes each fold every fourth 8-byte word with an
/// add-rotate-multiply round; the trailing whole words go to lanes
/// 0..2 and the last partial word (zero-padded) to lane 3; the lanes are
/// then merged with the byte length and avalanched. Words are loaded in
/// native byte order, so a digest is only meaningful on the host that made
/// it — every guarded payload here lives within one process.
[[nodiscard]] std::uint64_t payload_digest(const void* data,
                                           std::size_t bytes);

inline constexpr std::uint64_t kFnv1aOffsetBasis = 14695981039346656037ull;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ull;

/// FNV-1a over a byte range. `seed` lets callers chain ranges into one
/// rolling digest (pass the previous digest back in).
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t bytes,
                                  std::uint64_t seed = kFnv1aOffsetBasis);

/// Chains one trivially-copyable value into a rolling FNV-1a digest — the
/// building block for configuration digests (e.g. the symbolic-cache
/// pattern key hashes every ordering/amalgamation knob this way, so two
/// solvers only share an analysis when every structure-affecting option
/// matches).
template <class T>
[[nodiscard]] std::uint64_t fnv1a_pod(const T& value,
                                      std::uint64_t seed = kFnv1aOffsetBasis) {
  static_assert(std::is_trivially_copyable_v<T>,
                "fnv1a_pod hashes raw object bytes");
  return fnv1a(&value, sizeof value, seed);
}

/// ABFT acceptance test: does `actual` match `predicted` to within
/// `tol * (scale + 1)`, where `scale` is the absolute-value counterpart of
/// the predicted sum? Written so NaN/Inf on either side count as a
/// mismatch (an exponent-bit flip often lands there).
[[nodiscard]] inline bool abft_mismatch(real_t actual, real_t predicted,
                                        real_t scale, real_t tol) {
  const real_t diff = std::abs(actual - predicted);
  return !(diff <= tol * (scale + real_t{1}));
}

/// Returns `value` with one bit of its IEEE-754 representation flipped.
/// Bit 62 (the top exponent bit) is the canonical worst case: it turns
/// O(1) values into ~1e308 or Inf/NaN and is always detectable.
[[nodiscard]] real_t flip_bit(real_t value, int bit);

/// Flips one bit inside an arbitrary byte buffer; `word` selects an
/// 8-byte word (wrapped to the buffer size), `bit` a bit within it.
/// No-op on an empty buffer.
void flip_bit_in_bytes(void* data, std::size_t bytes, std::uint64_t word,
                       int bit);

}  // namespace parfact
