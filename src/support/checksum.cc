#include "support/checksum.h"

#include <cstring>
#include <initializer_list>

namespace parfact {

namespace {

// The five 64-bit primes of xxHash64; any odd multipliers would keep the
// rounds bijective, these also mix well.
constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ull;

constexpr std::uint64_t rotl(std::uint64_t x, int r) {
  return (x << r) | (x >> (64 - r));
}

// Bijective in `lane` for a fixed word, and injective in `word` for a fixed
// lane (add, rotate and multiply-by-odd are all invertible mod 2^64): a
// changed word changes the lane, and no later round can undo that.
constexpr std::uint64_t lane_round(std::uint64_t lane, std::uint64_t word) {
  return rotl(lane + word, 31) * kP1;
}

std::uint64_t load_word(const unsigned char* p) {
  std::uint64_t w = 0;
  std::memcpy(&w, p, sizeof w);
  return w;
}

}  // namespace

std::uint64_t payload_digest(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t v0 = kP1 + kP2;
  std::uint64_t v1 = kP2;
  std::uint64_t v2 = 0;
  std::uint64_t v3 = 0 - kP1;
  const std::size_t blocks = bytes / 32;
  for (std::size_t b = 0; b < blocks; ++b, p += 32) {
    v0 = lane_round(v0, load_word(p));
    v1 = lane_round(v1, load_word(p + 8));
    v2 = lane_round(v2, load_word(p + 16));
    v3 = lane_round(v3, load_word(p + 24));
  }
  // Tail: up to three whole words to lanes 0..2, then the zero-padded
  // partial word to lane 3 (the length, merged below, tells a padded word
  // from real zero bytes).
  std::size_t rest = bytes % 32;
  for (std::uint64_t* lane : {&v0, &v1, &v2}) {
    if (rest < 8) break;
    *lane = lane_round(*lane, load_word(p));
    p += 8;
    rest -= 8;
  }
  std::uint64_t last = 0;
  if (rest > 0) std::memcpy(&last, p, rest);
  v3 = lane_round(v3, last);

  // Merge: each step is bijective in the accumulator and injective in the
  // lane it folds, so a difference in any one lane survives to the digest.
  std::uint64_t h = kP5 + static_cast<std::uint64_t>(bytes);
  for (const std::uint64_t v : {v0, v1, v2, v3}) {
    h = (h ^ lane_round(0, v)) * kP1 + kP4;
  }
  // Avalanche (xorshift-multiply steps, each invertible).
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnv1aPrime;
  }
  return h;
}

real_t flip_bit(real_t value, int bit) {
  static_assert(sizeof(real_t) == sizeof(std::uint64_t));
  std::uint64_t u = 0;
  std::memcpy(&u, &value, sizeof(u));
  u ^= std::uint64_t{1} << (bit & 63);
  std::memcpy(&value, &u, sizeof(u));
  return value;
}

void flip_bit_in_bytes(void* data, std::size_t bytes, std::uint64_t word,
                       int bit) {
  if (bytes == 0) return;
  bit &= 63;
  const std::size_t words = bytes / 8;
  std::size_t byte;
  if (words > 0) {
    byte = static_cast<std::size_t>(word % words) * 8 +
           static_cast<std::size_t>(bit / 8);
    if (byte >= bytes) byte = bytes - 1;
  } else {
    byte = static_cast<std::size_t>(bit / 8) % bytes;
  }
  static_cast<unsigned char*>(data)[byte] ^=
      static_cast<unsigned char>(1u << (bit % 8));
}

}  // namespace parfact
