// Keyed hashing for tables keyed by bytes from outside (log fields, DER).
//
// An unkeyed hash lets a crafted log choose values that pile into one
// probe run, turning each insert into O(n) and a run into a hang. The
// key is drawn once per process; it changes only table layouts, never
// what a reader observes, so no output may depend on it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace mtlscope::util {

namespace detail {

/// A fresh random 64-bit key (falls back to the clock without an
/// entropy source).
std::uint64_t draw_hash_key();

/// The per-process string-hash key, drawn on first use.
inline std::uint64_t string_hash_key() {
  static const std::uint64_t key = draw_hash_key();
  return key;
}

/// Folds the 128-bit product of `a` and `b` into 64 bits.
inline std::uint64_t mul_fold(std::uint64_t a, std::uint64_t b) {
  const unsigned __int128 p = static_cast<unsigned __int128>(a) * b;
  return static_cast<std::uint64_t>(p) ^ static_cast<std::uint64_t>(p >> 64);
}

}  // namespace detail

/// Keyed multiply-mix over 8-byte words. Every word is folded with the
/// key before it meets the state, so no input word can zero a product
/// (and reset the state) without knowing the key.
inline std::uint64_t keyed_hash(std::string_view s) {
  constexpr std::uint64_t kP0 = 0xa0761d6478bd642fULL;
  constexpr std::uint64_t kP1 = 0xe7037ed1a0b428dbULL;
  const std::uint64_t key = detail::string_hash_key();
  const std::uint64_t word_key = key ^ kP0;
  const std::uint64_t state_key = ((key << 32) | (key >> 32)) ^ kP1;
  const char* p = s.data();
  std::size_t n = s.size();
  std::uint64_t h = detail::mul_fold(n ^ word_key, state_key);
  for (; n > 8; n -= 8, p += 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    h = detail::mul_fold(w ^ word_key, h ^ state_key);
  }
  std::uint64_t tail = 0;
  if (n != 0) std::memcpy(&tail, p, n);
  h = detail::mul_fold(tail ^ word_key, h ^ state_key);
  return detail::mul_fold(h ^ kP0, s.size() ^ state_key);
}

}  // namespace mtlscope::util
