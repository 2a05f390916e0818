// U32Set: a flat open-addressing set of 32-bit values — one allocation,
// no per-element nodes, O(1) insert, contains and size(). Its iteration
// order is the table's and is never exposed: sorted() hands out the
// values in ascending order where order matters (serialization), and
// equality compares values, not layouts.
//
// Slots are linear-probed in a power-of-two table kept at most 3/4
// full; 0 marks an empty slot, so the value 0 is tracked by a flag. The
// slot hash mixes in a key drawn once per process: the values come from
// hostile input (a log's /24 networks), and an unkeyed hash would let a
// crafted log pile every value into one probe run, turning each insert
// into O(n) and the run into a hang. The key changes only the layout,
// never what any reader observes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "mtlscope/util/keyed_hash.hpp"

namespace mtlscope::util {

class U32Set {
 public:
  U32Set() = default;
  U32Set(std::initializer_list<std::uint32_t> values) {
    for (const std::uint32_t v : values) insert(v);
  }

  /// Adds `v`; true when it was not present yet.
  bool insert(std::uint32_t v) {
    if (v == 0) {
      if (has_zero_) return false;
      has_zero_ = true;
      ++size_;
      return true;
    }
    if ((size_ - has_zero_ + 1) * 4 > slots_.size() * 3) {
      rehash(size_ + 1);
    }
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = slot_of(v) & mask;; i = (i + 1) & mask) {
      if (slots_[i] == v) return false;
      if (slots_[i] == 0) {
        slots_[i] = v;
        ++size_;
        return true;
      }
    }
  }

  /// Adds every value of `other`.
  void merge(const U32Set& other);

  bool contains(std::uint32_t v) const;
  std::size_t size() const { return size_; }
  void clear();
  /// Makes room for `n` values without growing again.
  void reserve(std::size_t n);

  /// The values in ascending order.
  std::vector<std::uint32_t> sorted() const;

  friend bool operator==(const U32Set& a, const U32Set& b);

 private:
  static std::size_t slot_of(std::uint32_t v);
  /// Re-inserts every value into a table sized for `n` values.
  void rehash(std::size_t n);

  std::vector<std::uint32_t> slots_;  // power-of-two size, or empty
  std::size_t size_ = 0;              // values held, 0 included
  bool has_zero_ = false;
};

namespace detail {
/// The per-process hash key (see the file comment), drawn on first use.
inline std::uint32_t u32_set_key() {
  static const auto key = static_cast<std::uint32_t>(draw_hash_key());
  return key;
}
}  // namespace detail

inline std::size_t U32Set::slot_of(std::uint32_t v) {
  // lowbias32 finalizer over the keyed value: every output bit depends
  // on every input bit, so the low bits the mask keeps are well mixed.
  std::uint32_t x = v ^ detail::u32_set_key();
  x ^= x >> 16;
  x *= 0x7feb352dU;
  x ^= x >> 15;
  x *= 0x846ca68bU;
  x ^= x >> 16;
  return x;
}

}  // namespace mtlscope::util
