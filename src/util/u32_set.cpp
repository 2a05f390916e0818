#include "mtlscope/util/u32_set.hpp"

#include <algorithm>

namespace mtlscope::util {

void U32Set::merge(const U32Set& other) {
  if (other.has_zero_) insert(0);
  for (const std::uint32_t v : other.slots_) {
    if (v != 0) insert(v);
  }
}

bool U32Set::contains(std::uint32_t v) const {
  if (v == 0) return has_zero_;
  if (slots_.empty()) return false;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = slot_of(v) & mask;; i = (i + 1) & mask) {
    if (slots_[i] == v) return true;
    if (slots_[i] == 0) return false;
  }
}

void U32Set::clear() {
  slots_.clear();
  size_ = 0;
  has_zero_ = false;
}

void U32Set::reserve(std::size_t n) {
  if (n * 4 > slots_.size() * 3) rehash(n);
}

void U32Set::rehash(std::size_t n) {
  std::size_t capacity = 4;
  while (capacity * 3 < n * 4) capacity *= 2;
  if (capacity <= slots_.size()) return;
  std::vector<std::uint32_t> old(capacity, 0);
  old.swap(slots_);
  const std::size_t mask = capacity - 1;
  for (const std::uint32_t v : old) {
    if (v == 0) continue;
    std::size_t i = slot_of(v) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = v;
  }
}

std::vector<std::uint32_t> U32Set::sorted() const {
  std::vector<std::uint32_t> out;
  out.reserve(size_);
  if (has_zero_) out.push_back(0);
  for (const std::uint32_t v : slots_) {
    if (v != 0) out.push_back(v);
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool operator==(const U32Set& a, const U32Set& b) {
  if (a.size_ != b.size_ || a.has_zero_ != b.has_zero_) return false;
  for (const std::uint32_t v : a.slots_) {
    if (v != 0 && !b.contains(v)) return false;
  }
  return true;
}

}  // namespace mtlscope::util
