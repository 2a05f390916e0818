// Internal wire-format helpers for the compact container: little-endian
// integer codecs, the inlined block cursor, and the column-carving
// utilities shared by the block decoders (container.cpp) and the
// zero-materialization block scan (scan.cpp). The layouts themselves are
// documented in container.cpp; this header only factors the mechanics so
// both consumers read the same bytes the same way.
#pragma once

#include <cstdint>
#include <cstring>
#include <bit>
#include <string>
#include <string_view>
#include <vector>

#include "mtlscope/colfmt/arena.hpp"
#include "mtlscope/core/state_io.hpp"

namespace mtlscope::colfmt::wire {

inline void put_u32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 24) & 0xff));
}

inline void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

inline std::uint32_t get_u32(const char* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

inline std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

/// Appends a zigzag-encoded LEB128 varint (the delta-ts column codec).
inline void put_zigzag(std::string& out, std::int64_t value) {
  std::uint64_t zz = (static_cast<std::uint64_t>(value) << 1) ^
                     static_cast<std::uint64_t>(value >> 63);
  while (zz >= 0x80) {
    out.push_back(static_cast<char>(zz | 0x80));
    zz >>= 7;
  }
  out.push_back(static_cast<char>(zz));
}

/// Inline little-endian cursor for the hot block decoders. StateReader's
/// out-of-line per-value calls cost more than the loads themselves at
/// millions of rows per second; this is the same wire layout with every
/// read inlined, throwing the same core::StateError on underflow.
struct Cursor {
  const char* p = nullptr;
  const char* end = nullptr;

  constexpr Cursor() = default;
  explicit Cursor(std::string_view data)
      : p(data.data()), end(data.data() + data.size()) {}

  const char* need(std::size_t n) {
    if (remaining() < n) {
      throw core::StateError("truncated block payload");
    }
    const char* q = p;
    p += n;
    return q;
  }
  std::size_t remaining() const { return static_cast<std::size_t>(end - p); }
  std::uint8_t u8() { return static_cast<std::uint8_t>(*need(1)); }
  std::uint32_t u32() { return get_u32(need(4)); }
  std::uint64_t u64() { return get_u64(need(8)); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const std::uint8_t b = u8();
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
    }
    throw core::StateError("overlong varint in block payload");
  }
  std::int64_t zigzag() {
    const std::uint64_t v = varint();
    return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
  }
  std::string_view view() {
    const std::uint64_t len = u64();
    const char* q = need(static_cast<std::size_t>(len));
    return std::string_view(q, static_cast<std::size_t>(len));
  }
  void expect_done(const char* section) const {
    if (p != end) {
      throw core::StateError(std::string("trailing bytes in '") + section +
                             "': " + std::to_string(end - p) + " unread");
    }
  }
};

/// Sub-cursor over the next `bytes` of `c` (bounds-checked here, so the
/// row loop's fixed-width reads can never underflow their column).
inline Cursor carve(Cursor& c, std::size_t bytes) {
  const char* start = c.need(bytes);
  return Cursor(std::string_view(start, bytes));
}

/// Sub-cursor over the next `rows` length-prefixed strings.
inline Cursor carve_strs(Cursor& c, std::uint32_t rows) {
  Cursor column = c;
  for (std::uint32_t i = 0; i < rows; ++i) c.view();
  column.end = c.p;
  return column;
}

/// Total entries across a count column (cursor taken by value).
inline std::uint64_t count_sum(Cursor counts, std::uint32_t rows) {
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < rows; ++i) total += counts.u32();
  return total;
}

inline std::vector<Str> read_dict(Cursor& c) {
  const std::uint32_t count = c.u32();
  std::vector<Str> dict;
  // Each entry is at least its u64 length prefix.
  dict.reserve(core::bounded_reserve(count, c.remaining(), 8));
  for (std::uint32_t i = 0; i < count; ++i) {
    dict.push_back(Str(c.view()));
  }
  return dict;
}

inline const Str& dict_at(const std::vector<Str>& dict, std::uint32_t id) {
  if (id >= dict.size()) {
    throw core::StateError("dictionary id out of range");
  }
  return dict[id];
}

}  // namespace mtlscope::colfmt::wire
