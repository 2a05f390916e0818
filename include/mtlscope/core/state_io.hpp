// StateWriter / StateReader: the primitive encoding layer under the
// versioned shard-state files (DESIGN §12) and watch checkpoints
// (DESIGN §13). Fixed-width little-endian integers, IEEE-754 doubles via
// bit_cast, and length-prefixed strings — no varints, no padding, no
// host-endian leakage — so the same analyzer state serializes to the same
// bytes on every machine and a re-serialized deserialization is
// byte-identical to its source.
//
// StateReader is bounds-checked everywhere: any read past the end of the
// buffer throws StateError. Section payloads are only handed to their
// readers after the file-level SHA-256 trailer verified, but the trailer
// proves integrity, not origin: anyone can re-seal a crafted file. So a
// payload is hostile input, and every value narrower than its encoding
// (an enum byte, a bool byte, an int) goes through the range-checked
// reader of the field lists (core/field_list.hpp).
//
// write_sealed / read_sealed are the one sealed-file codec both formats
// frame their sections with.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace mtlscope::core {

/// Structured failure while decoding a state buffer. Malformed input —
/// truncation, bad magic, unknown version, digest mismatch, a field
/// value out of range — surfaces as this exception (or as the error
/// string of parse_shard_state).
class StateError : public std::runtime_error {
 public:
  explicit StateError(const std::string& what) : std::runtime_error(what) {}
};

/// Capacity to reserve for a run of `count` entries read from the input
/// when `remaining` bytes are left and each entry encodes to at least
/// `min_entry_bytes`. A SHA-256 trailer proves integrity, not origin: a
/// re-sealed file can claim 2^60 entries. Clamped, the reservation never
/// outgrows what the bytes could hold, and the entry loop's own bounds
/// checks end a lying count with a StateError.
inline std::size_t bounded_reserve(std::uint64_t count, std::size_t remaining,
                                   std::size_t min_entry_bytes) {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(count, remaining / min_entry_bytes));
}

/// Appends fixed-width little-endian fields to a growing byte buffer.
class StateWriter {
 public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);
  /// u64 byte length followed by the raw bytes.
  void str(std::string_view v);
  void raw(const void* data, std::size_t size);

  const std::string& buffer() const { return buffer_; }
  std::string take() && { return std::move(buffer_); }

 private:
  std::string buffer_;
};

/// Bounds-checked little-endian reader over one in-memory buffer.
class StateReader {
 public:
  explicit StateReader(std::string_view data) : data_(data) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  std::string str();
  std::string_view bytes(std::size_t n);

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }
  /// Throws unless the whole buffer was consumed — a section that leaves
  /// trailing bytes was encoded by a different layout than it claims.
  void expect_done(const char* section) const;

 private:
  const std::uint8_t* need(std::size_t n);

  std::string_view data_;
  std::size_t pos_ = 0;
};

/// One sealed file format:
///
///   8-byte magic | u32 version | u32 endian sentinel |
///   u32 section count | sections { u32 id, u64 length, payload } |
///   32-byte SHA-256 over everything before the trailer
///
/// The section table is closed per version: ids run 1..N in file order,
/// and a reader rejects an unknown, duplicate or missing id. The nouns
/// name the format in its error messages: `noun` the file ("truncated
/// <noun>: …", "bad endianness sentinel in <noun>"), `kind` its digest
/// and sections ("<kind> digest mismatch", "unknown <kind> section id"),
/// `title` its magic ("not a mtlscope <title>"), `versioned` its version
/// ("unsupported <versioned> version …") and `container` the section
/// table's trailing-bytes check.
struct SealedFormat {
  std::string_view magic;
  std::uint32_t version;
  /// Name of section id i + 1.
  std::span<const char* const> sections;
  const char* noun;
  const char* kind;
  const char* title;
  const char* versioned;
  const char* container;
};

using SectionWriter = std::function<void(StateWriter&)>;
using SectionReader = std::function<void(StateReader&)>;

/// Frames and seals one file: `writers[i]` fills section i + 1's payload.
std::string write_sealed(const SealedFormat& format,
                         const std::vector<SectionWriter>& writers);

/// Verifies and walks one sealed file: `readers[i]` decodes section
/// i + 1, which must then be fully consumed. Returns false with `error`
/// (when non-null) set to a deterministic message; never throws for
/// malformed input. `digest_hex` (when non-null) receives the verified
/// trailer as hex.
bool read_sealed(const SealedFormat& format, std::string_view data,
                 const std::vector<SectionReader>& readers,
                 std::string* error, std::string* digest_hex = nullptr);

}  // namespace mtlscope::core
