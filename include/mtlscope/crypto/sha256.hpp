// SHA-256 (FIPS 180-4). Self-contained implementation used for certificate
// fingerprints and as the primitive behind the tsig toy signature scheme.
// Every full block goes through one compression kernel, chosen once per
// process: x86 SHA-NI when the CPU has it, else a portable loop
// (sha256_detail.hpp). No build flag is involved, so one binary runs on
// any CPU of its architecture.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace mtlscope::crypto {

/// Incremental SHA-256 hasher.
///
/// Usage:
///   Sha256 h;
///   h.update(data1);
///   h.update(data2);
///   auto digest = h.finish();   // 32 bytes
class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha256();

  /// Absorbs more input. May be called any number of times before finish().
  void update(std::span<const std::uint8_t> data);
  void update(std::string_view data);

  /// Completes the hash. The hasher must not be reused afterwards
  /// (construct a fresh one instead).
  Digest finish();

  /// One-shot convenience.
  static Digest hash(std::span<const std::uint8_t> data);
  static Digest hash(std::string_view data);

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// HMAC-SHA256 (RFC 2104) — used by the tsig scheme.
Sha256::Digest hmac_sha256(std::span<const std::uint8_t> key,
                           std::span<const std::uint8_t> message);

}  // namespace mtlscope::crypto
