// SHA-256 block-compression kernels behind Sha256 (sha256.cpp), exposed
// so the cross-check tests and the portable-kernel microbench can drive
// each one directly. This is not a runtime switch: Sha256 always uses the
// kernel resolved once per process (SHA-NI when the CPU has it, else the
// portable loop).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace mtlscope::crypto::detail {

/// FIPS 180-4 initial hash value H(0).
inline constexpr std::array<std::uint32_t, 8> kSha256Init = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

/// Compresses `n` consecutive 64-byte blocks into `state` (a, b, … h).
/// `blocks` needs no alignment.
using Sha256Compress = void (*)(std::uint32_t* state,
                                const std::uint8_t* blocks, std::size_t n);

/// The portable FIPS 180-4 loop; the only kernel on non-x86 builds.
void sha256_compress_portable(std::uint32_t* state, const std::uint8_t* blocks,
                              std::size_t n);

/// The x86 SHA-NI kernel. Call it only when sha256_hw_available(); on
/// other architectures it forwards to the portable loop.
void sha256_compress_hw(std::uint32_t* state, const std::uint8_t* blocks,
                        std::size_t n);

/// True when this CPU runs sha256_compress_hw (x86 with SHA and SSE4.1).
bool sha256_hw_available();

}  // namespace mtlscope::crypto::detail
