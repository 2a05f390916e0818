#include "mtlscope/crypto/sha256.hpp"

#include <bit>
#include <cstring>

#include "mtlscope/crypto/sha256_detail.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define MTLSCOPE_SHA256_X86 1
#endif

namespace mtlscope::crypto {
namespace detail {
namespace {

alignas(16) constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) { return std::rotr(x, n); }

}  // namespace

void sha256_compress_portable(std::uint32_t* state, const std::uint8_t* blocks,
                              std::size_t n) {
  for (; n > 0; --n, blocks += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (std::uint32_t{blocks[4 * i]} << 24) |
             (std::uint32_t{blocks[4 * i + 1]} << 16) |
             (std::uint32_t{blocks[4 * i + 2]} << 8) |
             std::uint32_t{blocks[4 * i + 3]};
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#ifdef MTLSCOPE_SHA256_X86

// The SHA-NI rounds instruction keeps the working variables as two
// vectors, ABEF and CDGH (highest lane first), and runs two rounds per
// issue from the low two lanes of a message+constant vector. Each
// 4-round group's schedule words come from the four groups before it:
//   W[g] = msg2(msg1(W[g-4], W[g-3]) + alignr(W[g-1], W[g-2], 4), W[g-1]).
// Compiled for SHA and SSE4.1 here only; dispatch checks the CPU first.
__attribute__((target("sha,sse4.1"))) void sha256_compress_hw(
    std::uint32_t* state, const std::uint8_t* blocks, std::size_t n) {
  // Byte-swaps each 32-bit lane: the message words are big-endian.
  const __m128i kBswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  const auto* k = reinterpret_cast<const __m128i*>(kK.data());

  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; n > 0; --n, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    const auto* in = reinterpret_cast<const __m128i*>(blocks);
    __m128i w[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& cur = w[g & 3];
      if (g < 4) {
        cur = _mm_shuffle_epi8(_mm_loadu_si128(in + g), kBswap);
      } else {
        const __m128i prev = w[(g - 1) & 3];
        __m128i x = _mm_sha256msg1_epu32(cur, w[(g - 3) & 3]);
        x = _mm_add_epi32(x, _mm_alignr_epi8(prev, w[(g - 2) & 3], 4));
        cur = _mm_sha256msg2_epu32(x, prev);
      }
      __m128i wk = _mm_add_epi32(cur, _mm_load_si128(k + g));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  dcba = _mm_blend_epi16(feba, dchg, 0xF0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}

bool sha256_hw_available() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
}

#else

void sha256_compress_hw(std::uint32_t* state, const std::uint8_t* blocks,
                        std::size_t n) {
  sha256_compress_portable(state, blocks, n);
}

bool sha256_hw_available() { return false; }

#endif

}  // namespace detail

namespace {

/// The one block-compression entry point under every Sha256. The kernel
/// is resolved on first use (thread-safe static init), once per process.
void compress(std::uint32_t* state, const std::uint8_t* blocks,
              std::size_t n) {
  static const detail::Sha256Compress kernel =
      detail::sha256_hw_available() ? detail::sha256_compress_hw
                                    : detail::sha256_compress_portable;
  kernel(state, blocks, n);
}

}  // namespace

Sha256::Sha256() : state_(detail::kSha256Init) {}

void Sha256::update(std::span<const std::uint8_t> data) {
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t need = 64 - buffer_len_;
    const std::size_t take = std::min(need, data.size());
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == 64) {
      compress(state_.data(), buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  const std::size_t blocks = (data.size() - offset) / 64;
  if (blocks > 0) {
    compress(state_.data(), data.data() + offset, blocks);
    offset += 64 * blocks;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

void Sha256::update(std::string_view data) {
  update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

Sha256::Digest Sha256::finish() {
  const std::uint64_t bit_len = total_len_ * 8;
  // 0x80, then zeros up to 56 mod 64, then the 64-bit big-endian bit
  // length: 9..72 bytes fed through one update(). That update also
  // counts the padding in total_len_, which is harmless because
  // bit_len was captured first.
  const std::size_t zeros = (119 - buffer_len_) % 64;
  std::array<std::uint8_t, 72> pad{};
  pad[0] = 0x80;
  for (int i = 0; i < 8; ++i) {
    pad[1 + zeros + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  update(std::span<const std::uint8_t>(pad.data(), 1 + zeros + 8));

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Sha256::Digest Sha256::hash(std::span<const std::uint8_t> data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Sha256::Digest Sha256::hash(std::string_view data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Sha256::Digest hmac_sha256(std::span<const std::uint8_t> key,
                           std::span<const std::uint8_t> message) {
  std::array<std::uint8_t, 64> k{};
  if (key.size() > 64) {
    const auto d = Sha256::hash(key);
    std::memcpy(k.data(), d.data(), d.size());
  } else {
    std::memcpy(k.data(), key.data(), key.size());
  }
  std::array<std::uint8_t, 64> ipad;
  std::array<std::uint8_t, 64> opad;
  for (int i = 0; i < 64; ++i) {
    ipad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
  }
  Sha256 inner;
  inner.update(std::span<const std::uint8_t>(ipad.data(), ipad.size()));
  inner.update(message);
  const auto inner_digest = inner.finish();
  Sha256 outer;
  outer.update(std::span<const std::uint8_t>(opad.data(), opad.size()));
  outer.update(std::span<const std::uint8_t>(inner_digest.data(),
                                             inner_digest.size()));
  return outer.finish();
}

}  // namespace mtlscope::crypto
