#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>

#include "mtlscope/crypto/encoding.hpp"
#include "mtlscope/crypto/rng.hpp"
#include "mtlscope/crypto/sha256.hpp"
#include "mtlscope/crypto/sha256_detail.hpp"
#include "mtlscope/crypto/tsig.hpp"

namespace mtlscope::crypto {
namespace {

std::string digest_hex(const Sha256::Digest& d) {
  return to_hex(std::span<const std::uint8_t>(d.data(), d.size()));
}

// --- SHA-256 FIPS 180-4 / NIST CAVP vectors -------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(digest_hex(Sha256::hash(std::string_view{})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(digest_hex(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(digest_hex(Sha256::hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(digest_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string data =
      "The quick brown fox jumps over the lazy dog, repeatedly, to cross "
      "block boundaries in interesting ways. 0123456789";
  const auto oneshot = Sha256::hash(data);
  for (std::size_t split = 0; split <= data.size(); split += 7) {
    Sha256 h;
    h.update(std::string_view(data).substr(0, split));
    h.update(std::string_view(data).substr(split));
    EXPECT_EQ(h.finish(), oneshot) << "split at " << split;
  }
}

// Boundary lengths around the 55/56/64-byte padding edges: lengths 55
// and 119 leave room for exactly the 0x80 byte and the length field, 56
// and 120 push the length into an extra block. Digests are of n bytes
// of 'x', from an independent SHA-256 implementation.
struct PaddingCase {
  std::size_t length;
  const char* digest;
};

constexpr PaddingCase kPaddingCases[] = {
    {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
    {1, "2d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a4881"},
    {54, "45f316e10b2c99abf374b22bda893cf3300d77263f1e272349ed414680522952"},
    {55, "d5e285683cd4efc02d021a5c62014694958901005d6f71e89e0989fac77e4072"},
    {56, "04c26261370ee7541549d16dee320c723e3fd14671e66a099afe0a377c16888e"},
    {57, "ae14a2563ccf969d99aca69ce6bb74981f734bbf9f655f73b8f06db68cab5217"},
    {63, "75220b47218278e656f2013bb8f0c455a25eaf01e86c64924e9d48d89776d6f2"},
    {64, "7ce100971f64e7001e8fe5a51973ecdfe1ced42befe7ee8d5fd6219506b5393c"},
    {65, "9537c5fdf120482f7d58d25e9ed583f52c02b4e304ea814db1633ad565aed7e9"},
    {119, "000b48d4edf0fa7bee3c6236ecd2785baa5db4eeb8bb54341b029e0d9fa5fb0c"},
    {120, "13f05a0b594787f5ecd315edc96141bd3243203d1b7d4f0836f37308b276ba98"},
    {128, "24da1b81d0b16df6428eee73c69fcb2a93c76bc6df706f0c6670fe6bfe800464"},
    {1000, "44f8354494a5ba03ba1792a8d3e9c534c47a9181980fde7a3f44b06ef2ae7c7f"},
};

class Sha256PaddingEdge : public ::testing::TestWithParam<PaddingCase> {};

TEST_P(Sha256PaddingEdge, MatchesKnownDigest) {
  const std::string data(GetParam().length, 'x');
  EXPECT_EQ(digest_hex(Sha256::hash(data)), GetParam().digest);
}

TEST_P(Sha256PaddingEdge, MatchesByteAtATime) {
  const std::string data(GetParam().length, 'x');
  Sha256 h;
  for (const char c : data) h.update(std::string_view(&c, 1));
  EXPECT_EQ(digest_hex(h.finish()), GetParam().digest);
}

INSTANTIATE_TEST_SUITE_P(Boundaries, Sha256PaddingEdge,
                         ::testing::ValuesIn(kPaddingCases));

// --- Compression kernels ---------------------------------------------------
//
// Sha256 runs whichever kernel the CPU supports. These tests drive the
// portable and SHA-NI kernels directly, through a padding routine written
// independently of Sha256::finish, so each kernel is checked on every
// machine that can run it.

/// SHA-256 of `message` computed with `kernel` alone. The padded message
/// starts `misalign` bytes into its buffer, to exercise unaligned loads.
Sha256::Digest hash_with(detail::Sha256Compress kernel,
                         std::string_view message, std::size_t misalign = 0) {
  std::string buffer(misalign, '\0');
  buffer.append(message);
  buffer.push_back('\x80');
  while ((buffer.size() - misalign) % 64 != 56) buffer.push_back('\0');
  const std::uint64_t bits = std::uint64_t{message.size()} * 8;
  for (int i = 7; i >= 0; --i) {
    buffer.push_back(static_cast<char>(bits >> (8 * i)));
  }
  auto state = detail::kSha256Init;
  kernel(state.data(),
         reinterpret_cast<const std::uint8_t*>(buffer.data()) + misalign,
         (buffer.size() - misalign) / 64);
  Sha256::Digest out;
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 4; ++j) {
      out[4 * i + j] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * j));
    }
  }
  return out;
}

/// Deterministic non-repeating bytes, so a misrouted block shows.
std::string pseudo_random_bytes(std::size_t n) {
  Rng rng(2024);
  std::string out(n, '\0');
  for (auto& c : out) c = static_cast<char>(rng() & 0xff);
  return out;
}

struct KernelCase {
  const char* name;
  detail::Sha256Compress kernel;
  bool hardware;
};

class Sha256Kernel : public ::testing::TestWithParam<KernelCase> {
 protected:
  void SetUp() override {
    if (GetParam().hardware && !detail::sha256_hw_available()) {
      GTEST_SKIP() << "CPU lacks the SHA extensions; SHA-NI kernel not run";
    }
  }
  Sha256::Digest hash(std::string_view message) const {
    return hash_with(GetParam().kernel, message);
  }
};

TEST_P(Sha256Kernel, NistVectors) {
  EXPECT_EQ(digest_hex(hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(digest_hex(hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(digest_hex(hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(digest_hex(hash(std::string(1'000'000, 'a'))),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha256Kernel, PaddingEdgeVectors) {
  for (const auto& c : kPaddingCases) {
    EXPECT_EQ(digest_hex(hash(std::string(c.length, 'x'))), c.digest)
        << "length " << c.length;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, Sha256Kernel,
    ::testing::Values(
        KernelCase{"portable", detail::sha256_compress_portable, false},
        KernelCase{"sha_ni", detail::sha256_compress_hw, true}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(Sha256Kernels, HardwareMatchesPortableOnEveryLength) {
  if (!detail::sha256_hw_available()) {
    GTEST_SKIP() << "CPU lacks the SHA extensions; SHA-NI kernel not run";
  }
  const std::string data = pseudo_random_bytes(2048);
  for (std::size_t n = 0; n <= data.size(); ++n) {
    const std::string_view message = std::string_view(data).substr(0, n);
    ASSERT_EQ(hash_with(detail::sha256_compress_hw, message, n % 16),
              hash_with(detail::sha256_compress_portable, message))
        << "length " << n;
  }
}

// Sha256 feeds the kernel a buffered block when update() completes one
// and hands it a run of whole blocks in place otherwise. Splitting every
// length 0..2048 at these offsets sends input down both paths (and
// through the dispatched kernel, SHA-NI on CPUs that have it).
TEST(Sha256Kernels, StreamingMatchesPortableAtEverySplit) {
  const std::string data = pseudo_random_bytes(2048);
  const std::size_t splits[] = {0, 1, 31, 63, 64, 65, 127, 128, 200, 1000};
  for (std::size_t n = 0; n <= data.size(); ++n) {
    const std::string_view message = std::string_view(data).substr(0, n);
    const auto expected =
        hash_with(detail::sha256_compress_portable, message);
    ASSERT_EQ(Sha256::hash(message), expected) << "length " << n;
    for (const std::size_t split : splits) {
      if (split > n) break;
      Sha256 h;
      h.update(message.substr(0, split));
      h.update(message.substr(split, (n - split) / 2));
      h.update(message.substr(split + (n - split) / 2));
      ASSERT_EQ(h.finish(), expected) << "length " << n << " split " << split;
    }
  }
}

TEST(Sha256Kernels, CopyMidStreamForksIndependently) {
  const std::string data = pseudo_random_bytes(700);
  const std::string_view prefix = std::string_view(data).substr(0, 100);
  const std::string_view left = std::string_view(data).substr(100, 300);
  const std::string_view right = std::string_view(data).substr(400);

  Sha256 h;
  h.update(prefix);  // one block compressed, 36 bytes buffered
  Sha256 fork = h;
  h.update(left);
  fork.update(right);
  EXPECT_EQ(h.finish(), hash_with(detail::sha256_compress_portable,
                                  std::string(prefix) + std::string(left)));
  EXPECT_EQ(fork.finish(), hash_with(detail::sha256_compress_portable,
                                     std::string(prefix) + std::string(right)));
}

// --- HMAC-SHA256 RFC 4231 vectors ------------------------------------------

TEST(HmacSha256, Rfc4231Case1) {
  const std::vector<std::uint8_t> key(20, 0x0b);
  const std::string msg = "Hi There";
  const auto mac = hmac_sha256(
      key, std::span<const std::uint8_t>(
               reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
  EXPECT_EQ(digest_hex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  const std::string key = "Jefe";
  const std::string msg = "what do ya want for nothing?";
  const auto mac = hmac_sha256(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(key.data()), key.size()),
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
  EXPECT_EQ(digest_hex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case6LongKey) {
  const std::vector<std::uint8_t> key(131, 0xaa);
  const std::string msg = "Test Using Larger Than Block-Size Key - Hash Key First";
  const auto mac = hmac_sha256(
      key, std::span<const std::uint8_t>(
               reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
  EXPECT_EQ(digest_hex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// --- Hex / Base64 ----------------------------------------------------------

TEST(Hex, RoundTrip) {
  const std::vector<std::uint8_t> data = {0x00, 0x01, 0xab, 0xff, 0x7f};
  EXPECT_EQ(to_hex(data), "0001abff7f");
  EXPECT_EQ(to_hex_upper(data), "0001ABFF7F");
  EXPECT_EQ(from_hex("0001abff7f").value(), data);
  EXPECT_EQ(from_hex("0001ABFF7F").value(), data);
}

TEST(Hex, RejectsMalformed) {
  EXPECT_FALSE(from_hex("abc").has_value());   // odd length
  EXPECT_FALSE(from_hex("zz").has_value());    // non-hex
  EXPECT_TRUE(from_hex("").has_value());       // empty is valid
  EXPECT_TRUE(from_hex("").value().empty());
}

TEST(Base64, Rfc4648Vectors) {
  const auto enc = [](std::string_view s) {
    return to_base64(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  };
  EXPECT_EQ(enc(""), "");
  EXPECT_EQ(enc("f"), "Zg==");
  EXPECT_EQ(enc("fo"), "Zm8=");
  EXPECT_EQ(enc("foo"), "Zm9v");
  EXPECT_EQ(enc("foob"), "Zm9vYg==");
  EXPECT_EQ(enc("fooba"), "Zm9vYmE=");
  EXPECT_EQ(enc("foobar"), "Zm9vYmFy");
}

TEST(Base64, DecodeRoundTrip) {
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 256; ++i) data.push_back(static_cast<std::uint8_t>(i));
  const auto decoded = from_base64(to_base64(data));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, data);
}

TEST(Base64, ToleratesMissingPadding) {
  const auto decoded = from_base64("Zm9vYmE");
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::string(decoded->begin(), decoded->end()), "fooba");
}

TEST(Base64, RejectsInvalidCharacter) {
  EXPECT_FALSE(from_base64("Zm9v!mFy").has_value());
}

// --- Rng --------------------------------------------------------------------

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BetweenInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.between(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, WeightedRespectsZeroWeight) {
  Rng rng(13);
  const std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(rng.weighted(weights), 1u);
  }
}

TEST(Rng, WeightedApproximatesDistribution) {
  Rng rng(17);
  const std::vector<double> weights = {1.0, 3.0};
  int counts[2] = {0, 0};
  for (int i = 0; i < 40000; ++i) ++counts[rng.weighted(weights)];
  EXPECT_NEAR(static_cast<double>(counts[1]) / 40000, 0.75, 0.02);
}

TEST(Rng, UuidShape) {
  Rng rng(21);
  const std::string u = rng.uuid();
  ASSERT_EQ(u.size(), 36u);
  EXPECT_EQ(u[8], '-');
  EXPECT_EQ(u[13], '-');
  EXPECT_EQ(u[18], '-');
  EXPECT_EQ(u[23], '-');
}

TEST(Rng, ForkIndependentStreams) {
  Rng parent(5);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

// --- tsig -------------------------------------------------------------------

TEST(Tsig, DeriveDeterministic) {
  const auto a = TsigKey::derive("Example CA");
  const auto b = TsigKey::derive("Example CA");
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.bits(), 2048u);
}

TEST(Tsig, DeriveRespectsBits) {
  EXPECT_EQ(TsigKey::derive("weak", 1024).bits(), 1024u);
  EXPECT_EQ(TsigKey::derive("strong", 4096).bits(), 4096u);
}

TEST(Tsig, SignVerifyRoundTrip) {
  const auto key = TsigKey::derive("signer");
  const std::vector<std::uint8_t> tbs = {1, 2, 3, 4, 5};
  const auto sig = tsig_sign(key, tbs);
  EXPECT_TRUE(tsig_verify(key.key, tbs, sig));
}

TEST(Tsig, VerifyRejectsTamperedMessage) {
  const auto key = TsigKey::derive("signer");
  const std::vector<std::uint8_t> tbs = {1, 2, 3, 4, 5};
  auto sig = tsig_sign(key, tbs);
  std::vector<std::uint8_t> other = {1, 2, 3, 4, 6};
  EXPECT_FALSE(tsig_verify(key.key, other, sig));
}

TEST(Tsig, VerifyRejectsWrongKey) {
  const auto key = TsigKey::derive("signer");
  const auto other = TsigKey::derive("impostor");
  const std::vector<std::uint8_t> tbs = {9, 9, 9};
  const auto sig = tsig_sign(key, tbs);
  EXPECT_FALSE(tsig_verify(other.key, tbs, sig));
}

TEST(Tsig, VerifyRejectsTruncatedSignature) {
  const auto key = TsigKey::derive("signer");
  const std::vector<std::uint8_t> tbs = {1};
  auto sig = tsig_sign(key, tbs);
  sig.pop_back();
  EXPECT_FALSE(tsig_verify(key.key, tbs, sig));
}

}  // namespace
}  // namespace mtlscope::crypto
