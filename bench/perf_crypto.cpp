// Microbenchmarks: SHA-256 (the dispatched kernel and the portable one),
// HMAC, hex/base64, tsig signing. bench/run_benches.sh records them in
// BENCH_crypto.json.
#include <benchmark/benchmark.h>

#include "mtlscope/crypto/encoding.hpp"
#include "mtlscope/crypto/rng.hpp"
#include "mtlscope/crypto/sha256.hpp"
#include "mtlscope/crypto/sha256_detail.hpp"
#include "mtlscope/crypto/tsig.hpp"

using namespace mtlscope::crypto;

namespace {

std::vector<std::uint8_t> make_data(std::size_t n) {
  Rng rng(42);
  std::vector<std::uint8_t> data(n);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng() & 0xff);
  return data;
}

void BM_Sha256(benchmark::State& state) {
  const auto data = make_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536)->Arg(64 << 20);

// The same hash (every argument is whole blocks, plus one padding block)
// on the portable kernel, whatever kernel Sha256 dispatches to.
void BM_Sha256Portable(benchmark::State& state) {
  const auto data = make_data(static_cast<std::size_t>(state.range(0)));
  std::array<std::uint8_t, 64> pad{};
  pad[0] = 0x80;
  const std::uint64_t bits = std::uint64_t{data.size()} * 8;
  for (int i = 0; i < 8; ++i) {
    pad[56 + i] = static_cast<std::uint8_t>(bits >> (56 - 8 * i));
  }
  for (auto _ : state) {
    auto h = detail::kSha256Init;
    detail::sha256_compress_portable(h.data(), data.data(), data.size() / 64);
    detail::sha256_compress_portable(h.data(), pad.data(), 1);
    benchmark::DoNotOptimize(h);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256Portable)->Arg(64)->Arg(1024)->Arg(65536)->Arg(64 << 20);

void BM_HmacSha256(benchmark::State& state) {
  const auto key = make_data(32);
  const auto data = make_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmac_sha256(key, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(512)->Arg(4096);

void BM_HexEncode(benchmark::State& state) {
  const auto data = make_data(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(to_hex(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_HexEncode);

void BM_Base64RoundTrip(benchmark::State& state) {
  const auto data = make_data(1024);
  for (auto _ : state) {
    const auto encoded = to_base64(data);
    benchmark::DoNotOptimize(from_base64(encoded));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Base64RoundTrip);

void BM_TsigSign(benchmark::State& state) {
  const auto key = TsigKey::derive("bench");
  const auto tbs = make_data(600);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tsig_sign(key, tbs));
  }
}
BENCHMARK(BM_TsigSign);

void BM_RngUuid(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uuid());
  }
}
BENCHMARK(BM_RngUuid);

}  // namespace
