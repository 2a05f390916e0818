// Microbenchmarks for shard-state serialization (DESIGN §12): how fast a
// complete ShardState — pipeline registry, eight analyzers, ledger —
// serializes, parses (digest check included), and merges, and what the
// certificate reports pay for the registry's fuid-ordered view.
// Throughput is reported against the serialized container size, the unit
// map/reduce actually moves between hosts.
#include <benchmark/benchmark.h>

#include <optional>
#include <string>
#include <utility>

#include "mtlscope/core/executor.hpp"
#include "mtlscope/core/shard_state.hpp"
#include "mtlscope/gen/generator.hpp"

using namespace mtlscope;

namespace {

core::ShardState make_state(double cert_scale, double conn_scale) {
  auto model = gen::paper_model(cert_scale, conn_scale);
  model.seed = 20240504;
  gen::TraceGenerator generator(std::move(model));
  auto config = core::PipelineConfig::campus_defaults();
  config.ct = &generator.ct_database();
  core::PipelineExecutor executor(config, /*threads=*/4);
  auto state = executor.fold(generator.generate_dataset());
  state.meta.seed = 20240504;
  state.meta.cert_scale = cert_scale;
  state.meta.conn_scale = conn_scale;
  return state;
}

/// state.range(0) selects the scale tier: 0 = small shard, 1 = medium.
std::pair<double, double> tier(std::int64_t t) {
  return t == 0 ? std::pair<double, double>{5'000, 500'000}
                : std::pair<double, double>{500, 50'000};
}

void BM_StateSerialize(benchmark::State& state) {
  const auto [certs, conns] = tier(state.range(0));
  const auto shard = make_state(certs, conns);
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string out = core::serialize_shard_state(shard);
    bytes = out.size();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
  state.counters["state_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_StateSerialize)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_StateParse(benchmark::State& state) {
  const auto [certs, conns] = tier(state.range(0));
  const std::string bytes = core::serialize_shard_state(make_state(certs, conns));
  for (auto _ : state) {
    auto parsed = core::parse_shard_state(bytes);
    benchmark::DoNotOptimize(parsed->pipeline->totals().connections);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
  state.counters["state_bytes"] = static_cast<double>(bytes.size());
}
BENCHMARK(BM_StateParse)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_StateMergeAndFinalize(benchmark::State& state) {
  const auto [certs, conns] = tier(state.range(0));
  const std::string bytes = core::serialize_shard_state(make_state(certs, conns));
  for (auto _ : state) {
    // Parse two copies and merge — the per-pair unit cost of an N-way
    // reduce (reduce is a left fold of exactly this operation).
    auto a = core::parse_shard_state(bytes);
    auto b = core::parse_shard_state(bytes);
    a->merge(std::move(*b));
    a->pipeline->finalize();
    a->ledger.finalize();
    benchmark::DoNotOptimize(a->pipeline->totals().connections);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * bytes.size()));
}
BENCHMARK(BM_StateMergeAndFinalize)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// The certificate reports' registry cost on a registry the size of the
/// paper job's pristine pass (table1 … table14 share one at cert 1:100,
/// conn 1:400000): finalize() after the registry changed, then the
/// twelve fuid-ordered reads those reports make.
void BM_CertificateView(benchmark::State& state) {
  const auto shard = make_state(100, 400'000);
  std::optional<core::Pipeline> pipeline;
  for (auto _ : state) {
    state.PauseTiming();
    pipeline.emplace(*shard.pipeline);  // a copy: its view is not built
    state.ResumeTiming();
    pipeline->finalize();
    for (int read = 0; read < 12; ++read) {
      const auto& view = pipeline->certificates_sorted();
      benchmark::DoNotOptimize(view.data());
    }
  }
  state.counters["certificates"] =
      static_cast<double>(shard.pipeline->certificates().size());
}
BENCHMARK(BM_CertificateView)->Unit(benchmark::kMillisecond);

}  // namespace
