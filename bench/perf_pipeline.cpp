// End-to-end throughput: trace generation, Zeek log serialization, and the
// full enrichment pipeline (PipelineExecutor), in connections per second.
#include <benchmark/benchmark.h>

#include <sstream>

#include "mtlscope/core/executor.hpp"
#include "mtlscope/gen/generator.hpp"
#include "mtlscope/zeek/log_io.hpp"

using namespace mtlscope;

namespace {

gen::CampusModel small_model() {
  auto model = gen::paper_model(5'000, 500'000);
  model.background_connections = 5'000;
  return model;
}

void BM_GenerateTrace(benchmark::State& state) {
  std::size_t conns = 0;
  for (auto _ : state) {
    gen::TraceGenerator generator(small_model());
    std::size_t n = 0;
    generator.generate([&n](const tls::TlsConnection&) { ++n; });
    conns += n;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(conns));
}
BENCHMARK(BM_GenerateTrace)->Unit(benchmark::kMillisecond);

// Sharded executor over a pre-generated dataset: the Arg is the shard /
// worker count, so `--benchmark_filter=Executor` shows the scaling curve
// against threads:1, the inline serial figure.
void BM_PipelineExecutor(benchmark::State& state) {
  gen::TraceGenerator generator(small_model());
  const auto dataset = generator.generate_dataset();
  auto config = core::PipelineConfig::campus_defaults();
  config.ct = &generator.ct_database();
  const auto threads = static_cast<std::size_t>(state.range(0));
  std::size_t conns = 0;
  for (auto _ : state) {
    core::PipelineExecutor executor(config, threads);
    auto pipeline = executor.run(dataset);
    conns += pipeline.totals().connections;
    benchmark::DoNotOptimize(pipeline.totals());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(conns));
}
BENCHMARK(BM_PipelineExecutor)
    ->Unit(benchmark::kMillisecond)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4);

void BM_ZeekSslSerialize(benchmark::State& state) {
  gen::TraceGenerator generator(small_model());
  const auto dataset = [&generator] {
    zeek::Dataset d;
    generator.generate(
        [&d](const tls::TlsConnection& conn) { d.add_connection(conn); });
    return d;
  }();
  for (auto _ : state) {
    benchmark::DoNotOptimize(zeek::ssl_log_to_string(dataset.ssl()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dataset.ssl().size()));
}
BENCHMARK(BM_ZeekSslSerialize)->Unit(benchmark::kMillisecond);

void BM_ZeekSslParse(benchmark::State& state) {
  gen::TraceGenerator generator(small_model());
  zeek::Dataset dataset;
  generator.generate(
      [&dataset](const tls::TlsConnection& conn) { dataset.add_connection(conn); });
  const std::string text = zeek::ssl_log_to_string(dataset.ssl());
  for (auto _ : state) {
    std::istringstream in(text);
    benchmark::DoNotOptimize(zeek::parse_ssl_log(in));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dataset.ssl().size()));
}
BENCHMARK(BM_ZeekSslParse)->Unit(benchmark::kMillisecond);

}  // namespace
