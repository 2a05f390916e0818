// Enrichment-memoization benches (DESIGN §15): cold vs memoized
// enrichment — certificate facts recomputed from DER every pass (fresh
// Enricher) against the DER-pointer-keyed facts cache answering repeat
// passes, and per-connection host/address classification with the
// per-run EnrichCache cleared each pass against kept warm — plus the
// end-to-end columnar container run they feed (BM_CompactFullRun shape).
//
// Default scale matches perf_compact (~100 MB ssl.log, ~900k records);
// override with MTLSCOPE_ENRICH_BENCH_CONN=<conn_scale> for quick runs.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "mtlscope/colfmt/container.hpp"
#include "mtlscope/colfmt/convert.hpp"
#include "mtlscope/core/enrich.hpp"
#include "mtlscope/core/executor.hpp"
#include "mtlscope/gen/generator.hpp"
#include "mtlscope/zeek/log_io.hpp"

using namespace mtlscope;

namespace {

/// In-memory dataset plus a converted on-disk container, shared by
/// every benchmark in this binary.
struct EnrichFixture {
  zeek::Dataset dataset;
  std::string container_path;
  std::size_t tsv_bytes = 0;
  std::string error;

  EnrichFixture() {
    const auto dir =
        std::filesystem::temp_directory_path() / "mtlscope_perf_enrich";
    std::filesystem::create_directories(dir);
    const std::string ssl_path = (dir / "ssl.log").string();
    const std::string x509_path = (dir / "x509.log").string();
    container_path = (dir / "logs.mtlc").string();

    double conn_scale = 25'000;  // ≈ 100 MB of ssl.log (~900k records)
    if (const char* env = std::getenv("MTLSCOPE_ENRICH_BENCH_CONN")) {
      conn_scale = std::atof(env);
    }
    auto model = gen::paper_model(2'000, conn_scale);
    model.seed = 20240504;
    gen::TraceGenerator generator(std::move(model));
    dataset = generator.generate_dataset();
    {
      std::ofstream out(ssl_path, std::ios::binary);
      zeek::write_ssl_log(out, dataset.ssl());
    }
    {
      std::ofstream out(x509_path, std::ios::binary);
      zeek::write_x509_log(out, dataset);
    }
    tsv_bytes = std::filesystem::file_size(ssl_path) +
                std::filesystem::file_size(x509_path);

    colfmt::CompactRequest request;
    request.ssl_path = ssl_path;
    request.x509_path = x509_path;
    request.out_path = container_path;
    colfmt::compact_logs(request, nullptr, &error);
  }
};

const EnrichFixture& fixture() {
  static const EnrichFixture instance;
  return instance;
}

/// Cold certificate enrichment: a fresh Enricher per pass, so every
/// make_facts re-parses the DER and re-classifies the issuer.
void BM_CertFactsCold(benchmark::State& state) {
  const auto& logs = fixture();
  std::size_t records = 0;
  for (auto _ : state) {
    const core::Enricher enricher(core::PipelineConfig::campus_defaults());
    for (const auto& [fuid, record] : logs.dataset.x509()) {
      const auto facts = enricher.make_facts(record);
      benchmark::DoNotOptimize(&facts);
      ++records;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_CertFactsCold)->Unit(benchmark::kMillisecond);

/// Memoized counterpart: one Enricher answers every pass after the
/// first from the DER-pointer-keyed facts cache.
void BM_CertFactsMemoized(benchmark::State& state) {
  const auto& logs = fixture();
  const core::Enricher enricher(core::PipelineConfig::campus_defaults());
  for (const auto& [fuid, record] : logs.dataset.x509()) {
    const auto facts = enricher.make_facts(record);  // warm the cache
    benchmark::DoNotOptimize(&facts);
  }
  std::size_t records = 0;
  for (auto _ : state) {
    for (const auto& [fuid, record] : logs.dataset.x509()) {
      const auto facts = enricher.make_facts(record);
      benchmark::DoNotOptimize(&facts);
      ++records;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_CertFactsMemoized)->Unit(benchmark::kMillisecond);

/// Cold per-connection enrichment: the host/address cache is cleared
/// every pass, so each row pays direction inference, client-key
/// hashing, and SLD/TLD/association classification in full.
void BM_ConnEnrichCold(benchmark::State& state) {
  const auto& logs = fixture();
  const core::Enricher enricher(core::PipelineConfig::campus_defaults());
  std::size_t records = 0;
  for (auto _ : state) {
    core::EnrichCache cache;
    for (const auto& record : logs.dataset.ssl()) {
      const auto conn = enricher.enrich(record, nullptr, nullptr, cache);
      benchmark::DoNotOptimize(&conn);
      ++records;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_ConnEnrichCold)->Unit(benchmark::kMillisecond);

/// Memoized counterpart: the cache persists, so repeat hosts and
/// addresses fold to pointer-keyed lookups.
void BM_ConnEnrichMemoized(benchmark::State& state) {
  const auto& logs = fixture();
  const core::Enricher enricher(core::PipelineConfig::campus_defaults());
  core::EnrichCache cache;
  std::size_t records = 0;
  for (auto _ : state) {
    for (const auto& record : logs.dataset.ssl()) {
      const auto conn = enricher.enrich(record, nullptr, nullptr, cache);
      benchmark::DoNotOptimize(&conn);
      ++records;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_ConnEnrichMemoized)->Unit(benchmark::kMillisecond);

/// End-to-end container run: the columnar block scan feeding phases A–E.
void BM_FullRunColumnarScan(benchmark::State& state) {
  const auto& logs = fixture();
  if (!logs.error.empty()) {
    state.SkipWithError(logs.error.c_str());
    return;
  }
  std::size_t records = 0;
  for (auto _ : state) {
    std::string error;
    const auto reader = colfmt::ContainerReader::open(logs.container_path,
                                                      &error);
    if (!reader) {
      state.SkipWithError(error.c_str());
      return;
    }
    core::PipelineExecutor executor(core::PipelineConfig::campus_defaults(),
                                    static_cast<std::size_t>(state.range(0)));
    ingest::IngestError ingest_error;
    const auto result = executor.run_container(*reader, &ingest_error);
    if (!result) {
      state.SkipWithError(ingest_error.to_string().c_str());
      return;
    }
    records += static_cast<std::size_t>(result->totals().connections);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(logs.tsv_bytes * state.iterations()));
}
// UseRealTime: the executor runs worker threads; wall clock is the
// honest denominator.
BENCHMARK(BM_FullRunColumnarScan)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
