// Zeek record-parsing microbench: the row-materializing legacy parser
// (parse_*_log_reference: getline + vector<string> per row) against the
// compiled-plan zero-copy batch path (parse_*_records over in-place
// views), the latter also under the pipeline and chains column
// manifests, and phase B's record-free chain scan resolving against a
// certificate registry. Default scale yields a ~100 MB ssl.log; override with
// MTLSCOPE_PARSE_BENCH_CONN=<conn_scale> for quick local runs. Rates are
// reported as both records/s (items) and parse bytes/s.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "mtlscope/core/chain_upgrade.hpp"
#include "mtlscope/gen/generator.hpp"
#include "mtlscope/zeek/log_io.hpp"
#include "mtlscope/zeek/parse_plan.hpp"

using namespace mtlscope;

namespace {

/// One in-memory log pair shared by every benchmark in this binary.
struct TextFixture {
  std::string ssl_text;
  std::string x509_text;
  std::size_t ssl_records = 0;
  std::size_t x509_records = 0;

  TextFixture() {
    double conn_scale = 25'000;  // ≈ 100 MB of ssl.log (~900k records)
    if (const char* env = std::getenv("MTLSCOPE_PARSE_BENCH_CONN")) {
      conn_scale = std::atof(env);
    }
    auto model = gen::paper_model(2'000, conn_scale);
    model.seed = 20240504;
    gen::TraceGenerator generator(std::move(model));
    const auto dataset = generator.generate_dataset();
    ssl_records = dataset.connection_count();
    x509_records = dataset.certificate_count();
    ssl_text = zeek::ssl_log_to_string(dataset.ssl());
    x509_text = zeek::x509_log_to_string(dataset);
  }
};

const TextFixture& fixture() {
  static const TextFixture instance;
  return instance;
}

std::size_t header_end(std::string_view text) {
  std::size_t pos = 0;
  while (pos < text.size() && text[pos] == '#') {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) return text.size();
    pos = nl + 1;
  }
  return pos;
}

void BM_SslParseLegacy(benchmark::State& state) {
  const auto& logs = fixture();
  std::size_t records = 0;
  for (auto _ : state) {
    std::istringstream in(logs.ssl_text);
    const auto parsed = zeek::parse_ssl_log_reference(in);
    if (!parsed) {
      state.SkipWithError("legacy ssl parse failed");
      return;
    }
    records += parsed->size();
    benchmark::DoNotOptimize(parsed->data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(logs.ssl_text.size() * state.iterations()));
}
BENCHMARK(BM_SslParseLegacy)->Unit(benchmark::kMillisecond);

/// The batch fast path with `columns` as the plan's manifest; every row
/// is still validated in full.
void ssl_parse_projected(benchmark::State& state,
                         const zeek::SslColumns& columns) {
  const auto& logs = fixture();
  const std::string_view text(logs.ssl_text);
  const std::size_t body_begin = header_end(text);
  const zeek::SslPlan plan =
      zeek::SslPlan::compile(
          zeek::ColumnPlan::from_header(text.substr(0, body_begin)))
          .projected(columns);
  std::vector<zeek::SslRecord> out;
  std::size_t records = 0;
  for (auto _ : state) {
    out.clear();
    if (!zeek::parse_ssl_records(text.substr(body_begin), plan, out)) {
      state.SkipWithError("fast ssl parse failed");
      return;
    }
    records += out.size();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(logs.ssl_text.size() * state.iterations()));
}

void BM_SslParseFast(benchmark::State& state) {
  ssl_parse_projected(state, zeek::SslColumns::all());
}
BENCHMARK(BM_SslParseFast)->Unit(benchmark::kMillisecond);

/// What phases C and D parse: every field but uid.
void BM_SslParsePipeline(benchmark::State& state) {
  ssl_parse_projected(state, zeek::SslColumns::pipeline());
}
BENCHMARK(BM_SslParsePipeline)->Unit(benchmark::kMillisecond);

/// What phase B parses: the established flag and both chain lists.
void BM_SslParseChains(benchmark::State& state) {
  ssl_parse_projected(state, zeek::SslColumns::chains());
}
BENCHMARK(BM_SslParseChains)->Unit(benchmark::kMillisecond);

/// Phase B on TSV bytes: the chain scan (same row checks, no records,
/// nothing interned) resolving each row's chains against a registry
/// holding every fixture certificate.
void BM_SslResolveChains(benchmark::State& state) {
  const auto& logs = fixture();
  const std::string_view x509_text(logs.x509_text);
  const std::size_t x509_body = header_end(x509_text);
  std::vector<zeek::X509Record> certs;
  if (!zeek::parse_x509_records(
          x509_text.substr(x509_body),
          zeek::X509Plan::compile(
              zeek::ColumnPlan::from_header(x509_text.substr(0, x509_body))),
          certs)) {
    state.SkipWithError("x509 parse failed");
    return;
  }
  core::Pipeline::CertMap registry;
  for (const auto& cert : certs) {
    core::CertFacts facts;
    facts.fuid = cert.fuid;
    registry.emplace(facts.fuid, std::move(facts));
  }

  const std::string_view text(logs.ssl_text);
  const std::size_t body_begin = header_end(text);
  const zeek::SslPlan plan = zeek::SslPlan::compile(
      zeek::ColumnPlan::from_header(text.substr(0, body_begin)));
  core::ResolvedChains resolved;
  std::size_t records = 0;
  for (auto _ : state) {
    resolved.clear();
    core::ChainResolver resolver(registry, resolved);
    const zeek::SslChainVisitor visit = [&](const zeek::SslChainRow& row) {
      ++records;
      resolver.add(row);
    };
    if (!zeek::scan_ssl_chains(text.substr(body_begin), plan, visit)) {
      state.SkipWithError("chain scan failed");
      return;
    }
    benchmark::DoNotOptimize(resolved.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(logs.ssl_text.size() * state.iterations()));
}
BENCHMARK(BM_SslResolveChains)->Unit(benchmark::kMillisecond);

void BM_X509ParseLegacy(benchmark::State& state) {
  const auto& logs = fixture();
  std::size_t records = 0;
  for (auto _ : state) {
    std::istringstream in(logs.x509_text);
    const auto parsed = zeek::parse_x509_log_reference(in);
    if (!parsed) {
      state.SkipWithError("legacy x509 parse failed");
      return;
    }
    records += parsed->size();
    benchmark::DoNotOptimize(parsed->data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(logs.x509_text.size() * state.iterations()));
}
BENCHMARK(BM_X509ParseLegacy)->Unit(benchmark::kMillisecond);

void BM_X509ParseFast(benchmark::State& state) {
  const auto& logs = fixture();
  const std::string_view text(logs.x509_text);
  const std::size_t body_begin = header_end(text);
  const zeek::X509Plan plan = zeek::X509Plan::compile(
      zeek::ColumnPlan::from_header(text.substr(0, body_begin)));
  std::vector<zeek::X509Record> out;
  std::size_t records = 0;
  for (auto _ : state) {
    out.clear();
    if (!zeek::parse_x509_records(text.substr(body_begin), plan, out)) {
      state.SkipWithError("fast x509 parse failed");
      return;
    }
    records += out.size();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(logs.x509_text.size() * state.iterations()));
}
BENCHMARK(BM_X509ParseFast)->Unit(benchmark::kMillisecond);

/// Tokenize + decode only (no record construction): the layer the
/// allocation-free guarantee covers, and the ceiling for any row parser.
void BM_SslTokenizeOnly(benchmark::State& state) {
  const auto& logs = fixture();
  const std::string_view text(logs.ssl_text);
  const std::size_t body_begin = header_end(text);
  std::string_view fields[32];
  std::string storage;
  std::size_t checksum = 0;
  std::size_t records = 0;
  for (auto _ : state) {
    const char* p = text.data() + body_begin;
    const char* const end = text.data() + text.size();
    while (p < end) {
      const char* nl =
          static_cast<const char*>(memchr(p, '\n', end - p));
      const char* eol = nl != nullptr ? nl : end;
      const std::string_view line(p, static_cast<std::size_t>(eol - p));
      p = nl != nullptr ? nl + 1 : end;
      if (line.empty() || line.front() == '#') continue;
      ++records;
      const std::size_t count = zeek::split_fields(line, fields, 32);
      for (std::size_t i = 0; i < count && i < 32; ++i) {
        checksum += zeek::decode_field(fields[i], storage).size();
      }
    }
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
  state.SetBytesProcessed(static_cast<std::int64_t>(
      (text.size() - body_begin) * state.iterations()));
}
BENCHMARK(BM_SslTokenizeOnly)->Unit(benchmark::kMillisecond);

}  // namespace
