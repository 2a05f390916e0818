// Enrichment-memoization teeth (DESIGN §15): the DER-keyed facts cache
// and the per-run host/address cache are pure memo layers — every cached
// answer must equal the uncached computation, on fixture certificates
// and on hostile DER bodies alike, and a full run's canonical JSON must
// be byte-identical across thread counts, input formats, and
// --on-error=skip over dirty input.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "mtlscope/colfmt/convert.hpp"
#include "mtlscope/core/enrich.hpp"
#include "mtlscope/core/result_doc.hpp"
#include "mtlscope/experiments/options.hpp"
#include "mtlscope/experiments/registry.hpp"
#include "mtlscope/gen/generator.hpp"
#include "mtlscope/ingest/fault.hpp"
#include "mtlscope/zeek/log_io.hpp"

namespace mtlscope {
namespace {

namespace fs = std::filesystem;

/// Small fixture population: ~1k certificates, ~10k connections.
zeek::Dataset small_dataset() {
  auto model = gen::paper_model(10'000, 2'000'000);
  gen::TraceGenerator generator(std::move(model));
  return generator.generate_dataset();
}

/// Field-by-field equality over everything make_facts computes (usage
/// aggregates start zeroed on both sides and are not compared).
void expect_same_facts(const core::CertFacts& a, const core::CertFacts& b,
                       const std::string& label) {
  EXPECT_EQ(a.fuid, b.fuid) << label;
  EXPECT_EQ(a.version, b.version) << label;
  EXPECT_EQ(a.key_bits, b.key_bits) << label;
  EXPECT_EQ(a.serial_hex, b.serial_hex) << label;
  EXPECT_EQ(a.subject_cn, b.subject_cn) << label;
  EXPECT_EQ(a.issuer_org, b.issuer_org) << label;
  EXPECT_EQ(a.issuer_cn, b.issuer_cn) << label;
  EXPECT_EQ(a.issuer_dn, b.issuer_dn) << label;
  EXPECT_EQ(a.validity.not_before, b.validity.not_before) << label;
  EXPECT_EQ(a.validity.not_after, b.validity.not_after) << label;
  ASSERT_EQ(a.san_dns.size(), b.san_dns.size()) << label;
  for (std::size_t i = 0; i < a.san_dns.size(); ++i) {
    EXPECT_EQ(a.san_dns[i], b.san_dns[i]) << label << " san " << i;
  }
  EXPECT_EQ(a.san_email_count, b.san_email_count) << label;
  EXPECT_EQ(a.san_uri_count, b.san_uri_count) << label;
  EXPECT_EQ(a.san_ip_count, b.san_ip_count) << label;
  EXPECT_EQ(a.issuer_class, b.issuer_class) << label;
  EXPECT_EQ(a.issuer_category, b.issuer_category) << label;
  EXPECT_EQ(a.campus_issuer, b.campus_issuer) << label;
  EXPECT_EQ(a.cn_type, b.cn_type) << label;
  ASSERT_EQ(a.san_dns_types.size(), b.san_dns_types.size()) << label;
  for (std::size_t i = 0; i < a.san_dns_types.size(); ++i) {
    EXPECT_EQ(a.san_dns_types[i], b.san_dns_types[i]) << label << " t" << i;
  }
}

TEST(EnrichCache, MemoizedFactsMatchUnmemoizedOnFixtureCerts) {
  const auto dataset = small_dataset();
  ASSERT_GT(dataset.certificate_count(), 100u);

  // `warm` answers every certificate twice (miss, then pointer-keyed
  // hit); `cold` is rebuilt per certificate so its answer can never come
  // from a cache. All three must agree on every field.
  const core::Enricher warm(core::PipelineConfig::campus_defaults());
  std::size_t with_der = 0;
  for (const auto& [fuid, record] : dataset.x509()) {
    if (!record.cert_der.empty()) ++with_der;
    const core::CertFacts first = warm.make_facts(record);
    const core::CertFacts second = warm.make_facts(record);
    const core::Enricher cold(core::PipelineConfig::campus_defaults());
    const core::CertFacts uncached = cold.make_facts(record);
    expect_same_facts(first, second, "repeat call, fuid " + fuid.str());
    expect_same_facts(first, uncached, "fresh enricher, fuid " + fuid.str());
  }

  // Every DER-carrying certificate missed once, hit once, and was
  // admitted (fixture DER is well-formed and fuid-distinct).
  ASSERT_GT(with_der, 0u);
  const auto stats = warm.facts_cache_stats();
  EXPECT_EQ(stats.misses, with_der);
  EXPECT_EQ(stats.hits, with_der);
  EXPECT_EQ(stats.unique, with_der);
}

TEST(EnrichCache, HostileDerFallbackIsNeverCached) {
  // Malformed DER: SEQUENCE claiming a 4 GB body, then garbage. The
  // logged-fields fallback depends on per-row fields beyond the DER
  // bytes, so it must bypass the cache — and stay deterministic.
  const std::vector<std::uint8_t> hostile = {0x30, 0x84, 0xff, 0xff, 0xff,
                                             0xff, 0x02, 0x01, 0x00, 0x30};
  zeek::X509Record record;
  record.fuid = colfmt::Str("Fhostile1");
  record.version = 3;
  record.serial = colfmt::Str("0102");
  record.subject = colfmt::Str("CN=hostile.example");
  record.issuer = colfmt::Str("CN=Private Issuer,O=HostileOrg");
  record.not_valid_before = 100;
  record.not_valid_after = 400;
  record.key_length = 2048;
  record.cert_der = colfmt::Str(std::string_view(
      reinterpret_cast<const char*>(hostile.data()), hostile.size()));

  const core::Enricher warm(core::PipelineConfig::campus_defaults());
  const core::CertFacts first = warm.make_facts(record);
  const core::CertFacts second = warm.make_facts(record);
  const core::Enricher cold(core::PipelineConfig::campus_defaults());
  const core::CertFacts uncached = cold.make_facts(record);
  expect_same_facts(first, second, "hostile repeat");
  expect_same_facts(first, uncached, "hostile fresh");
  EXPECT_EQ(first.subject_cn, "hostile.example");
  EXPECT_EQ(first.issuer_org, "HostileOrg");

  // Both calls computed: the fallback result was not admitted.
  const auto stats = warm.facts_cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.unique, 0u);
}

/// Scratch directory keyed by PID so parallel ctest trees never share.
class EnrichCacheRuns : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mtlscope_enrich_cache_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string write_file(const std::string& name, const std::string& text) {
    const fs::path path = dir_ / name;
    std::ofstream out(path, std::ios::binary);
    out << text;
    return path.string();
  }

  fs::path dir_;
};

std::string canonical_run(const experiments::RunOptions& options) {
  const auto docs = experiments::run_experiments({"table1"}, options);
  return core::render_json_envelope(docs, /*include_perf=*/false);
}

TEST_F(EnrichCacheRuns, CanonicalJsonIdenticalAcrossThreadsAndFormats) {
  const auto dataset = small_dataset();
  const std::string ssl_path =
      write_file("ssl.log", zeek::ssl_log_to_string(dataset.ssl()));
  const std::string x509_path =
      write_file("x509.log", zeek::x509_log_to_string(dataset));

  const std::string container = (dir_ / "logs.mtlc").string();
  {
    colfmt::CompactRequest request;
    request.ssl_path = ssl_path;
    request.x509_path = x509_path;
    request.out_path = container;
    std::string error;
    ASSERT_TRUE(colfmt::compact_logs(request, nullptr, &error)) << error;
  }

  std::string reference;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const bool compact : {false, true}) {
      experiments::RunOptions options;
      options.threads = threads;
      options.ssl_log = compact ? container : ssl_path;
      if (!compact) options.x509_log = x509_path;
      const std::string json = canonical_run(options);
      if (reference.empty()) {
        reference = json;
        ASSERT_FALSE(reference.empty());
      } else {
        EXPECT_EQ(json, reference)
            << "threads=" << threads << " compact=" << compact;
      }
    }
  }
}

TEST_F(EnrichCacheRuns, DirtySkipRunsIdenticalAcrossThreadsAndFormats) {
  const auto dataset = small_dataset();
  std::size_t ssl_bad = 0, x509_bad = 0;
  const std::string ssl_path = write_file(
      "dirty_ssl.log", ingest::corrupt_log_rows(
                           zeek::ssl_log_to_string(dataset.ssl()), 20240504,
                           0.01, &ssl_bad));
  const std::string x509_path = write_file(
      "dirty_x509.log", ingest::corrupt_log_rows(
                            zeek::x509_log_to_string(dataset), 20240505,
                            0.02, &x509_bad));
  ASSERT_GT(ssl_bad, 0u);
  ASSERT_GT(x509_bad, 0u);

  const std::string container = (dir_ / "dirty.mtlc").string();
  {
    colfmt::CompactRequest request;
    request.ssl_path = ssl_path;
    request.x509_path = x509_path;
    request.out_path = container;
    request.errors.on_error = ingest::ErrorPolicy::Action::kSkip;
    colfmt::CompactStats stats;
    std::string error;
    ASSERT_TRUE(colfmt::compact_logs(request, &stats, &error)) << error;
    ASSERT_GT(stats.quarantined, 0u);
  }

  std::string reference;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const bool compact : {false, true}) {
      experiments::RunOptions options;
      options.threads = threads;
      options.errors.on_error = ingest::ErrorPolicy::Action::kSkip;
      options.ssl_log = compact ? container : ssl_path;
      if (!compact) options.x509_log = x509_path;
      const std::string json = canonical_run(options);
      if (reference.empty()) {
        reference = json;
        EXPECT_NE(json.find("data_quality"), std::string::npos);
      } else {
        EXPECT_EQ(json, reference)
            << "threads=" << threads << " compact=" << compact;
      }
    }
  }
}

}  // namespace
}  // namespace mtlscope
