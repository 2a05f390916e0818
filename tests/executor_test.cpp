// PipelineExecutor: the sharded run must produce the full analyzer result
// set bit-identically for every shard count, and the mergeable pieces
// (CertFacts, connection analyzers) must fold correctly on their own.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include <unistd.h>

#include "field_equality.hpp"
#include "mtlscope/colfmt/container.hpp"
#include "mtlscope/core/analyzers.hpp"
#include "mtlscope/core/executor.hpp"
#include "mtlscope/core/shard_state.hpp"
#include "mtlscope/gen/generator.hpp"
#include "mtlscope/tls/handshake.hpp"
#include "mtlscope/trust/authority.hpp"
#include "mtlscope/trust/public_cas.hpp"
#include "mtlscope/x509/name.hpp"
#include "mtlscope/zeek/log_io.hpp"

namespace mtlscope {
namespace {

namespace fs = std::filesystem;

gen::CampusModel small_model() {
  // Small enough to run at four shard counts, big enough to populate
  // every analyzer (dummy issuers, collisions, interception, …).
  auto model = gen::paper_model(1'000, 300'000);
  model.background_connections = 30'000;
  return model;
}

/// Everything a run produces: the merged pipeline plus all eight
/// connection analyzers, merged across shards.
struct RunResult {
  core::Pipeline pipeline;
  core::AnalyzerSet analyzers;
};

/// Runs `dataset` with the generator's CT database attached — in memory,
/// or from `container` (the same rows converted) when one is given.
RunResult run_sharded(const gen::TraceGenerator& generator,
                      const zeek::Dataset& dataset, std::size_t threads,
                      const colfmt::ContainerReader* container = nullptr) {
  auto config = core::PipelineConfig::campus_defaults();
  config.ct = &generator.ct_database();
  core::PipelineExecutor executor(std::move(config), threads);
  core::Sharded<core::AnalyzerSet> analyzers(executor.shard_count());
  executor.attach(analyzers);

  ingest::IngestError error;
  auto pipeline = container == nullptr
                      ? std::optional(executor.run(dataset))
                      : executor.run_container(*container, &error);
  if (!pipeline) throw std::runtime_error(error.to_string());
  if (container != nullptr) {
    EXPECT_STREQ(executor.last_run_stats().scan, "columnar");
  }
  return RunResult{std::move(*pipeline), std::move(analyzers).merged()};
}

/// Every listed field of the pipeline (totals, registry, interception
/// state) and of the eight analyzers.
void expect_same_results(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(testing_support::field_differences(a.pipeline, b.pipeline), "");
  EXPECT_EQ(testing_support::field_differences(a.analyzers, b.analyzers), "");
}

// --- Parameterized shard-count equivalence ---------------------------------

class ExecutorEquivalenceTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  static void SetUpTestSuite() {
    generator_ = new gen::TraceGenerator(small_model());
    dataset_ = new zeek::Dataset(generator_->generate_dataset());
    reference_ = new RunResult(run_sharded(*generator_, *dataset_, 1));
  }
  static void TearDownTestSuite() {
    delete reference_;
    delete dataset_;
    delete generator_;
  }

  static gen::TraceGenerator* generator_;
  static zeek::Dataset* dataset_;
  static RunResult* reference_;  // K = 1 (the serial path)
};

gen::TraceGenerator* ExecutorEquivalenceTest::generator_ = nullptr;
zeek::Dataset* ExecutorEquivalenceTest::dataset_ = nullptr;
RunResult* ExecutorEquivalenceTest::reference_ = nullptr;

TEST_P(ExecutorEquivalenceTest, FullResultSetMatchesSerial) {
  const auto result = run_sharded(*generator_, *dataset_, GetParam());
  expect_same_results(result, *reference_);
}

/// The fuid-ordered view is exactly this registry's entries (pointers
/// into its own nodes), in the order a fresh sort gives.
void expect_view_is_sorted_registry(const core::Pipeline& pipeline) {
  std::vector<const core::CertFacts*> fresh;
  for (const auto& [fuid, facts] : pipeline.certificates()) {
    fresh.push_back(&facts);
  }
  std::sort(fresh.begin(), fresh.end(),
            [](const core::CertFacts* a, const core::CertFacts* b) {
              return a->fuid < b->fuid;
            });
  EXPECT_GT(fresh.size(), 0u);
  EXPECT_EQ(pipeline.certificates_sorted(), fresh);
}

TEST_P(ExecutorEquivalenceTest, CertificateViewIsTheSortedRegistry) {
  expect_view_is_sorted_registry(reference_->pipeline);
  const auto result = run_sharded(*generator_, *dataset_, GetParam());
  expect_view_is_sorted_registry(result.pipeline);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ExecutorEquivalenceTest,
                         ::testing::Values(std::size_t{2}, std::size_t{4},
                                           std::size_t{7}));

TEST(ExecutorTest, SanityOnReferenceRun) {
  gen::TraceGenerator generator(small_model());
  const auto dataset = generator.generate_dataset();
  const auto result = run_sharded(generator, dataset, 3);
  EXPECT_GT(result.pipeline.totals().connections, 0u);
  EXPECT_GT(result.pipeline.certificates().size(), 0u);
  EXPECT_FALSE(result.pipeline.interception_issuers().empty());
  EXPECT_GT(result.pipeline.interception_excluded_connections(), 0u);
  EXPECT_FALSE(result.analyzers.prevalence.series().empty());
}

// --- Container runs: columnar scan, CT-based phase C ------------------------

TEST(ExecutorTest, ContainerRunWithCtMatchesInMemoryRun) {
  gen::TraceGenerator generator(small_model());
  const auto dataset = generator.generate_dataset();
  const auto reference = run_sharded(generator, dataset, 1);
  ASSERT_FALSE(reference.pipeline.interception_issuers().empty());

  // Small blocks: phases B–D cross many block boundaries.
  const fs::path dir =
      fs::temp_directory_path() /
      ("mtlscope_executor_ct_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string container = (dir / "ct.mtlc").string();
  {
    colfmt::WriterOptions writer_options;
    writer_options.block_rows = 4096;
    colfmt::ContainerWriter writer(container, writer_options);
    ASSERT_TRUE(writer.ok()) << writer.error();
    for (const auto& [fuid, record] : dataset.x509()) writer.add_x509(record);
    for (const auto& record : dataset.ssl()) writer.add_ssl(record);
    std::string error;
    ASSERT_TRUE(writer.finish(&error)) << error;
  }
  std::string open_error;
  const auto reader = colfmt::ContainerReader::open(container, &open_error);
  ASSERT_TRUE(reader) << open_error;
  ASSERT_GT(reader->ssl_blocks().size(), 8u);

  for (const std::size_t threads : {1u, 2u, 4u, 7u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto result = run_sharded(generator, dataset, threads, &*reader);
    expect_same_results(result, reference);
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// --- CertFacts merge ---------------------------------------------------------

TEST(CertFactsMergeTest, FoldsUsageAggregates) {
  core::CertFacts a;
  a.fuid = "F1";
  a.used_as_server = true;
  a.seen_inbound = true;
  a.connection_count = 3;
  a.first_seen = 1'000;
  a.last_seen = 2'000;
  a.server_subnets = {0x0a000100u};
  a.context_sld = "";
  a.context_assoc = core::ServerAssociation::kNone;

  core::CertFacts b;
  b.fuid = "F1";
  b.used_as_client = true;
  b.used_in_mutual = true;
  b.seen_outbound = true;
  b.client_use_while_expired = true;
  b.connection_count = 2;
  b.first_seen = 500;
  b.last_seen = 1'500;
  b.server_subnets = {0x0a000200u};
  b.client_subnets = {0xc0a80100u};
  b.context_sld = "example.com";

  core::merge_fields(a, std::move(b));
  EXPECT_TRUE(a.used_as_server);
  EXPECT_TRUE(a.used_as_client);
  EXPECT_TRUE(a.used_in_mutual);
  EXPECT_TRUE(a.seen_inbound);
  EXPECT_TRUE(a.seen_outbound);
  EXPECT_TRUE(a.client_use_while_expired);
  EXPECT_EQ(a.connection_count, 5u);
  EXPECT_EQ(a.first_seen, 500);
  EXPECT_EQ(a.last_seen, 2'000);
  EXPECT_EQ(a.server_subnets.sorted(),
            (std::vector<std::uint32_t>{0x0a000100u, 0x0a000200u}));
  EXPECT_EQ(a.client_subnets.sorted(),
            (std::vector<std::uint32_t>{0xc0a80100u}));
  // Representative context: first non-empty in merge order.
  EXPECT_EQ(a.context_sld, "example.com");
}

TEST(CertFactsMergeTest, PublicClassificationWins) {
  core::CertFacts a;
  a.fuid = "F1";
  a.issuer_class = trust::IssuerClass::kPrivate;
  a.issuer_category = core::IssuerCategory::kPrivateOthers;
  a.context_sld = "first.com";

  core::CertFacts b;
  b.fuid = "F1";
  b.issuer_class = trust::IssuerClass::kPublic;
  b.issuer_category = core::IssuerCategory::kPublic;
  b.context_sld = "second.com";

  core::merge_fields(a, std::move(b));
  EXPECT_EQ(a.issuer_class, trust::IssuerClass::kPublic);
  EXPECT_EQ(a.issuer_category, core::IssuerCategory::kPublic);
  // First shard already had a context SLD; merge keeps it.
  EXPECT_EQ(a.context_sld, "first.com");
}

// --- Analyzer merges ---------------------------------------------------------

zeek::SslRecord make_ssl(const std::string& client_ip, std::uint16_t port) {
  zeek::SslRecord record;
  record.orig_h = client_ip;
  record.resp_p = port;
  record.established = true;
  return record;
}

core::EnrichedConnection make_conn(const zeek::SslRecord& ssl,
                                   util::UnixSeconds ts, bool mutual,
                                   core::Direction direction) {
  core::EnrichedConnection conn;
  conn.ssl = &ssl;
  conn.ts = ts;
  conn.established = true;
  conn.mutual = mutual;
  conn.direction = direction;
  return conn;
}

TEST(AnalyzerMergeTest, PrevalenceMergeEqualsSingleStream) {
  const auto ssl = make_ssl("10.1.2.3", 443);
  const util::UnixSeconds may_2022 = 1'651'500'000;
  const util::UnixSeconds oct_2022 = 1'665'000'000;
  const auto c1 = make_conn(ssl, may_2022, true, core::Direction::kInbound);
  const auto c2 = make_conn(ssl, oct_2022, false, core::Direction::kInbound);
  const auto c3 = make_conn(ssl, oct_2022, true, core::Direction::kOutbound);

  core::PrevalenceAnalyzer whole;
  whole.observe(c1);
  whole.observe(c2);
  whole.observe(c3);

  core::PrevalenceAnalyzer first, second;
  first.observe(c1);
  second.observe(c2);
  second.observe(c3);
  core::merge_fields(first, std::move(second));

  const auto expected = whole.series();
  const auto merged = first.series();
  ASSERT_EQ(merged.size(), expected.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].month_index, expected[i].month_index);
    EXPECT_EQ(merged[i].total, expected[i].total);
    EXPECT_EQ(merged[i].mutual, expected[i].mutual);
    EXPECT_EQ(merged[i].mutual_inbound, expected[i].mutual_inbound);
    EXPECT_EQ(merged[i].mutual_outbound, expected[i].mutual_outbound);
  }
}

TEST(AnalyzerMergeTest, ServicePortMergeEqualsSingleStream) {
  const auto ssl_a = make_ssl("10.1.2.3", 443);
  const auto ssl_b = make_ssl("10.1.2.4", 50'500);
  const auto c1 = make_conn(ssl_a, 0, true, core::Direction::kInbound);
  const auto c2 = make_conn(ssl_b, 0, true, core::Direction::kInbound);
  const auto c3 = make_conn(ssl_a, 0, false, core::Direction::kOutbound);

  core::ServicePortAnalyzer whole;
  whole.observe(c1);
  whole.observe(c2);
  whole.observe(c3);

  core::ServicePortAnalyzer first, second;
  first.observe(c1);
  second.observe(c2);
  second.observe(c3);
  core::merge_fields(first, std::move(second));

  for (const auto direction :
       {core::Direction::kInbound, core::Direction::kOutbound}) {
    for (const bool mutual : {false, true}) {
      const auto expected = whole.top(direction, mutual, 10);
      const auto merged = first.top(direction, mutual, 10);
      ASSERT_EQ(merged.size(), expected.size());
      for (std::size_t i = 0; i < merged.size(); ++i) {
        EXPECT_EQ(merged[i].port_label, expected[i].port_label);
        EXPECT_EQ(merged[i].connections, expected[i].connections);
        EXPECT_DOUBLE_EQ(merged[i].share, expected[i].share);
      }
    }
  }
}

TEST(ShardedTest, MergedFoldsAllShardsInOrder) {
  const auto ssl = make_ssl("10.1.2.3", 443);
  const auto conn = make_conn(ssl, 1'651'500'000, true,
                              core::Direction::kInbound);
  core::Sharded<core::PrevalenceAnalyzer> sharded(3);
  ASSERT_EQ(sharded.size(), 3u);
  sharded.shard(0).observe(conn);
  sharded.shard(1).observe(conn);
  sharded.shard(2).observe(conn);
  const auto merged = std::move(sharded).merged();
  const auto series = merged.series();
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].total, 3u);
  EXPECT_EQ(series[0].mutual, 3u);
}

// --- The certificate view across registry changes -------------------------

/// Two map slices of one small trace: the first and the second half of
/// the ssl rows, each with the same half of the x509 rows (disjoint
/// registries) or with all of them (registries sharing every fuid).
class CertificateViewTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    generator_ = new gen::TraceGenerator(small_model());
    dataset_ = new zeek::Dataset(generator_->generate_dataset());
  }
  static void TearDownTestSuite() {
    delete dataset_;
    delete generator_;
  }

  static core::ShardState fold_half(bool second, bool all_x509 = false) {
    const auto& ssl = dataset_->ssl();
    std::vector<const zeek::X509Record*> x509;
    for (const auto& [fuid, row] : dataset_->x509()) x509.push_back(&row);
    const auto half = [second](const auto& rows) {
      const std::size_t mid = rows.size() / 2;
      return second ? std::vector(rows.begin() + mid, rows.end())
                    : std::vector(rows.begin(), rows.begin() + mid);
    };
    auto config = core::PipelineConfig::campus_defaults();
    config.ct = &generator_->ct_database();
    core::PipelineExecutor executor(std::move(config), 2);
    return executor.fold(half(ssl), all_x509 ? x509 : half(x509));
  }

  static gen::TraceGenerator* generator_;
  static zeek::Dataset* dataset_;
};

gen::TraceGenerator* CertificateViewTest::generator_ = nullptr;
zeek::Dataset* CertificateViewTest::dataset_ = nullptr;

TEST_F(CertificateViewTest, ReduceOfTwoLoadedStatesRebuildsTheView) {
  auto first = core::parse_shard_state(
      core::serialize_shard_state(fold_half(false)));
  auto second = core::parse_shard_state(
      core::serialize_shard_state(fold_half(true)));
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  // A loaded pipeline has no view until it is finalized.
  EXPECT_THROW(first->pipeline->certificates_sorted(), std::logic_error);
  first->merge(std::move(*second));
  first->pipeline->finalize();
  expect_view_is_sorted_registry(*first->pipeline);
}

TEST_F(CertificateViewTest, BackfillDropsTheViewAndFinalizeRebuildsIt) {
  core::ShardState state = fold_half(false);
  expect_view_is_sorted_registry(*state.pipeline);
  const core::ShardState other = fold_half(true);
  const std::size_t before = state.pipeline->certificates().size();
  state.pipeline->backfill_certificates(other.pipeline->certificates());
  ASSERT_GT(state.pipeline->certificates().size(), before);
  EXPECT_THROW(state.pipeline->certificates_sorted(), std::logic_error);
  state.pipeline->finalize();
  expect_view_is_sorted_registry(*state.pipeline);
}

TEST_F(CertificateViewTest, CumulativeCopyOwnsItsViewAcrossAnotherWindow) {
  // What the watch scheduler does: a cumulative emission renders a copy
  // of the cumulative state (finalized), then the next window merges
  // into the cumulative state itself.
  core::ShardState cumulative = fold_half(false);
  core::ShardState emitted = cumulative;
  emitted.pipeline->finalize();
  expect_view_is_sorted_registry(*emitted.pipeline);

  cumulative.merge(fold_half(true));
  EXPECT_THROW(cumulative.pipeline->certificates_sorted(), std::logic_error);
  cumulative.pipeline->finalize();
  expect_view_is_sorted_registry(*cumulative.pipeline);
  expect_view_is_sorted_registry(*emitted.pipeline);

  core::ShardState next = cumulative;
  next.pipeline->finalize();
  expect_view_is_sorted_registry(*next.pipeline);
}

/// The registry rule alone: a field list over one certificate map.
struct RegistryOnly {
  core::Pipeline::CertMap certs;

  template <class V>
  static void fields(V& v) {
    v("certificates", &RegistryOnly::certs,
      core::rule::registry(&core::CertFacts::fuid));
  }
};

TEST_F(CertificateViewTest, MergeByAdoptionEqualsInsertingEveryEntry) {
  const core::ShardState first = fold_half(false, true);
  const core::ShardState second = fold_half(true, true);
  RegistryOnly adopted;
  RegistryOnly inserted;
  for (const core::ShardState* shard : {&first, &second}) {
    const core::Pipeline::CertMap& certs = shard->pipeline->certificates();
    core::merge_fields(adopted, RegistryOnly{certs});
    // Every entry inserted or folded one at a time, as before adoption.
    for (const auto& [fuid, facts] : certs) {
      const auto it = inserted.certs.find(fuid);
      if (it == inserted.certs.end()) {
        inserted.certs.emplace(fuid, facts);
      } else {
        core::merge_fields(it->second, core::CertFacts(facts));
      }
    }
  }
  EXPECT_EQ(adopted.certs.size(), inserted.certs.size());
  EXPECT_EQ(testing_support::field_differences(adopted, inserted), "");
  core::StateWriter adopted_bytes;
  core::StateWriter inserted_bytes;
  core::write_fields(adopted_bytes, adopted);
  core::write_fields(inserted_bytes, inserted);
  EXPECT_EQ(adopted_bytes.buffer(), inserted_bytes.buffer());
}

// --- Interception accounting is stream-order-independent -------------------

x509::Certificate issue_for_domain(const trust::CertificateAuthority& ca,
                                   const std::string& domain,
                                   const std::string& label) {
  x509::DistinguishedName dn;
  dn.add_cn(domain);
  return ca.issue(x509::CertificateBuilder()
                      .serial_from_label(label)
                      .subject(dn)
                      .validity(util::to_unix({2023, 1, 1, 0, 0, 0}),
                                util::to_unix({2024, 1, 1, 0, 0, 0}))
                      .public_key(crypto::TsigKey::derive(label).key)
                      .add_san_dns(domain));
}

tls::TlsConnection browse(const x509::Certificate& server_cert,
                          const std::string& sni, int i) {
  tls::ClientProfile client;
  client.endpoint = {*net::IpAddress::parse("10.9.8.7"), 50'000};
  client.sni = sni;
  tls::ServerProfile server;
  server.endpoint = {net::IpAddress::v4(203, 0, 113,
                                        static_cast<std::uint8_t>(i + 1)),
                     443};
  server.chain = {server_cert};
  return tls::simulate_handshake(
      client, server,
      {"Cord" + std::to_string(i), util::to_unix({2023, 6, 1, 0, 0, 0}), 0});
}

TEST(InterceptionReconciliationTest, ExclusionIsOrderIndependent) {
  const char* kDomains[] = {"alpha-site.com", "beta-site.com",
                            "gamma-site.com", "delta-site.com"};
  ctlog::CtDatabase ct;
  const auto& pki = trust::public_pki();
  for (std::size_t i = 0; i < std::size(kDomains); ++i) {
    ct.log_certificate(kDomains[i],
                       pki.cas()[i % pki.cas().size()].intermediate.dn());
  }

  x509::DistinguishedName proxy_dn;
  proxy_dn.add_org("Order Test Proxy").add_cn("Order Test Inspector");
  const auto proxy = trust::CertificateAuthority::make_root(
      proxy_dn, 0, util::to_unix({2030, 1, 1, 0, 0, 0}));

  std::vector<tls::TlsConnection> trace;
  int conn_id = 0;
  for (const char* domain : kDomains) {
    trace.push_back(browse(
        issue_for_domain(proxy, domain, std::string("proxy:") + domain),
        domain, conn_id++));
  }

  // Threshold 3 over 4 domains: confirmation is a whole-stream pre-pass,
  // so every proxy connection is excluded in either order, including the
  // ones that precede the third domain.
  const auto run_in_order = [&ct, &trace](bool reversed,
                                          std::size_t threads) {
    zeek::Dataset dataset;
    if (reversed) {
      for (auto it = trace.rbegin(); it != trace.rend(); ++it) {
        dataset.add_connection(*it);
      }
    } else {
      for (const auto& conn : trace) dataset.add_connection(conn);
    }
    auto config = core::PipelineConfig::campus_defaults();
    config.ct = &ct;
    core::PipelineExecutor executor(std::move(config), threads);
    return executor.run(dataset);
  };

  const auto forward = run_in_order(false, 1);
  EXPECT_EQ(forward.interception_issuers().size(), 1u);
  EXPECT_EQ(forward.interception_excluded_connections(), 4u);
  EXPECT_EQ(forward.totals().connections, 0u);
  for (const bool reversed : {false, true}) {
    for (const std::size_t threads : {1u, 2u}) {
      SCOPED_TRACE(std::string(reversed ? "reversed" : "forward") +
                   ", threads=" + std::to_string(threads));
      EXPECT_EQ(testing_support::field_differences(forward,
                                        run_in_order(reversed, threads)),
                "");
    }
  }
}

// --- Zeek log splitting ----------------------------------------------------

TEST(SplitLogTextTest, ChunksParseAndConcatenateToSerialResult) {
  gen::TraceGenerator generator(gen::paper_model(2'000, 500'000));
  const auto dataset = generator.generate_dataset();
  const std::string text = zeek::ssl_log_to_string(dataset.ssl());

  std::istringstream serial_in(text);
  const auto serial = zeek::parse_ssl_log(serial_in);
  ASSERT_TRUE(serial.has_value());

  for (const std::size_t chunks : {std::size_t{1}, std::size_t{3},
                                   std::size_t{8}}) {
    const auto parts = zeek::split_log_text(text, chunks);
    ASSERT_EQ(parts.size(), chunks);
    std::vector<zeek::SslRecord> reassembled;
    for (const auto& part : parts) {
      std::istringstream in(part);
      const auto parsed = zeek::parse_ssl_log(in);
      ASSERT_TRUE(parsed.has_value()) << "chunks=" << chunks;
      reassembled.insert(reassembled.end(), parsed->begin(), parsed->end());
    }
    ASSERT_EQ(reassembled.size(), serial->size()) << "chunks=" << chunks;
    for (std::size_t i = 0; i < reassembled.size(); ++i) {
      EXPECT_EQ(reassembled[i].uid, (*serial)[i].uid);
      EXPECT_EQ(reassembled[i].ts, (*serial)[i].ts);
      EXPECT_EQ(reassembled[i].cert_chain_fuids, (*serial)[i].cert_chain_fuids);
    }
  }
}

TEST(SplitLogTextTest, MoreChunksThanRowsYieldsHeaderOnlyTails) {
  gen::TraceGenerator generator(gen::paper_model(5'000, 5'000'000));
  const auto dataset = generator.generate_dataset();
  std::vector<zeek::SslRecord> three(dataset.ssl().begin(),
                                     dataset.ssl().begin() + 3);
  const std::string text = zeek::ssl_log_to_string(three);

  const auto parts = zeek::split_log_text(text, 10);
  ASSERT_EQ(parts.size(), 10u);
  std::size_t total = 0;
  for (const auto& part : parts) {
    std::istringstream in(part);
    const auto parsed = zeek::parse_ssl_log(in);
    ASSERT_TRUE(parsed.has_value());
    total += parsed->size();
  }
  EXPECT_EQ(total, 3u);
}

TEST(ExecutorTest, RunLogsMatchesDatasetRun) {
  gen::TraceGenerator generator(gen::paper_model(2'000, 500'000));
  const auto dataset = generator.generate_dataset();
  auto config = core::PipelineConfig::campus_defaults();
  config.ct = &generator.ct_database();

  core::PipelineExecutor direct(config, 1);
  const auto reference = direct.run(dataset);

  core::PipelineExecutor from_logs(config, 4);
  zeek::LogParseError error;
  const auto parsed =
      from_logs.run_logs(zeek::ssl_log_to_string(dataset.ssl()),
                         zeek::x509_log_to_string(dataset), &error);
  ASSERT_TRUE(parsed.has_value()) << error.message;
  EXPECT_EQ(testing_support::field_differences(*parsed, reference), "");
}

TEST(ExecutorTest, RunLogsReportsParseErrors) {
  core::PipelineExecutor executor(core::PipelineConfig::campus_defaults(), 2);
  zeek::LogParseError error;
  const auto result = executor.run_logs("not a zeek log\n", "", &error);
  EXPECT_FALSE(result.has_value());
  EXPECT_FALSE(error.message.empty());
}

// --- Phase B: order-dependent chain upgrades --------------------------------

/// A logged x509 row without DER: enrichment classifies it by the logged
/// issuer, public exactly when a public CA issued it.
zeek::X509Record logged_cert(const std::string& fuid,
                             const std::string& issuer) {
  zeek::X509Record record;
  record.fuid = fuid;
  record.subject = "CN=" + fuid;
  record.issuer = issuer;
  return record;
}

zeek::SslRecord chain_row(const std::string& uid, bool established,
                          const std::vector<std::string>& chain) {
  zeek::SslRecord record;
  record.ts = 1'660'000'000;
  record.uid = uid;
  record.orig_h = "10.1.2.3";
  record.orig_p = 50000;
  record.resp_h = "93.184.216.34";
  record.resp_p = 443;
  record.established = established;
  for (const auto& fuid : chain) record.cert_chain_fuids.emplace_back(fuid);
  return record;
}

/// L1 and L2 have a private issuer, P a public intermediate's. Row
/// [L1, L2] then row [L2, P]: L2 goes public after L1's chain was folded,
/// so L1 stays private. Swapped, L2 is public by the time [L1, L2] folds,
/// so both go public. A non-established row carrying [L1, P] must never
/// upgrade anything.
zeek::Dataset chain_upgrade_dataset(bool swapped) {
  const std::string private_issuer = "CN=Lab CA,O=Example Lab,C=US";
  const std::string public_issuer = trust::public_pki()
                                        .find("lets-encrypt")
                                        ->intermediate.dn()
                                        .to_string();
  zeek::Dataset dataset;
  dataset.add_x509(logged_cert("FL1", private_issuer));
  dataset.add_x509(logged_cert("FL2", private_issuer));
  dataset.add_x509(logged_cert("FP", public_issuer));
  auto first = chain_row("C1", true, {"FL1", "FL2"});
  auto second = chain_row("C2", true, {"FL2", "FP"});
  if (swapped) std::swap(first, second);
  dataset.add_ssl(chain_row("C0", false, {"FL1", "FP"}));
  dataset.add_ssl(std::move(first));
  dataset.add_ssl(chain_row("C9", false, {"FL1", "FP"}));
  dataset.add_ssl(std::move(second));
  dataset.add_ssl(chain_row("C8", false, {"FL1", "FP"}));
  return dataset;
}

void expect_classes(const core::Pipeline& result, bool l1_public,
                    bool l2_public) {
  const auto class_of = [&](const char* fuid) {
    const auto it = result.certificates().find(colfmt::Str(fuid));
    EXPECT_NE(it, result.certificates().end()) << fuid;
    return it == result.certificates().end() ? trust::IssuerClass::kPrivate
                                             : it->second.issuer_class;
  };
  const auto expected = [](bool is_public) {
    return is_public ? trust::IssuerClass::kPublic
                     : trust::IssuerClass::kPrivate;
  };
  EXPECT_EQ(class_of("FP"), trust::IssuerClass::kPublic);
  EXPECT_EQ(class_of("FL1"), expected(l1_public));
  EXPECT_EQ(class_of("FL2"), expected(l2_public));
}

TEST(ChainUpgradeOrderTest, EveryEngineFoldsUpgradesInStreamOrder) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("mtlscope_chain_upgrade_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  for (const bool swapped : {false, true}) {
    SCOPED_TRACE(swapped ? "swapped" : "in order");
    const bool l1_public = swapped;
    const auto dataset = chain_upgrade_dataset(swapped);
    const std::string ssl_text = zeek::ssl_log_to_string(dataset.ssl());
    const std::string x509_text = zeek::x509_log_to_string(dataset);

    // One row per container block, so phase B folds across blocks.
    const std::string container = (dir / "chains.mtlc").string();
    {
      colfmt::WriterOptions writer_options;
      writer_options.block_rows = 1;
      colfmt::ContainerWriter writer(container, writer_options);
      ASSERT_TRUE(writer.ok()) << writer.error();
      for (const auto& [fuid, record] : dataset.x509()) {
        writer.add_x509(record);
      }
      for (const auto& record : dataset.ssl()) writer.add_ssl(record);
      std::string error;
      ASSERT_TRUE(writer.finish(&error)) << error;
    }
    std::string open_error;
    const auto reader = colfmt::ContainerReader::open(container, &open_error);
    ASSERT_TRUE(reader) << open_error;
    ASSERT_EQ(reader->ssl_blocks().size(), dataset.ssl().size());

    for (const std::size_t threads : {1u, 2u, 4u, 7u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const auto config = core::PipelineConfig::campus_defaults();
      {
        core::PipelineExecutor executor(config, threads);
        expect_classes(executor.run(dataset), l1_public, true);
      }
      {
        // Chunks far smaller than a row: every row is its own chunk.
        core::PipelineExecutor executor(config, threads);
        ingest::IngestOptions options;
        options.chunk_bytes = 16;
        zeek::LogParseError error;
        const auto result =
            executor.run_logs(ssl_text, x509_text, &error, options);
        ASSERT_TRUE(result.has_value()) << error.message;
        expect_classes(*result, l1_public, true);
      }
      {
        core::PipelineExecutor executor(config, threads);
        ingest::IngestError error;
        const auto result = executor.run_container(*reader, &error);
        ASSERT_TRUE(result.has_value()) << error.to_string();
        EXPECT_STREQ(executor.last_run_stats().scan, "columnar");
        expect_classes(*result, l1_public, true);
      }
    }
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace mtlscope
