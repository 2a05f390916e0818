// PipelineExecutor: the sharded run must produce the full analyzer result
// set bit-identically for every shard count, and the mergeable pieces
// (CertFacts, connection analyzers) must fold correctly on their own.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include <unistd.h>

#include "mtlscope/colfmt/container.hpp"
#include "mtlscope/core/analyzers.hpp"
#include "mtlscope/core/executor.hpp"
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
  core::PrevalenceAnalyzer prevalence;
  core::ServicePortAnalyzer ports;
  core::InboundAssociationAnalyzer assoc;
  core::OutboundFlowAnalyzer flows;
  core::DummyIssuerAnalyzer dummies;
  core::SerialCollisionAnalyzer serials;
  core::SharedCertAnalyzer shared;
  core::IncorrectDateAnalyzer dates;
};

/// Runs `dataset` with the generator's CT database attached — in memory,
/// or from `container` (the same rows converted) when one is given.
RunResult run_sharded(const gen::TraceGenerator& generator,
                      const zeek::Dataset& dataset, std::size_t threads,
                      const colfmt::ContainerReader* container = nullptr) {
  auto config = core::PipelineConfig::campus_defaults();
  config.ct = &generator.ct_database();
  core::PipelineExecutor executor(std::move(config), threads);

  core::Sharded<core::PrevalenceAnalyzer> prevalence(executor.shard_count());
  core::Sharded<core::ServicePortAnalyzer> ports(executor.shard_count());
  core::Sharded<core::InboundAssociationAnalyzer> assoc(
      executor.shard_count());
  core::Sharded<core::OutboundFlowAnalyzer> flows(executor.shard_count());
  core::Sharded<core::DummyIssuerAnalyzer> dummies(executor.shard_count());
  core::Sharded<core::SerialCollisionAnalyzer> serials(
      executor.shard_count());
  core::Sharded<core::SharedCertAnalyzer> shared(executor.shard_count());
  core::Sharded<core::IncorrectDateAnalyzer> dates(executor.shard_count());
  executor.attach(prevalence);
  executor.attach(ports);
  executor.attach(assoc);
  executor.attach(flows);
  executor.attach(dummies);
  executor.attach(serials);
  executor.attach(shared);
  executor.attach(dates);

  ingest::IngestError error;
  auto pipeline = container == nullptr
                      ? std::optional(executor.run(dataset))
                      : executor.run_container(*container, &error);
  if (!pipeline) throw std::runtime_error(error.to_string());
  if (container != nullptr) {
    EXPECT_STREQ(executor.last_run_stats().scan, "columnar");
  }
  return RunResult{std::move(*pipeline),
                   std::move(prevalence).merged(),
                   std::move(ports).merged(),
                   std::move(assoc).merged(),
                   std::move(flows).merged(),
                   std::move(dummies).merged(),
                   std::move(serials).merged(),
                   std::move(shared).merged(),
                   std::move(dates).merged()};
}

void expect_same_totals(const core::Pipeline& a, const core::Pipeline& b) {
  EXPECT_EQ(a.totals().connections, b.totals().connections);
  EXPECT_EQ(a.totals().established, b.totals().established);
  EXPECT_EQ(a.totals().rejected_handshakes, b.totals().rejected_handshakes);
  EXPECT_EQ(a.totals().mutual, b.totals().mutual);
  EXPECT_EQ(a.totals().inbound, b.totals().inbound);
  EXPECT_EQ(a.totals().outbound, b.totals().outbound);
  EXPECT_EQ(a.totals().tls13, b.totals().tls13);
  EXPECT_EQ(a.interception_excluded_connections(),
            b.interception_excluded_connections());
  EXPECT_EQ(a.interception_issuers(), b.interception_issuers());
}

void expect_same_facts(const core::CertFacts& a, const core::CertFacts& b) {
  EXPECT_EQ(a.fuid, b.fuid);
  EXPECT_EQ(a.version, b.version) << a.fuid;
  EXPECT_EQ(a.key_bits, b.key_bits) << a.fuid;
  EXPECT_EQ(a.serial_hex, b.serial_hex) << a.fuid;
  EXPECT_EQ(a.subject_cn, b.subject_cn) << a.fuid;
  EXPECT_EQ(a.issuer_org, b.issuer_org) << a.fuid;
  EXPECT_EQ(a.issuer_cn, b.issuer_cn) << a.fuid;
  EXPECT_EQ(a.issuer_dn, b.issuer_dn) << a.fuid;
  EXPECT_EQ(a.validity.not_before, b.validity.not_before) << a.fuid;
  EXPECT_EQ(a.validity.not_after, b.validity.not_after) << a.fuid;
  EXPECT_EQ(a.san_dns, b.san_dns) << a.fuid;
  EXPECT_EQ(a.san_email_count, b.san_email_count) << a.fuid;
  EXPECT_EQ(a.san_uri_count, b.san_uri_count) << a.fuid;
  EXPECT_EQ(a.san_ip_count, b.san_ip_count) << a.fuid;
  EXPECT_EQ(a.san_dns_types, b.san_dns_types) << a.fuid;
  EXPECT_EQ(a.issuer_class, b.issuer_class);
  EXPECT_EQ(a.issuer_category, b.issuer_category);
  EXPECT_EQ(a.campus_issuer, b.campus_issuer);
  EXPECT_EQ(a.cn_type, b.cn_type);
  EXPECT_EQ(a.flagged_interception, b.flagged_interception) << a.fuid;
  EXPECT_EQ(a.used_as_server, b.used_as_server) << a.fuid;
  EXPECT_EQ(a.used_as_client, b.used_as_client) << a.fuid;
  EXPECT_EQ(a.used_in_mutual, b.used_in_mutual) << a.fuid;
  EXPECT_EQ(a.seen_inbound, b.seen_inbound) << a.fuid;
  EXPECT_EQ(a.seen_outbound, b.seen_outbound) << a.fuid;
  EXPECT_EQ(a.seen_outbound_with_sni, b.seen_outbound_with_sni) << a.fuid;
  EXPECT_EQ(a.client_use_while_expired, b.client_use_while_expired) << a.fuid;
  EXPECT_EQ(a.connection_count, b.connection_count) << a.fuid;
  EXPECT_EQ(a.first_seen, b.first_seen) << a.fuid;
  EXPECT_EQ(a.last_seen, b.last_seen) << a.fuid;
  EXPECT_EQ(a.server_subnets, b.server_subnets) << a.fuid;
  EXPECT_EQ(a.client_subnets, b.client_subnets) << a.fuid;
  EXPECT_EQ(a.context_sld, b.context_sld) << a.fuid;
  EXPECT_EQ(a.context_assoc, b.context_assoc) << a.fuid;
}

void expect_same_certificates(const core::Pipeline& a,
                              const core::Pipeline& b) {
  const auto certs_a = a.certificates_sorted();
  const auto certs_b = b.certificates_sorted();
  ASSERT_EQ(certs_a.size(), certs_b.size());
  for (std::size_t i = 0; i < certs_a.size(); ++i) {
    expect_same_facts(*certs_a[i], *certs_b[i]);
  }
}

void expect_same_analyzers(const RunResult& a, const RunResult& b) {
  // Figure 1.
  const auto series_a = a.prevalence.series();
  const auto series_b = b.prevalence.series();
  ASSERT_EQ(series_a.size(), series_b.size());
  for (std::size_t i = 0; i < series_a.size(); ++i) {
    EXPECT_EQ(series_a[i].month_index, series_b[i].month_index);
    EXPECT_EQ(series_a[i].total, series_b[i].total);
    EXPECT_EQ(series_a[i].mutual, series_b[i].mutual);
    EXPECT_EQ(series_a[i].mutual_inbound, series_b[i].mutual_inbound);
    EXPECT_EQ(series_a[i].mutual_outbound, series_b[i].mutual_outbound);
  }

  // Table 2: all four quadrants, all ports.
  for (const auto direction :
       {core::Direction::kInbound, core::Direction::kOutbound}) {
    for (const bool mutual : {false, true}) {
      const auto top_a = a.ports.top(direction, mutual, 1'000);
      const auto top_b = b.ports.top(direction, mutual, 1'000);
      ASSERT_EQ(top_a.size(), top_b.size());
      for (std::size_t i = 0; i < top_a.size(); ++i) {
        EXPECT_EQ(top_a[i].port_label, top_b[i].port_label);
        EXPECT_EQ(top_a[i].connections, top_b[i].connections);
        EXPECT_DOUBLE_EQ(top_a[i].share, top_b[i].share);
      }
    }
  }

  // Table 3.
  EXPECT_EQ(a.assoc.total_connections(), b.assoc.total_connections());
  EXPECT_EQ(a.assoc.total_clients(), b.assoc.total_clients());
  const auto rows_a = a.assoc.rows();
  const auto rows_b = b.assoc.rows();
  ASSERT_EQ(rows_a.size(), rows_b.size());
  for (std::size_t i = 0; i < rows_a.size(); ++i) {
    EXPECT_EQ(rows_a[i].assoc, rows_b[i].assoc);
    EXPECT_EQ(rows_a[i].connections, rows_b[i].connections);
    EXPECT_EQ(rows_a[i].clients, rows_b[i].clients);
    EXPECT_EQ(rows_a[i].issuer_shares, rows_b[i].issuer_shares);
  }

  // Figure 2.
  const auto flows_a = a.flows.top_flows(1'000);
  const auto flows_b = b.flows.top_flows(1'000);
  ASSERT_EQ(flows_a.size(), flows_b.size());
  for (std::size_t i = 0; i < flows_a.size(); ++i) {
    EXPECT_EQ(flows_a[i].tld, flows_b[i].tld);
    EXPECT_EQ(flows_a[i].server_class, flows_b[i].server_class);
    EXPECT_EQ(flows_a[i].client_category, flows_b[i].client_category);
    EXPECT_EQ(flows_a[i].connections, flows_b[i].connections);
  }
  EXPECT_EQ(a.flows.top_slds(1'000), b.flows.top_slds(1'000));
  EXPECT_DOUBLE_EQ(a.flows.public_server_missing_client_issuer_pct(),
                   b.flows.public_server_missing_client_issuer_pct());

  // Table 4 / §5.1.1.
  const auto dummy_a = a.dummies.rows();
  const auto dummy_b = b.dummies.rows();
  ASSERT_EQ(dummy_a.size(), dummy_b.size());
  for (std::size_t i = 0; i < dummy_a.size(); ++i) {
    EXPECT_EQ(dummy_a[i].dummy_org, dummy_b[i].dummy_org);
    EXPECT_EQ(dummy_a[i].server_groups, dummy_b[i].server_groups);
    EXPECT_EQ(dummy_a[i].clients, dummy_b[i].clients);
    EXPECT_EQ(dummy_a[i].connections, dummy_b[i].connections);
  }
  EXPECT_EQ(a.dummies.weak_params().v1_certs, b.dummies.weak_params().v1_certs);
  EXPECT_EQ(a.dummies.weak_params().v1_tuples,
            b.dummies.weak_params().v1_tuples);
  EXPECT_EQ(a.dummies.weak_params().weak_key_certs,
            b.dummies.weak_params().weak_key_certs);
  EXPECT_EQ(a.dummies.weak_params().weak_key_tuples,
            b.dummies.weak_params().weak_key_tuples);

  // §5.1.2.
  const auto groups_a = a.serials.collision_groups();
  const auto groups_b = b.serials.collision_groups();
  ASSERT_EQ(groups_a.size(), groups_b.size());
  for (std::size_t i = 0; i < groups_a.size(); ++i) {
    EXPECT_EQ(groups_a[i].issuer_org, groups_b[i].issuer_org);
    EXPECT_EQ(groups_a[i].serial, groups_b[i].serial);
    EXPECT_EQ(groups_a[i].server_certs, groups_b[i].server_certs);
    EXPECT_EQ(groups_a[i].client_certs, groups_b[i].client_certs);
    EXPECT_EQ(groups_a[i].clients, groups_b[i].clients);
    EXPECT_EQ(groups_a[i].connections, groups_b[i].connections);
    EXPECT_EQ(groups_a[i].both_endpoint_connections,
              groups_b[i].both_endpoint_connections);
  }
  EXPECT_EQ(a.serials.involved_clients(core::Direction::kInbound),
            b.serials.involved_clients(core::Direction::kInbound));
  EXPECT_EQ(a.serials.involved_clients(core::Direction::kOutbound),
            b.serials.involved_clients(core::Direction::kOutbound));

  // Tables 5-6.
  const auto shared_a = a.shared.same_connection_rows();
  const auto shared_b = b.shared.same_connection_rows();
  ASSERT_EQ(shared_a.size(), shared_b.size());
  for (std::size_t i = 0; i < shared_a.size(); ++i) {
    EXPECT_EQ(shared_a[i].sld, shared_b[i].sld);
    EXPECT_EQ(shared_a[i].issuer, shared_b[i].issuer);
    EXPECT_EQ(shared_a[i].clients, shared_b[i].clients);
    EXPECT_EQ(shared_a[i].first, shared_b[i].first);
    EXPECT_EQ(shared_a[i].last, shared_b[i].last);
    EXPECT_EQ(shared_a[i].connections, shared_b[i].connections);
  }
  EXPECT_EQ(a.shared.same_conn_fuids(), b.shared.same_conn_fuids());
  EXPECT_EQ(a.shared.same_connection_conns(core::Direction::kInbound),
            b.shared.same_connection_conns(core::Direction::kInbound));
  EXPECT_EQ(a.shared.same_connection_conns(core::Direction::kOutbound),
            b.shared.same_connection_conns(core::Direction::kOutbound));
  const auto q_a = a.shared.subnet_quantiles(a.pipeline);
  const auto q_b = b.shared.subnet_quantiles(b.pipeline);
  EXPECT_EQ(q_a.server, q_b.server);
  EXPECT_EQ(q_a.client, q_b.client);
  EXPECT_EQ(q_a.cross_shared_certs, q_b.cross_shared_certs);

  // Figure 3 / Tables 11-12.
  for (const bool both : {false, true}) {
    const auto dates_a = both ? a.dates.both_ends_rows() : a.dates.rows();
    const auto dates_b = both ? b.dates.both_ends_rows() : b.dates.rows();
    ASSERT_EQ(dates_a.size(), dates_b.size());
    for (std::size_t i = 0; i < dates_a.size(); ++i) {
      EXPECT_EQ(dates_a[i].sld, dates_b[i].sld);
      EXPECT_EQ(dates_a[i].issuer, dates_b[i].issuer);
      EXPECT_EQ(dates_a[i].clients, dates_b[i].clients);
      EXPECT_EQ(dates_a[i].certs, dates_b[i].certs);
      EXPECT_EQ(dates_a[i].first, dates_b[i].first);
      EXPECT_EQ(dates_a[i].last, dates_b[i].last);
    }
  }

  // Certificate-level reports read the merged registry.
  const auto inv_a = core::analyze_cert_inventory(a.pipeline);
  const auto inv_b = core::analyze_cert_inventory(b.pipeline);
  for (const auto& [row_a, row_b] :
       {std::pair{inv_a.total, inv_b.total},
        std::pair{inv_a.server, inv_b.server},
        std::pair{inv_a.server_public, inv_b.server_public},
        std::pair{inv_a.server_private, inv_b.server_private},
        std::pair{inv_a.client, inv_b.client},
        std::pair{inv_a.client_public, inv_b.client_public},
        std::pair{inv_a.client_private, inv_b.client_private}}) {
    EXPECT_EQ(row_a.total, row_b.total);
    EXPECT_EQ(row_a.mutual, row_b.mutual);
  }
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
  expect_same_totals(result.pipeline, reference_->pipeline);
  expect_same_certificates(result.pipeline, reference_->pipeline);
  expect_same_analyzers(result, *reference_);
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
  EXPECT_FALSE(result.prevalence.series().empty());
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
    expect_same_totals(result.pipeline, reference.pipeline);
    expect_same_certificates(result.pipeline, reference.pipeline);
    expect_same_analyzers(result, reference);
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// --- CertFacts::merge ------------------------------------------------------

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

  a.merge(b);
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

  a.merge(b);
  EXPECT_EQ(a.issuer_class, trust::IssuerClass::kPublic);
  EXPECT_EQ(a.issuer_category, core::IssuerCategory::kPublic);
  // First shard already had a context SLD; merge keeps it.
  EXPECT_EQ(a.context_sld, "first.com");
}

// --- Hand-rolled analyzer merges -------------------------------------------

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
  first.merge(std::move(second));

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
  first.merge(std::move(second));

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
      expect_same_totals(forward, run_in_order(reversed, threads));
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
  expect_same_totals(*parsed, reference);
  expect_same_certificates(*parsed, reference);
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
